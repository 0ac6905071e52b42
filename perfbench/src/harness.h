// Shared pieces of the fbbench program: run configuration, metric sets,
// process counters and the per-workload result record.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace perfbench {

// Rounds per pass. Each round sets up afresh and times its share of the
// pass's operations on inputs of its own sub-seed; every end-to-end
// figure is the median over the rounds.
constexpr int kRounds = 5;

// Mixes a seed with a stream tag so each input stream of a workload is
// independent but fully determined by --seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL ^ (tag + 0x632be59bd9b4e019ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x;
}

struct RunConfig {
  uint64_t seed = 1;
  int seconds = 10;
  // Directory for stores and trace files (inside the benchmark checkout).
  std::string work_dir;
  int round = 0;  // in [0, kRounds)
  // Whether this pass installs the timing decorators and records spans.
  bool traced = false;

  uint64_t round_seed() const { return SubSeed(seed, 1000 + round); }
  // This round's share of `nominal_ops_per_s` x seconds operations. The
  // count never depends on measured time, so every count metric repeats
  // exactly for a given (seed, seconds).
  uint64_t RoundOps(double nominal_ops_per_s) const;
};

// Percentile p in [0, 100] of a copy of `rec`, so const holders can ask.
inline double Percentile(fb::LatencyRecorder rec, double p) {
  return rec.Percentile(p);
}

// Records every sample of `from` into `to`.
inline void Append(fb::LatencyRecorder* to, fb::LatencyRecorder from) {
  for (double us : from.sorted()) to->Record(us);
}

double Median(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return all_; }

 private:
  std::vector<Metric> all_;
};

// Outcome of one round: one set-up, one timed phase, its output checks.
struct RoundResult {
  double setup_s = 0;    // open and preload, up to the first timed op
  double elapsed_s = 0;  // timed phase wall time
  double cpu_s = 0;      // process user+sys time over the timed phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  fb::LatencyRecorder read, write, history;  // microseconds
  double space_amp = 0;
  // Per-layer count metrics the workload measures itself.
  MetricSet layer;
  // Workload-specific run environment (store path, backend, threads...).
  std::vector<std::pair<std::string, std::string>> env;
  // Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;

  void Error(const std::string& what);
  // Completed operations per second of the timed phase.
  double ops_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(attempted - failed) / elapsed_s
                         : 0;
  }
};

// Byte encoding that hands a round's results from the process that ran
// it to the parent. Both ends are the same binary, so values are copied
// in host byte order.
class Encoder {
 public:
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s);
  void Samples(fb::LatencyRecorder rec);
  const std::string& bytes() const { return out_; }

 private:
  void Raw(const void* p, size_t n);
  std::string out_;
};

class Decoder {
 public:
  explicit Decoder(const std::string& in) : in_(in) {}
  uint64_t U64();
  double F64();
  std::string Str();
  fb::LatencyRecorder Samples();
  // False once a read ran past the end; later reads return zeros.
  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == in_.size(); }

 private:
  bool Raw(void* p, size_t n);
  const std::string& in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void EncodeRound(const RoundResult& r, Encoder* e);
RoundResult DecodeRound(Decoder* d);

// CPU time of this process (getrusage).
double CpuSeconds();
// Peak resident memory of the largest waited-for child process.
double ChildPeakRssMb();

// Filesystem type name of the filesystem holding `path`.
std::string FilesystemType(const std::string& path);

// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

// Integer ratio helper that treats an empty denominator as 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
