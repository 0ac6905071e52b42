// fbbench: the repository benchmark program.
//
//   fbbench --workload ledger|wiki|replicated_kv --seed N --seconds S
//           --trace 0|1 [--work-dir DIR] [--commit ID]
//
// A pass is kRounds rounds; each round runs in a process of its own,
// sets the workload up afresh and times its share of the pass's
// operations, and each end-to-end figure is the median over the rounds. --trace 0 runs one untraced pass and
// reports the end-to-end metrics. --trace 1 runs the same untraced pass,
// then a traced pass with the same inputs, and reports the per-layer
// metrics, including the tracing overhead (traced minus untraced
// medians). Every metric is printed by name with its unit; the last
// stdout line is the JSON result object.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

#ifndef FBBENCH_CXX_COMPILER
#define FBBENCH_CXX_COMPILER "unknown"
#endif
#ifndef FBBENCH_BUILD_TYPE
#define FBBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

enum Workload : unsigned { kLedger = 1, kWiki = 2, kReplicatedKv = 4 };
constexpr unsigned kAll = kLedger | kWiki | kReplicatedKv;

// Every per-layer metric, with the workloads whose path it lies on and,
// for the others, why it reads 0 there.
struct LayerDef {
  const char* name;
  const char* unit;
  unsigned workloads;
  const char* absent_because;
};

const char* const kNoServiceBoundary =
    "ForkBaseLedger drives its private engine directly; there is no "
    "service or store seam to time from outside";
const char* const kServerSide =
    "the api layer runs inside ForkBaseServer workers, which take a "
    "ForkBase* and no service decorator";
const char* const kNoReplication =
    "no rpc, replication or replica routing on this workload's path";

const LayerDef kLayerDefs[] = {
    {"api.put_blob_self_p50_us", "us", kWiki,
     "no PutBlob on this workload's path"},
    {"wiki.read_old_self_p50_us", "us", kWiki, "wiki workload only"},
    {"chunk.put_bytes_per_user_byte", "ratio", kAll, ""},
    {"chunk.puts_per_txn", "ratio", kAll, ""},
    {"chunk.put_p50_us", "us", kWiki | kReplicatedKv, kNoServiceBoundary},
    {"chunk.put_calls_per_write", "ratio", kWiki | kReplicatedKv,
     kNoServiceBoundary},
    {"chunk.get_p50_us", "us", kWiki | kReplicatedKv, kNoServiceBoundary},
    {"chunk.gets_per_history_read", "ratio", kAll, ""},
    {"chunk.block_cache_hit_ratio", "ratio", kWiki,
     "MemChunkStore has no block cache"},
    {"chunk.dedup_ratio", "ratio", kAll, ""},
    {"api.get_value_p50_us", "us", kWiki, nullptr},
    {"api.track_p50_us", "us", kWiki, nullptr},
    {"api.hot_head_hit_ratio", "ratio", kAll, ""},
    {"repl.quorum_wait_p50_us", "us", kReplicatedKv, kNoReplication},
    {"repl.records_per_shipment", "ratio", kReplicatedKv, kNoReplication},
    {"repl.quorum_timeouts", "count", kReplicatedKv, kNoReplication},
    {"repl.log_records", "count", kReplicatedKv, kNoReplication},
    {"rpc.requests_per_op", "ratio", kReplicatedKv, kNoReplication},
    {"rpc.client_self_share", "ratio", kReplicatedKv, kNoReplication},
    {"cluster.replica_read_share", "ratio", kReplicatedKv, kNoReplication},
    {"cluster.leader_redirects", "count", kReplicatedKv, kNoReplication},
    {"proc.cpu_ms_per_kop", "ms", kAll, ""},
    {"diag.read_p99_us", "us", kAll, ""},
    {"diag.read_samples", "count", kAll, ""},
    {"diag.write_p99_us", "us", kAll, ""},
    {"diag.write_samples", "count", kAll, ""},
    {"diag.history_p99_us", "us", kAll, ""},
    {"diag.history_samples", "count", kAll, ""},
    {"trace.read_p50_overhead_us", "us", kAll, ""},
    {"trace.write_p50_overhead_us", "us", kAll, ""},
    {"trace.history_p50_overhead_us", "us", kAll, ""},
    {"trace.ops_per_s_overhead_share", "ratio", kAll, ""},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "fbbench: %s\nusage: fbbench --workload ledger|wiki|"
               "replicated_kv --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--commit ID]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atoi(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--commit") a.commit = v;
    else Usage(("unknown flag " + flag).c_str());
  }
  if (a.workload != "ledger" && a.workload != "wiki" &&
      a.workload != "replicated_kv") {
    Usage("unknown workload");
  }
  if (a.seconds < 1) Usage("--seconds must be at least 1");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

// One pass of a workload: its rounds, summarized by medians over rounds.
struct Pass {
  std::vector<RoundResult> rounds;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> env;
  bool complete = false;  // every round set up and ran its timed phase
  // Traced pass: every round's spans, and how many the trace file kept.
  std::map<std::string, SpanStats> spans;
  uint64_t spans_written = 0;

  template <typename F>
  double MedianOver(F f) const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(f(r));
    return Median(v);
  }
  double P50(fb::LatencyRecorder RoundResult::*kind) const {
    return MedianOver(
        [&](const RoundResult& r) { return Percentile(r.*kind, 50); });
  }
  double ops_per_s() const {
    return MedianOver([](const RoundResult& r) { return r.ops_per_s(); });
  }
  fb::LatencyRecorder Pooled(fb::LatencyRecorder RoundResult::*kind) const {
    fb::LatencyRecorder all;
    for (const RoundResult& r : rounds) Append(&all, r.*kind);
    return all;
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const RoundResult& r : rounds) n += r.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const RoundResult& r : rounds) n += r.failed;
    return n;
  }
  // Per-layer count metrics, each the median over rounds (every round's
  // value repeats for a seed, so the median does too).
  MetricSet Counts() const {
    MetricSet m;
    if (rounds.empty()) return m;
    for (const Metric& c : rounds[0].layer.all()) {
      m.Set(c.name, MedianOver([&](const RoundResult& r) {
              const Metric* x = r.layer.Find(c.name);
              return x == nullptr ? 0.0 : x->value;
            }),
            c.unit);
    }
    return m;
  }
};

constexpr size_t kKeptSpans = 200000;

std::string TracePath(const Args& a) {
  return a.work_dir + "/trace-" + a.workload + ".json";
}

// Body of a round's process: runs the round and writes its encoded
// result (and, when traced, its spans) to `fd`. The first traced round
// also writes the trace file.
[[noreturn]] void RoundChild(const Args& a, const RunConfig& cfg, int fd) {
  if (cfg.traced) Tracer::Reset(cfg.round == 0 ? kKeptSpans : 0);
  const RoundResult r = a.workload == "ledger" ? RunLedger(cfg)
                        : a.workload == "wiki" ? RunWiki(cfg)
                                               : RunReplicatedKv(cfg);
  Encoder e;
  EncodeRound(r, &e);
  if (cfg.traced) {
    size_t written = 0;
    if (cfg.round == 0 &&
        !Tracer::WriteChromeTrace(TracePath(a), &written)) {
      std::fprintf(stderr, "fbbench: cannot write %s\n",
                   TracePath(a).c_str());
    }
    e.U64(written);
    EncodeSpans(Tracer::Collect(), &e);
  }
  const std::string& out = e.bytes();
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = write(fd, out.data() + off, out.size() - off);
    if (n <= 0) _exit(3);
    off += static_cast<size_t>(n);
  }
  _exit(0);
}

// Runs every round in a fresh child process, so that no round inherits
// the heap of an earlier one. In one long-lived process, replicated_kv's
// peak RSS wandered between 175 and 215 MB from run to run as freed
// memory fragmented; a process per round peaks at 114-116 MB (both
// with --seconds 10).
Pass RunPass(const Args& a, bool traced) {
  Pass pass;
  RunConfig cfg;
  cfg.seed = a.seed;
  cfg.seconds = a.seconds;
  cfg.work_dir = a.work_dir;
  cfg.traced = traced;
  for (cfg.round = 0; cfg.round < kRounds; ++cfg.round) {
    const std::string where = "round " + std::to_string(cfg.round) + ": ";
    int fds[2];
    if (pipe(fds) != 0) {
      pass.errors.push_back(where + "pipe failed");
      return pass;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      RoundChild(a, cfg, fds[1]);
    }
    close(fds[1]);
    std::string in;
    char buf[1 << 16];
    for (ssize_t n; pid > 0 && (n = read(fds[0], buf, sizeof(buf))) != 0;) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      in.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      pass.errors.push_back(where + "round process failed (status " +
                            std::to_string(status) + ")");
      return pass;
    }
    Decoder d(in);
    RoundResult r = DecodeRound(&d);
    if (traced) {
      pass.spans_written += d.U64();
      DecodeSpans(&d, &pass.spans);
    }
    if (!d.done()) {
      pass.errors.push_back(where + "truncated round result");
      return pass;
    }
    for (const std::string& e : r.errors) pass.errors.push_back(where + e);
    if (r.attempted == 0) return pass;  // set-up failed
    if (pass.env.empty()) pass.env = r.env;
    pass.rounds.push_back(std::move(r));
  }
  pass.complete = true;
  return pass;
}

unsigned WorkloadBit(const std::string& w) {
  return w == "ledger" ? kLedger : w == "wiki" ? kWiki : kReplicatedKv;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetricLine(const Metric& m) {
  std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

MetricSet EndToEnd(const Pass& p, double rss_mb) {
  MetricSet m;
  m.Set("setup_s",
        p.MedianOver([](const RoundResult& r) { return r.setup_s; }), "s");
  m.Set("ops_per_s", p.ops_per_s(), "1/s");
  m.Set("read_p50_us", p.P50(&RoundResult::read), "us");
  m.Set("write_p50_us", p.P50(&RoundResult::write), "us");
  m.Set("history_p50_us", p.P50(&RoundResult::history), "us");
  m.Set("space_amp",
        p.MedianOver([](const RoundResult& r) { return r.space_amp; }),
        "ratio");
  m.Set("rss_peak_mb", rss_mb, "MB");
  return m;
}

// Per-layer metrics: the pass's own counts, span-derived timings of the
// traced pass, and process/diagnostic figures of the untraced pass.
MetricSet PerLayer(const std::string& workload, const Pass& base,
                   const Pass& traced,
                   const std::map<std::string, SpanStats>& spans) {
  auto span = [&](const char* name) -> const SpanStats* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  auto self_p50 = [&](const char* name) {
    const SpanStats* s = span(name);
    return s == nullptr ? 0.0 : Percentile(s->self_us, 50);
  };
  auto dur_p50 = [&](const char* name) {
    const SpanStats* s = span(name);
    return s == nullptr ? 0.0 : Percentile(s->dur_us, 50);
  };
  auto total = [&](const char* name) {
    const SpanStats* s = span(name);
    return s == nullptr ? 0.0 : s->total_us;
  };
  MetricSet got;
  const MetricSet counts = traced.Counts();
  for (const Metric& m : counts.all()) got.Set(m.name, m.value, m.unit);
  got.Set("api.put_blob_self_p50_us", self_p50("api.put_blob"), "us");
  got.Set("wiki.read_old_self_p50_us", self_p50("wiki.read_old"), "us");
  got.Set("chunk.put_p50_us", dur_p50("chunk.put"), "us");
  got.Set("chunk.get_p50_us", dur_p50("chunk.get"), "us");
  const SpanStats* puts = span("chunk.put");
  got.Set("chunk.put_calls_per_write",
          Ratio(puts == nullptr ? 0 : static_cast<double>(puts->count),
                static_cast<double>(traced.Pooled(&RoundResult::write).count())),
          "ratio");
  got.Set("api.get_value_p50_us", dur_p50("api.get_value"), "us");
  got.Set("api.track_p50_us", dur_p50("api.track"), "us");
  got.Set("repl.quorum_wait_p50_us", dur_p50("repl.quorum_wait"), "us");
  // Client-side share of a replicated operation: the client spans minus
  // what the leader spent in quorum waits and chunk calls.
  const double client =
      total("kv.read") + total("kv.write") + total("kv.history");
  got.Set("rpc.client_self_share",
          Ratio(client - total("repl.quorum_wait") - total("chunk.put") -
                    total("chunk.get"),
                client),
          "ratio");
  double cpu_s = 0;
  for (const RoundResult& r : base.rounds) cpu_s += r.cpu_s;
  got.Set("proc.cpu_ms_per_kop",
          Ratio(cpu_s * 1e3, static_cast<double>(base.attempted()) / 1e3),
          "ms");
  const std::pair<const char*, fb::LatencyRecorder RoundResult::*> kinds[] = {
      {"read", &RoundResult::read},
      {"write", &RoundResult::write},
      {"history", &RoundResult::history}};
  for (const auto& [kind, member] : kinds) {
    fb::LatencyRecorder pooled = base.Pooled(member);
    const std::string k = kind;
    got.Set("diag." + k + "_p99_us", pooled.Percentile(99), "us");
    got.Set("diag." + k + "_samples", static_cast<double>(pooled.count()),
            "count");
    got.Set("trace." + k + "_p50_overhead_us",
            traced.P50(member) - base.P50(member), "us");
  }
  got.Set("trace.ops_per_s_overhead_share",
          1.0 - Ratio(traced.ops_per_s(), base.ops_per_s()), "ratio");

  // Emit exactly the declared metrics, in declaration order; a metric off
  // this workload's path reads 0 and says why.
  MetricSet out;
  const unsigned bit = WorkloadBit(workload);
  for (const LayerDef& d : kLayerDefs) {
    const Metric* m = got.Find(d.name);
    const bool on_path = (d.workloads & bit) != 0;
    out.Set(d.name, on_path && m != nullptr ? m->value : 0.0, d.unit);
    if (!on_path) {
      const char* why = d.absent_because;
      if (why == nullptr) {
        why = workload == "ledger" ? kNoServiceBoundary : kServerSide;
      }
      std::printf("absent %-34s reads 0: %s\n", d.name, why);
    }
  }
  return out;
}

void PrintSpanTable(const std::map<std::string, SpanStats>& spans) {
  std::printf("spans: name, count, with-request share, busy ms, "
              "p50 us, self p50 us, self busy ms\n");
  for (const auto& [name, s] : spans) {
    std::printf("span %-20s %9llu %6.2f %12.3f %10.3f %10.3f %12.3f\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                Ratio(static_cast<double>(s.with_request),
                      static_cast<double>(s.count)),
                s.total_us / 1e3, Percentile(s.dur_us, 50),
                Percentile(s.self_us, 50),
                s.self_total_us / 1e3);
  }
}

std::string MetricsJson(const MetricSet& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics.all()) {
    out += (out.size() == 1 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void WriteResultFile(const std::string& path,
                     const std::vector<std::pair<std::string, std::string>>& env,
                     const MetricSet& metrics) {
  std::string json = "{\"env\": {";
  for (const auto& [k, v] : env) {
    json += (json.back() == '{' ? "\"" : ", \"") + k + "\": \"" + v + "\"";
  }
  json += "}, \"metrics\": " + MetricsJson(metrics) + "}\n";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
}

// Pins the process (and every thread it starts later) to the highest CPU
// it may run on. Returns the CPU, or -1 when pinning failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const int pinned_cpu = PinToOneCpu();
  std::error_code ec;
  std::filesystem::create_directories(a.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "fbbench: cannot create %s\n", a.work_dir.c_str());
    return 1;
  }

  const Pass base = RunPass(a, /*traced=*/false);
  const double rss_mb = ChildPeakRssMb();
  Pass traced;
  if (base.complete && a.trace == 1) traced = RunPass(a, /*traced=*/true);
  if (!base.complete || (a.trace == 1 && !traced.complete)) {
    for (const Pass* p : {&base, static_cast<const Pass*>(&traced)}) {
      for (const std::string& e : p->errors) {
        std::fprintf(stderr, "fbbench: %s\n", e.c_str());
      }
    }
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> env = {
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", std::to_string(a.seconds)},
      {"trace", std::to_string(a.trace)},
      {"rounds", std::to_string(kRounds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"online_cpus", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"pinned_cpu", std::to_string(pinned_cpu)},
      {"compiler", FBBENCH_CXX_COMPILER},
      {"build_type", FBBENCH_BUILD_TYPE},
      {"commit", a.commit},
      {"work_dir", a.work_dir},
      {"work_dir_fs", FilesystemType(a.work_dir)},
      {"closed_loop", "yes (each client waits for its reply)"}};
  env.insert(env.end(), base.env.begin(), base.env.end());
  for (const auto& [k, v] : env) std::printf("env %s=%s\n", k.c_str(), v.c_str());

  std::printf("workload %s: attempted %llu failed %llu\n", a.workload.c_str(),
              static_cast<unsigned long long>(base.attempted()),
              static_cast<unsigned long long>(base.failed()));
  for (size_t i = 0; i < base.rounds.size(); ++i) {
    const RoundResult& r = base.rounds[i];
    std::printf("round %zu: setup %.4f s, timed %.3f s, %.1f ops/s, p50 "
                "read %.2f write %.2f history %.2f us\n",
                i, r.setup_s, r.elapsed_s, r.ops_per_s(), Percentile(r.read, 50),
                Percentile(r.write, 50), Percentile(r.history, 50));
  }
  const std::pair<const char*, fb::LatencyRecorder RoundResult::*> kinds[] = {
      {"read", &RoundResult::read},
      {"write", &RoundResult::write},
      {"history", &RoundResult::history}};
  for (const auto& [kind, member] : kinds) {
    fb::LatencyRecorder s = base.Pooled(member);
    std::printf("latency %-7s n=%zu mean=%.1f p50=%.1f p90=%.1f p99=%.1f "
                "p99.9=%.1f max=%.1f us\n",
                kind, s.count(), s.Mean(), s.Percentile(50), s.Percentile(90),
                s.Percentile(99), s.Percentile(99.9), s.Percentile(100));
  }
  // Count metrics are printed in both modes; they repeat for a seed.
  const MetricSet counts = base.Counts();
  for (const Metric& m : counts.all()) PrintMetricLine(m);

  const MetricSet e2e = EndToEnd(base, rss_mb);
  MetricSet reported = e2e;
  if (a.trace == 1) {
    PrintSpanTable(traced.spans);
    std::printf("trace file %s (%llu spans of the first round kept)\n",
                TracePath(a).c_str(),
                static_cast<unsigned long long>(traced.spans_written));
    reported = PerLayer(a.workload, base, traced, traced.spans);
  }
  for (const Metric& m : e2e.all()) PrintMetricLine(m);
  if (a.trace == 1) {
    for (const Metric& m : reported.all()) PrintMetricLine(m);
  }

  std::vector<std::string> errors = base.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  WriteResultFile(a.work_dir + "/result-" + a.workload + "-trace" +
                      std::to_string(a.trace) + ".json",
                  env, reported);

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(base.attempted() + traced.attempted());
  json += ", \"failed\": " + std::to_string(base.failed() + traced.failed());
  json += ", \"metrics\": " + MetricsJson(reported) + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
