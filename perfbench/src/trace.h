// Benchmark-side tracing: spans recorded around calls into the engine's
// public layers, plus the decorators that place those spans.
//
// A span has a name, start, end, parent span and request id. Spans are
// kept in per-thread buffers in memory and written out once the run
// ends. Each span's self time is its duration minus the time covered by
// the child spans that closed inside it on the same thread, so nesting
// is exact for synchronous calls. Spans opened on engine-owned threads
// (rpc server workers) have no client request id (0); the report shows
// them as per-layer busy totals.
//
// The decorators only exist in a traced pass: an untraced pass runs the
// engine without them, so traced minus untraced medians is the full
// tracing overhead.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/db.h"
#include "api/service.h"
#include "chunk/chunk_store.h"
#include "harness.h"
#include "util/timer.h"

namespace perfbench {

struct SpanStats {
  uint64_t count = 0;
  uint64_t with_request = 0;  // spans that carried a client request id
  double total_us = 0;
  double self_total_us = 0;
  fb::LatencyRecorder dur_us;
  fb::LatencyRecorder self_us;
  void Merge(const SpanStats& o);
};

// Hands span aggregates from a round's process to the parent, which
// merges every round's spans into one map.
void EncodeSpans(const std::map<std::string, SpanStats>& spans, Encoder* e);
void DecodeSpans(Decoder* d, std::map<std::string, SpanStats>* into);

class Tracer {
 public:
  // Clears every buffer; at most `keep_spans` raw spans will be kept for
  // the trace file (aggregates cover every span). Leaves recording off.
  static void Reset(size_t keep_spans);
  // Starts / stops recording without clearing (timed phases only).
  static void Resume();
  static void Stop();
  static bool enabled();
  // Request id for spans opened on this thread from now on (0 = none).
  static void SetRequest(uint64_t request);
  // Per-name aggregates over every thread. Call only once the threads
  // that recorded spans are idle or joined.
  static std::map<std::string, SpanStats> Collect();
  // Writes the kept spans as a Chrome trace-event JSON array.
  static bool WriteChromeTrace(const std::string& path, size_t* written);
};

// RAII span; a no-op unless the tracer is recording. `name` must be a
// string literal (spans are grouped by its address, then by text).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::enabled()) Begin(name);
  }
  ~ScopedSpan() {
    if (active_) End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();
  bool active_ = false;
};

// Chunk-layer decorator: spans "chunk.put" (one per Put/PutBatch call,
// i.e. one group commit) and "chunk.get" (one per Get/GetBatch call).
class TimingChunkStore : public fb::ChunkStore {
 public:
  explicit TimingChunkStore(std::unique_ptr<fb::ChunkStore> base)
      : base_(std::move(base)) {}
  using fb::ChunkStore::Put;
  fb::Status Put(const fb::Hash& cid, const fb::Chunk& chunk) override;
  fb::Status PutBatch(const fb::ChunkBatch& batch) override;
  fb::Status Get(const fb::Hash& cid, fb::Chunk* chunk) const override;
  fb::Status GetBatch(const std::vector<fb::Hash>& cids,
                      std::vector<fb::Chunk>* chunks) const override;
  bool Contains(const fb::Hash& cid) const override {
    return base_->Contains(cid);
  }
  fb::ChunkStoreStats stats() const override { return base_->stats(); }

 private:
  std::unique_ptr<fb::ChunkStore> base_;
};

// API-layer decorator: one span per Execute, named by command op
// ("api.get_value", "api.track", "api.put_blob", else "api.other").
class TimingService : public fb::ForkBaseService {
 public:
  explicit TimingService(fb::ForkBaseService* inner) : inner_(inner) {}
  fb::Reply Execute(const fb::Command& cmd) override;
  fb::ChunkStore* store() const override { return inner_->store(); }
  const fb::TreeConfig& tree_config() const override {
    return inner_->tree_config();
  }

 private:
  fb::ForkBaseService* inner_;
};

// Replication-layer decorator around the quorum commit barrier:
// "repl.quorum_wait" spans on the thread that commits.
class TimedCommitHook : public fb::ReplicationCommitHook {
 public:
  explicit TimedCommitHook(fb::ReplicationCommitHook* inner)
      : inner_(inner) {}
  fb::Status WaitCommitDurable() override;

 private:
  fb::ReplicationCommitHook* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
