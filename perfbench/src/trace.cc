#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RawSpan {
  const char* name;
  uint32_t thread;
  uint64_t id, parent, request;
  int64_t start_ns, end_ns, self_ns;
};

struct Frame {
  const char* name;
  uint64_t id, parent, request;
  int64_t start_ns;
  int64_t child_ns;
};

struct ThreadBuf {
  uint32_t index = 0;
  uint64_t seq = 0;
  uint64_t request = 0;
  std::vector<Frame> stack;
  std::vector<RawSpan> kept;
  std::unordered_map<const char*, SpanStats> agg;
};

std::atomic<bool> g_enabled{false};
std::atomic<size_t> g_kept{0};
size_t g_keep_limit = 0;
std::mutex g_mu;  // guards the buffer registry

std::vector<std::unique_ptr<ThreadBuf>>& Buffers() {
  static auto* bufs = new std::vector<std::unique_ptr<ThreadBuf>>();
  return *bufs;
}

thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf* Local() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto buf = std::make_unique<ThreadBuf>();
    buf->index = static_cast<uint32_t>(Buffers().size());
    t_buf = buf.get();
    Buffers().push_back(std::move(buf));
  }
  return t_buf;
}

// The ops the wiki issues get a span of their own; the rest share one.
const char* ApiSpanName(fb::CommandOp op) {
  switch (op) {
    case fb::CommandOp::kGetValue: return "api.get_value";
    case fb::CommandOp::kTrack: return "api.track";
    case fb::CommandOp::kPutBlob: return "api.put_blob";
    default: return "api.other";
  }
}

}  // namespace

void SpanStats::Merge(const SpanStats& o) {
  count += o.count;
  with_request += o.with_request;
  total_us += o.total_us;
  self_total_us += o.self_total_us;
  Append(&dur_us, o.dur_us);
  Append(&self_us, o.self_us);
}

void EncodeSpans(const std::map<std::string, SpanStats>& spans, Encoder* e) {
  e->U64(spans.size());
  for (const auto& [name, s] : spans) {
    e->Str(name);
    e->U64(s.count);
    e->U64(s.with_request);
    e->F64(s.total_us);
    e->F64(s.self_total_us);
    e->Samples(s.dur_us);
    e->Samples(s.self_us);
  }
}

void DecodeSpans(Decoder* d, std::map<std::string, SpanStats>* into) {
  for (uint64_t n = d->U64(); d->ok() && n > 0; --n) {
    const std::string name = d->Str();
    SpanStats s;
    s.count = d->U64();
    s.with_request = d->U64();
    s.total_us = d->F64();
    s.self_total_us = d->F64();
    s.dur_us = d->Samples();
    s.self_us = d->Samples();
    (*into)[name].Merge(s);
  }
}

void Tracer::Reset(size_t keep_spans) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& buf : Buffers()) {
    buf->stack.clear();
    buf->kept.clear();
    buf->agg.clear();
    buf->request = 0;
  }
  g_keep_limit = keep_spans;
  g_kept.store(0);
  g_enabled.store(false);
}

void Tracer::Resume() { g_enabled.store(true); }

void Tracer::Stop() { g_enabled.store(false); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRequest(uint64_t request) { Local()->request = request; }

void ScopedSpan::Begin(const char* name) {
  ThreadBuf* buf = Local();
  const uint64_t id = (static_cast<uint64_t>(buf->index + 1) << 40) |
                      ++buf->seq;
  const uint64_t parent = buf->stack.empty() ? 0 : buf->stack.back().id;
  buf->stack.push_back(Frame{name, id, parent, buf->request, NowNs(), 0});
  active_ = true;
}

void ScopedSpan::End() {
  ThreadBuf* buf = Local();
  if (buf->stack.empty()) return;  // the tracer restarted mid-span
  const Frame f = buf->stack.back();
  buf->stack.pop_back();
  const int64_t end = NowNs();
  const int64_t dur = end - f.start_ns;
  const int64_t self = dur - f.child_ns;
  if (!buf->stack.empty()) buf->stack.back().child_ns += dur;
  SpanStats& s = buf->agg[f.name];
  ++s.count;
  if (f.request != 0) ++s.with_request;
  s.total_us += static_cast<double>(dur) * 1e-3;
  s.self_total_us += static_cast<double>(self) * 1e-3;
  s.dur_us.Record(static_cast<double>(dur) * 1e-3);
  s.self_us.Record(static_cast<double>(self) * 1e-3);
  if (g_kept.fetch_add(1, std::memory_order_relaxed) < g_keep_limit) {
    buf->kept.push_back(RawSpan{f.name, buf->index, f.id, f.parent,
                                f.request, f.start_ns, end, self});
  }
}

std::map<std::string, SpanStats> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SpanStats> out;
  for (const auto& buf : Buffers()) {
    for (const auto& [name, s] : buf->agg) out[name].Merge(s);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path, size_t* written) {
  std::vector<RawSpan> spans;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& buf : Buffers()) {
      spans.insert(spans.end(), buf->kept.begin(), buf->kept.end());
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const RawSpan& a, const RawSpan& b) {
              return a.start_ns < b.start_ns;
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const RawSpan& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"self_us\":%.3f}}%s\n",
                 s.name, s.thread, static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.self_ns) * 1e-3,
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  const bool ok = std::fclose(f) == 0;
  if (written != nullptr) *written = spans.size();
  return ok;
}

fb::Status TimingChunkStore::Put(const fb::Hash& cid, const fb::Chunk& chunk) {
  ScopedSpan span("chunk.put");
  return base_->Put(cid, chunk);
}

fb::Status TimingChunkStore::PutBatch(const fb::ChunkBatch& batch) {
  ScopedSpan span("chunk.put");
  return base_->PutBatch(batch);
}

fb::Status TimingChunkStore::Get(const fb::Hash& cid,
                                 fb::Chunk* chunk) const {
  ScopedSpan span("chunk.get");
  return base_->Get(cid, chunk);
}

fb::Status TimingChunkStore::GetBatch(const std::vector<fb::Hash>& cids,
                                      std::vector<fb::Chunk>* chunks) const {
  ScopedSpan span("chunk.get");
  return base_->GetBatch(cids, chunks);
}

fb::Reply TimingService::Execute(const fb::Command& cmd) {
  ScopedSpan span(ApiSpanName(cmd.op));
  return inner_->Execute(cmd);
}

fb::Status TimedCommitHook::WaitCommitDurable() {
  ScopedSpan span("repl.quorum_wait");
  return inner_->WaitCommitDurable();
}

}  // namespace perfbench
