// `wiki`: the paper's wiki app (Figures 13/14). ForkBaseWiki over
// EmbeddedService on a persistent kLog store under kNone durability:
// 16 KiB pages, 300 B in-place edits, zipf(0.9) page choice, and a mix of
// latest reads, reads k revisions back and SavePage edits. The set-up
// writes enough history that stored bytes exceed twice the 32 MiB block
// cache, so old-revision reads miss the cache while edits dedup.
//
// Checks: every read is byte-equal to the generator's copy of that
// revision (kept as the latest page plus an undo log of edits).
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "trace.h"
#include "util/random.h"
#include "util/timer.h"
#include "wiki/wiki.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kPages = 512;
constexpr size_t kPageBytes = 16 << 10;
constexpr size_t kEditBytes = 300;
constexpr double kZipfTheta = 0.9;
constexpr uint64_t kSetupEdits = 12000;
constexpr uint64_t kMaxBack = 16;
// Operation mix of the timed phase (the rest are edits).
constexpr double kLatestShare = 0.4;
constexpr double kHistoryShare = 0.3;
constexpr double kNominalOpsPerSecond = 15000;

std::string PageName(uint64_t i) { return fb::MakeKey(i, 6, "page/"); }

struct Edit {
  uint32_t offset;
  std::string bytes;
};

// Generator-side copy of every page: the latest content plus, per
// revision after the first, the bytes each edit overwrote.
struct PageModel {
  std::string latest;
  std::vector<Edit> undo;
  uint64_t revisions() const { return undo.size() + 1; }
  std::string Revision(uint64_t back) const {
    std::string s = latest;
    for (uint64_t i = 0; i < back; ++i) {
      const Edit& e = undo[undo.size() - 1 - i];
      s.replace(e.offset, e.bytes.size(), e.bytes);
    }
    return s;
  }
  // Applies `e` and returns the new content.
  const std::string& Apply(const Edit& e) {
    undo.push_back(Edit{e.offset, latest.substr(e.offset, e.bytes.size())});
    latest.replace(e.offset, e.bytes.size(), e.bytes);
    return latest;
  }
};

Edit MakeEdit(fb::Rng* rng) {
  Edit e;
  e.offset = static_cast<uint32_t>(rng->Uniform(kPageBytes - kEditBytes));
  e.bytes = fb::BytesToString(fb::MakeValue(rng->Next(), kEditBytes));
  return e;
}

enum class OpKind : uint8_t { kLatest, kHistory, kEdit };

struct Op {
  OpKind kind;
  uint32_t page;
  uint32_t back;  // kHistory: revisions back (clamped at run time)
  Edit edit;      // kEdit
};

// One opened store plus the wiki over it.
struct Site {
  std::unique_ptr<fb::EmbeddedService> embedded;
  std::unique_ptr<TimingService> timing;  // traced pass only
  std::unique_ptr<fb::ForkBaseWiki> wiki;
  std::vector<PageModel> pages;
  uint64_t user_bytes = 0;
  std::string dir;
  ~Site() {
    wiki.reset();
    timing.reset();
    embedded.reset();
    if (!dir.empty()) RemoveTree(dir);
  }
};

fb::Status Save(Site* site, uint32_t page, const std::string& content) {
  site->user_bytes += content.size();
  return site->wiki->SavePage(PageName(page), fb::Slice(content));
}

fb::DBOptions StoreOptions() {
  fb::DBOptions opts;
  opts.store_backend = fb::StoreBackend::kLog;
  opts.durability = fb::DurabilityPolicy::kNone;
  return opts;
}

fb::Status Preload(const RunConfig& cfg, const fb::DBOptions& opts,
                   const std::string& dir, Site* site) {
  site->dir = dir;
  RemoveTree(dir);
  fb::Result<std::unique_ptr<fb::ForkBase>> db =
      cfg.traced
          ? fb::ForkBase::OpenPersistent(
                dir, opts,
                [](std::unique_ptr<fb::ChunkStore> base)
                    -> std::unique_ptr<fb::ChunkStore> {
                  return std::make_unique<TimingChunkStore>(std::move(base));
                })
          : fb::ForkBase::OpenPersistent(dir, opts);
  if (!db.ok()) return db.status();
  site->embedded = std::make_unique<fb::EmbeddedService>(std::move(*db));
  fb::ForkBaseService* service = site->embedded.get();
  if (cfg.traced) {
    site->timing = std::make_unique<TimingService>(service);
    service = site->timing.get();
  }
  site->wiki = std::make_unique<fb::ForkBaseWiki>(service);

  fb::Rng rng(SubSeed(cfg.round_seed(), 11));
  site->pages.assign(kPages, {});
  for (uint32_t p = 0; p < kPages; ++p) {
    site->pages[p].latest =
        fb::BytesToString(fb::MakeValue(rng.Next(), kPageBytes));
    FB_RETURN_NOT_OK(Save(site, p, site->pages[p].latest));
  }
  // Every page gets a second revision, then zipf-skewed history.
  for (uint32_t p = 0; p < kPages; ++p) {
    FB_RETURN_NOT_OK(Save(site, p, site->pages[p].Apply(MakeEdit(&rng))));
  }
  fb::ZipfGenerator zipf(kPages, kZipfTheta, SubSeed(cfg.round_seed(), 12));
  for (uint64_t i = 0; i < kSetupEdits; ++i) {
    const uint32_t p = static_cast<uint32_t>(zipf.Next());
    FB_RETURN_NOT_OK(Save(site, p, site->pages[p].Apply(MakeEdit(&rng))));
  }
  return fb::Status::OK();
}

}  // namespace

RoundResult RunWiki(const RunConfig& cfg) {
  RoundResult r;
  const std::string dir = cfg.work_dir + "/wiki-store-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(cfg.round);
  const fb::DBOptions opts = StoreOptions();
  r.env = {{"backend", "kLog"},
           {"durability", "kNone"},
           {"store_dir", dir},
           {"store_fs", FilesystemType(cfg.work_dir)},
           {"block_cache_bytes", std::to_string(opts.block_cache_bytes)},
           {"client_threads", "1"},
           {"server_workers", "0"}};

  const uint64_t n_ops = cfg.RoundOps(kNominalOpsPerSecond);
  std::vector<Op> ops;
  {
    fb::Rng rng(SubSeed(cfg.round_seed(), 13));
    fb::ZipfGenerator zipf(kPages, kZipfTheta, SubSeed(cfg.round_seed(), 14));
    ops.reserve(n_ops);
    for (uint64_t i = 0; i < n_ops; ++i) {
      Op op;
      op.page = static_cast<uint32_t>(zipf.Next());
      const double u = rng.NextDouble();
      op.kind = u < kLatestShare ? OpKind::kLatest
                : u < kLatestShare + kHistoryShare ? OpKind::kHistory
                                                   : OpKind::kEdit;
      op.back = static_cast<uint32_t>(1 + rng.Uniform(kMaxBack));
      if (op.kind == OpKind::kEdit) op.edit = MakeEdit(&rng);
      ops.push_back(std::move(op));
    }
  }

  auto site = std::make_unique<Site>();
  fb::Timer setup;
  const fb::Status st = Preload(cfg, opts, dir, site.get());
  r.setup_s = setup.ElapsedSeconds();
  if (!st.ok()) {
    r.Error("wiki preload failed: " + st.ToString());
    return r;
  }
  fb::ForkBaseWiki& wiki = *site->wiki;
  fb::ChunkStore* store = site->embedded->store();
  fb::ForkBase* engine = site->embedded->engine();

  // --- timed phase -------------------------------------------------------
  if (cfg.traced) Tracer::Resume();
  const fb::ChunkStoreStats s0 = store->stats();
  const fb::HotHeadCacheStats h0 = engine->hot_head_stats();
  const uint64_t user0 = site->user_bytes;
  uint64_t edits = 0, histories = 0, history_gets = 0, request = 0;
  const double cpu0 = CpuSeconds();
  fb::Timer phase;
  for (const Op& op : ops) {
    if (cfg.traced) Tracer::SetRequest(++request);
    ++r.attempted;
    PageModel& page = site->pages[op.page];
    const std::string name = PageName(op.page);
    if (op.kind == OpKind::kEdit) {
      const std::string& content = page.Apply(op.edit);
      fb::Timer t;
      fb::Status st;
      {
        ScopedSpan span("wiki.save");
        st = Save(site.get(), op.page, content);
      }
      r.write.Record(t.ElapsedMicros());
      ++edits;
      if (!st.ok()) ++r.failed;
      continue;
    }
    const bool latest = op.kind == OpKind::kLatest;
    const uint64_t back =
        latest ? 0 : std::min<uint64_t>(op.back, page.revisions() - 1);
    const uint64_t g0 = latest ? 0 : store->stats().gets;
    fb::Result<std::string> got = fb::Status::Internal("unset");
    fb::Timer t;
    {
      ScopedSpan span(latest ? "wiki.read_latest" : "wiki.read_old");
      got = wiki.ReadPage(name, back);
    }
    (latest ? r.read : r.history).Record(t.ElapsedMicros());
    if (!latest) {
      ++histories;
      history_gets += store->stats().gets - g0;
    }
    if (!got.ok()) {
      ++r.failed;
    } else if (*got != page.Revision(back)) {
      r.Error("wiki read of " + name + " " + std::to_string(back) +
              " revisions back differs from the generator's copy");
    }
  }
  r.elapsed_s = phase.ElapsedSeconds();
  r.cpu_s = CpuSeconds() - cpu0;
  if (cfg.traced) Tracer::Stop();
  const fb::ChunkStoreStats s1 = store->stats();
  const fb::HotHeadCacheStats h1 = engine->hot_head_stats();

  // --- metrics -----------------------------------------------------------
  r.space_amp = Ratio(static_cast<double>(s1.stored_bytes),
                      static_cast<double>(site->user_bytes));
  const double timed_user = static_cast<double>(site->user_bytes - user0);
  const double puts = static_cast<double>(s1.puts - s0.puts);
  r.layer.Set("chunk.put_bytes_per_user_byte",
              Ratio(static_cast<double>(s1.logical_bytes - s0.logical_bytes),
                    timed_user),
              "ratio");
  r.layer.Set("chunk.puts_per_txn", Ratio(puts, static_cast<double>(edits)),
              "ratio");
  r.layer.Set("chunk.dedup_ratio",
              Ratio(static_cast<double>(s1.dedup_hits - s0.dedup_hits), puts),
              "ratio");
  r.layer.Set("chunk.gets_per_history_read",
              Ratio(static_cast<double>(history_gets),
                    static_cast<double>(histories)),
              "ratio");
  const double bc_hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  r.layer.Set("chunk.block_cache_hit_ratio",
              Ratio(bc_hits, bc_hits + static_cast<double>(s1.cache_misses -
                                                           s0.cache_misses)),
              "ratio");
  const double hh_hits = static_cast<double>(h1.hits - h0.hits);
  r.layer.Set("api.hot_head_hit_ratio",
              Ratio(hh_hits, hh_hits + static_cast<double>(h1.misses - h0.misses)),
              "ratio");
  r.env.push_back({"stored_mb", std::to_string(s1.stored_bytes >> 20)});
  return r;
}

}  // namespace perfbench
