// `ledger`: the paper's blockchain app (Figures 9/10). A Blockbench YCSB
// contract over an in-memory ForkBaseLedger: 100 B values, uniform keys,
// 50/50 reads and writes in 50-transaction blocks, plus one StateScan
// history read per block. A write is acknowledged by its block's Commit,
// so write latency is Commit latency.
//
// Checks: every Read equals a shadow model (buffered writes included),
// every StateScan equals the key's committed history, VerifyChain holds
// over the whole chain, and the final BlockScan equals the shadow state.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blockchain/block.h"
#include "blockchain/forkbase_ledger.h"
#include "trace.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeys = 4096;
constexpr size_t kValueBytes = 100;
constexpr size_t kBlockTxns = 50;
constexpr double kReadRatio = 0.5;
constexpr uint64_t kScanVersions = 4;
constexpr uint64_t kPreloadRounds = 4;
constexpr double kNominalTxnsPerSecond = 38000;
const char* const kContract = "ycsb";

std::string Key(uint64_t i) { return fb::MakeKey(i, 10, "acct"); }

struct Txn {
  uint32_t key;
  bool read;
  std::string value;  // writes only
};

struct Block {
  std::vector<Txn> txns;
  uint32_t scan_key;
};

struct Model {
  // Committed history per key, oldest first.
  std::vector<std::vector<std::string>> committed;
  // Latest visible value per key (committed or buffered).
  std::vector<std::string> latest;
  uint64_t user_bytes = 0;
};

std::unique_ptr<fb::ForkBaseLedger> Preload(uint64_t seed, Model* model,
                                            fb::Status* status,
                                            uint64_t* next_block) {
  auto ledger = std::make_unique<fb::ForkBaseLedger>();
  model->committed.assign(kKeys, {});
  model->latest.assign(kKeys, {});
  model->user_bytes = 0;
  fb::Rng rng(SubSeed(seed, 1));
  std::vector<fb::Transaction> batch;
  uint64_t block = 0;
  // Every key is written kPreloadRounds times, so history reads find
  // several versions from the first timed block on.
  for (uint64_t i = 0; i < kKeys * kPreloadRounds; ++i) {
    const uint64_t k = i % kKeys;
    const std::string v =
        fb::BytesToString(fb::MakeValue(rng.Next(), kValueBytes));
    *status = ledger->Write(kContract, Key(k), v);
    if (!status->ok()) return nullptr;
    model->committed[k].push_back(v);
    model->latest[k] = v;
    model->user_bytes += v.size();
    fb::Transaction t;
    t.contract = kContract;
    t.key = Key(k);
    t.op = fb::Transaction::Op::kPut;
    t.value = v;
    batch.push_back(std::move(t));
    if (batch.size() == kBlockTxns || k + 1 == kKeys) {
      *status = ledger->Commit(block++, batch);
      if (!status->ok()) return nullptr;
      batch.clear();
    }
  }
  *next_block = block;
  return ledger;
}

}  // namespace

RoundResult RunLedger(const RunConfig& cfg) {
  RoundResult r;
  r.env = {{"backend", "kMem (ForkBaseLedger's in-memory store)"},
           {"durability", "n/a (in-memory)"},
           {"client_threads", "1"},
           {"server_workers", "0"}};

  // Inputs, generated before any timing.
  const uint64_t n_txns = cfg.RoundOps(kNominalTxnsPerSecond);
  std::vector<Block> blocks;
  {
    fb::Rng rng(SubSeed(cfg.round_seed(), 2));
    for (uint64_t i = 0; i < n_txns; i += kBlockTxns) {
      Block b;
      const uint64_t n = std::min<uint64_t>(kBlockTxns, n_txns - i);
      for (uint64_t j = 0; j < n; ++j) {
        Txn t;
        t.key = static_cast<uint32_t>(rng.Uniform(kKeys));
        t.read = rng.Bernoulli(kReadRatio);
        if (!t.read) {
          t.value = fb::BytesToString(fb::MakeValue(rng.Next(), kValueBytes));
        }
        b.txns.push_back(std::move(t));
      }
      b.scan_key = static_cast<uint32_t>(rng.Uniform(kKeys));
      blocks.push_back(std::move(b));
    }
  }

  Model model;
  uint64_t block_no = 0;
  fb::Status preload_status;
  fb::Timer setup;
  std::unique_ptr<fb::ForkBaseLedger> ledger =
      Preload(cfg.round_seed(), &model, &preload_status, &block_no);
  r.setup_s = setup.ElapsedSeconds();
  if (ledger == nullptr) {
    r.Error("ledger preload failed: " + preload_status.ToString());
    return r;
  }
  fb::ChunkStore* store = ledger->db()->store();

  // --- timed phase -------------------------------------------------------
  if (cfg.traced) Tracer::Resume();
  const fb::ChunkStoreStats s0 = store->stats();
  const fb::HotHeadCacheStats h0 = ledger->db()->hot_head_stats();
  uint64_t writes = 0, scans = 0, scan_gets = 0, timed_user_bytes = 0;
  uint64_t request = 0;
  const double cpu0 = CpuSeconds();
  fb::Timer phase;
  for (const Block& b : blocks) {
    std::vector<fb::Transaction> txns;
    txns.reserve(b.txns.size());
    uint64_t block_writes = 0;
    for (const Txn& t : b.txns) {
      if (cfg.traced) Tracer::SetRequest(++request);
      ++r.attempted;
      const std::string key = Key(t.key);
      fb::Transaction tx;
      tx.contract = kContract;
      tx.key = key;
      if (t.read) {
        std::string got;
        fb::Timer op;
        fb::Status st;
        {
          ScopedSpan span("ledger.read");
          st = ledger->Read(kContract, key, &got);
        }
        r.read.Record(op.ElapsedMicros());
        if (!st.ok()) {
          ++r.failed;
        } else if (got != model.latest[t.key]) {
          r.Error("ledger read of " + key + " differs from the model");
        }
        tx.op = fb::Transaction::Op::kGet;
      } else {
        if (!ledger->Write(kContract, key, t.value).ok()) ++r.failed;
        model.latest[t.key] = t.value;
        tx.op = fb::Transaction::Op::kPut;
        tx.value = t.value;
        ++block_writes;
        timed_user_bytes += t.value.size();
      }
      txns.push_back(std::move(tx));
    }
    if (cfg.traced) Tracer::SetRequest(++request);
    fb::Timer commit;
    fb::Status st;
    {
      ScopedSpan span("ledger.commit");
      st = ledger->Commit(block_no, txns);
    }
    r.write.Record(commit.ElapsedMicros());
    if (!st.ok()) {
      r.failed += block_writes;
    } else {
      ++block_no;
      // The committed value of a key written twice in a block is the
      // last write; the model mirrors the ledger's write buffer.
      std::map<uint32_t, const std::string*> last;
      for (const Txn& t : b.txns) {
        if (!t.read) last[t.key] = &t.value;
      }
      for (const auto& [k, v] : last) model.committed[k].push_back(*v);
    }
    writes += block_writes;

    // One history read per block.
    if (cfg.traced) Tracer::SetRequest(++request);
    ++r.attempted;
    ++scans;
    const uint64_t g0 = store->stats().gets;
    fb::Timer op;
    fb::Result<std::vector<fb::StateVersion>> hist =
        fb::Status::Internal("unset");
    {
      ScopedSpan span("ledger.state_scan");
      hist = ledger->StateScan(kContract, Key(b.scan_key), kScanVersions);
    }
    r.history.Record(op.ElapsedMicros());
    scan_gets += store->stats().gets - g0;
    if (!hist.ok()) {
      ++r.failed;
    } else {
      const std::vector<std::string>& want = model.committed[b.scan_key];
      const size_t n = std::min<size_t>(kScanVersions, want.size());
      bool same = hist->size() == n;
      for (size_t i = 0; same && i < n; ++i) {
        same = (*hist)[i].value == want[want.size() - 1 - i];
      }
      if (!same) r.Error("ledger StateScan of " + Key(b.scan_key) +
                         " differs from the committed history");
    }
  }
  r.elapsed_s = phase.ElapsedSeconds();
  r.cpu_s = CpuSeconds() - cpu0;
  if (cfg.traced) Tracer::Stop();
  const fb::ChunkStoreStats s1 = store->stats();
  const fb::HotHeadCacheStats h1 = ledger->db()->hot_head_stats();

  // --- output checks -----------------------------------------------------
  const fb::Status chain = fb::VerifyChain(
      ledger->last_block(),
      [&](uint64_t n) { return ledger->LoadBlock(n); });
  if (!chain.ok()) r.Error("VerifyChain: " + chain.ToString());
  auto state = ledger->BlockScan(kContract, ledger->last_block());
  if (!state.ok()) {
    r.Error("final BlockScan: " + state.status().ToString());
  } else {
    bool same = state->size() == kKeys;
    for (uint64_t k = 0; same && k < kKeys; ++k) {
      auto it = state->find(Key(k));
      same = it != state->end() && it->second == model.committed[k].back();
    }
    if (!same) r.Error("final ledger state differs from the model");
  }

  // --- metrics -----------------------------------------------------------
  r.space_amp = Ratio(static_cast<double>(s1.stored_bytes),
                      static_cast<double>(model.user_bytes + timed_user_bytes));
  const double puts = static_cast<double>(s1.puts - s0.puts);
  r.layer.Set("chunk.put_bytes_per_user_byte",
              Ratio(static_cast<double>(s1.logical_bytes - s0.logical_bytes),
                    static_cast<double>(timed_user_bytes)),
              "ratio");
  r.layer.Set("chunk.puts_per_txn", Ratio(puts, static_cast<double>(writes)),
              "ratio");
  r.layer.Set("chunk.dedup_ratio",
              Ratio(static_cast<double>(s1.dedup_hits - s0.dedup_hits), puts),
              "ratio");
  r.layer.Set("chunk.gets_per_history_read",
              Ratio(static_cast<double>(scan_gets), static_cast<double>(scans)),
              "ratio");
  const double hh_hits = static_cast<double>(h1.hits - h0.hits);
  r.layer.Set("api.hot_head_hit_ratio",
              Ratio(hh_hits, hh_hits + static_cast<double>(h1.misses - h0.misses)),
              "ratio");
  return r;
}

}  // namespace perfbench
