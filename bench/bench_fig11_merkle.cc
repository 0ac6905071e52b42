// Figure 11: Commit latency distribution (CDF) with different Merkle
// structures: Hyperledger bucket trees with nb in {10, 1K, 1M}, the trie,
// and ForkBase's Map objects.
//
// Reproduced shape: few buckets => severe write amplification and a fat
// latency tail; many buckets behave until the workload outgrows them;
// the trie has low amplification but longer traversals; ForkBase Maps
// scale gracefully by adjusting tree height with bounded node sizes.

#include <memory>

#include "bench/bench_common.h"
#include "blockchain/forkbase_ledger.h"
#include "blockchain/kv_ledger.h"
#include "blockchain/workload.h"

namespace fb {
namespace {

Result<LatencyRecorder> CommitLatencies(LedgerBackend* ledger,
                                        uint64_t updates) {
  WorkloadOptions opts;
  opts.num_keys = updates;
  opts.num_ops = updates;
  opts.read_ratio = 0.0;  // commits dominated by writes
  opts.block_size = 50;
  opts.value_size = 100;
  FB_ASSIGN_OR_RETURN(WorkloadResult result, RunWorkload(ledger, opts));
  return result.commit_latency;
}

void PrintCdf(const char* name, LatencyRecorder* rec, bench::BenchJson* json) {
  std::string line(name);
  line.resize(16, ' ');
  json->Row().Str("structure", name);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    char buf[32];
    const double ms = rec->Percentile(p) / 1e3;
    std::snprintf(buf, sizeof(buf), " %9.3f", ms);
    line += buf;
    char key[32];
    std::snprintf(key, sizeof(key), "p%g_ms", p);
    json->Num(key, ms);
  }
  bench::Row("%s", line.c_str());
}

}  // namespace
}  // namespace fb

int main(int argc, char** argv) {
  const double scale = fb::bench::ScaleArg(argc, argv, 0.5);
  const uint64_t updates = static_cast<uint64_t>(40000 * scale);
  fb::bench::BenchJson json(argc, argv, "fig11_merkle");
  json.Config("scale", scale).Config("updates", static_cast<double>(updates));

  fb::bench::Header(
      "Figure 11: commit latency CDF by Merkle structure (ms at "
      "percentile)");
  fb::bench::Row("%-16s %9s %9s %9s %9s %9s %9s %9s", "Structure", "p10",
                 "p25", "p50", "p75", "p90", "p95", "p99");

  for (size_t nb : {size_t{10}, size_t{1000}, size_t{1000000}}) {
    fb::KvLedgerOptions opts;
    opts.merkle = fb::MerkleKind::kBucketTree;
    opts.num_buckets = nb;
    fb::KvLedger ledger(std::make_unique<fb::LsmAdapter>(), opts);
    auto lat = fb::CommitLatencies(&ledger, updates);
    fb::bench::Check(lat.status(), "bucket tree run");
    const std::string label =
        nb >= 1000000 ? "Rocksdb_1M" : nb >= 1000 ? "Rocksdb_1K"
                                                  : "Rocksdb_10";
    fb::PrintCdf(label.c_str(), &*lat, &json);
  }
  {
    fb::KvLedgerOptions opts;
    opts.merkle = fb::MerkleKind::kTrie;
    fb::KvLedger ledger(std::make_unique<fb::LsmAdapter>(), opts);
    auto lat = fb::CommitLatencies(&ledger, updates);
    fb::bench::Check(lat.status(), "trie run");
    fb::PrintCdf("Rocksdb_trie", &*lat, &json);
  }
  {
    fb::ForkBaseLedger ledger;
    auto lat = fb::CommitLatencies(&ledger, updates);
    fb::bench::Check(lat.status(), "forkbase run");
    fb::PrintCdf("ForkBase", &*lat, &json);
  }
  fb::bench::Row("(%llu updates per structure)",
                 static_cast<unsigned long long>(updates));
  return 0;
}
