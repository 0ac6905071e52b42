// LsmChunkStore: a persistent, log-structured-merge ChunkStore backend.
//
// The seed's in-memory LsmStore (kvstore/lsm.h) stood in for RocksDB in
// the paper's baselines; this promotes its structure — memtable, sorted
// runs with bloom filters and min/max fencing, size-tiered compaction —
// into a real on-disk backend implementing the full ChunkStore
// interface, selectable via DBOptions::store_backend (ROADMAP item 4c:
// one content-addressed engine, pluggable physical stores).
//
// Content addressing simplifies the classic LSM considerably:
//  * No overwrites and no tombstones — a cid is written at most once
//    (dedup happens at commit time against memtable + every run), so
//    runs never shadow each other and read order between runs is
//    irrelevant for correctness.
//  * Compaction is pure concatenation: merging runs re-sorts their
//    records into one file; no key resolution, no dropped entries.
//
// Layout under `dir`:
//  * wal-<seq>.fbw   — write-ahead log of the current memtable, group
//                      committed through the same GroupCommitter (and
//                      with the same record format) as LogChunkStore:
//                      [fixed32 len][cid 32B][chunk bytes]. A flush
//                      seals the WAL's contents into an SST and deletes
//                      it; replay after a crash is idempotent because
//                      commits dedup.
//  * sst-<seq>-t<tier>.fbs — immutable sorted runs (records in cid
//                      order, same record format). Each carries its
//                      size-tier in the name so compaction state
//                      survives restarts.
//
// Reads: block cache (shared AdmissionChunkCache, TinyLFU admission) →
// memtable → immutable (sealing) memtable → runs (min/max fence, then
// bloom, then binary search of the in-memory per-run index). Run files
// are read through a per-run handle outside the store mutex; compaction
// unlinks victim files but readers hold the Run alive via shared_ptr,
// so in-flight reads finish on the unlinked-but-open handle.
//
// Flush and compaction never perform file I/O under mu_: a flush seals
// the memtable into imm_ (still probed by readers), writes the SST with
// mu_ released, then republishes the run and clears imm_ under mu_
// again. Compaction likewise snapshots its victims under mu_, merges
// them unlocked, and swaps the run list under mu_. flush_mu_ serializes
// concurrent flushers; mu_.AssertNotHeld() in the writers turns the
// "no I/O under the memtable lock" rule into a debug abort.
//
// Crash recovery: scan SSTs (verifying every record's cid — tamper
// evidence, like LogChunkStore), then replay WALs oldest-first with the
// torn-tail-forgiven-only-at-the-very-end rule.

#ifndef FORKBASE_KVSTORE_LSM_CHUNK_STORE_H_
#define FORKBASE_KVSTORE_LSM_CHUNK_STORE_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunk/chunk_store.h"
#include "kvstore/bloom.h"
#include "util/mutex.h"

namespace fb {

struct LsmChunkStoreOptions {
  size_t memtable_bytes = 8u << 20;  // flush threshold
  size_t fanout = 4;                 // runs per tier before compaction
  int bloom_bits_per_key = 10;
  DurabilityPolicy durability = DurabilityPolicy::kBatch;
  // Byte budget for the shared admission-policy block cache fronting
  // SST reads (0 disables it).
  uint64_t block_cache_bytes = 32ull << 20;
};

// Backend-specific counters (the generic ones live in ChunkStoreStats).
struct LsmChunkStoreBackendStats {
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t runs = 0;         // current number of sorted runs
  uint64_t bloom_skips = 0;  // run probes skipped by bloom/fencing
  uint64_t wal_bytes = 0;    // bytes appended to WALs
  uint64_t sst_bytes = 0;    // bytes written to SSTs (incl. compaction)
};

class LsmChunkStore : public ChunkStore {
 public:
  static Result<std::unique_ptr<LsmChunkStore>> Open(
      const std::string& dir, LsmChunkStoreOptions options = {});

  ~LsmChunkStore() override;

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  Status PutBatch(const ChunkBatch& batch) override;
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override;
  ChunkStoreStats stats() const override;

  // Seals the current memtable into an SST now (tests / shutdown).
  Status Flush() EXCLUDES(mu_, flush_mu_);

  LsmChunkStoreBackendStats backend_stats() const;

 private:
  struct IndexEntry {
    Hash cid;
    uint64_t offset;  // of the record header
    uint32_t length;  // chunk bytes length
  };

  // An immutable sorted run. `entries` is sorted by cid; `file` is a
  // read handle onto the (possibly already unlinked) SST, guarded by
  // read_mu for seek+read pairs.
  struct Run {
    std::vector<IndexEntry> entries;
    std::unique_ptr<BloomFilter> bloom;
    Hash min_cid, max_cid;
    uint64_t bytes = 0;  // file size
    size_t tier = 0;
    uint64_t seq = 0;
    std::string path;
    std::FILE* file = nullptr;
    // Innermost (leaf) rank: held only for a seek+read pair, never
    // while any store lock is wanted.
    mutable Mutex read_mu{kRankStoreLeaf, "sst-read"};
    ~Run() {
      if (file != nullptr) std::fclose(file);
    }
    // nullptr when the run does not hold `cid`.
    const IndexEntry* Find(const Hash& cid) const;
  };
  using RunPtr = std::shared_ptr<Run>;

  // Defined in lsm_chunk_store.cc: the ctor needs the complete
  // AdmissionChunkCache type behind block_cache_.
  LsmChunkStore(std::string dir, LsmChunkStoreOptions options);

  Status Recover() EXCLUDES(mu_, flush_mu_);
  // Scans SSTs, replays WALs and re-logs the memtable; the trailing
  // over-threshold flush happens in Recover() with mu_ released.
  Status RecoverLocked() REQUIRES(mu_);
  Status ReplayWal(const std::string& path, bool forgive_torn_tail)
      REQUIRES(mu_);
  // Builds a Run by scanning an SST file, verifying every cid.
  Result<RunPtr> LoadRun(const std::string& path, uint64_t seq, size_t tier);

  // Commits one group drained by committer_: WAL append + memtable
  // publish under mu_, then (over threshold) a flush with mu_ released.
  Status CommitGroup(const GroupCommitter::Group& group)
      EXCLUDES(mu_, flush_mu_);
  // Appends the staged records to the WAL, syncs per policy, publishes
  // them into the memtable.
  Status CommitStaged(Bytes* buf,
                      std::vector<std::pair<Hash, const Chunk*>>* staged)
      REQUIRES(mu_);
  Status SyncWal() REQUIRES(mu_);

  // True when a memtable (live or sealing) or run holds `cid`.
  bool ContainsLocked(const Hash& cid) const REQUIRES(mu_);
  // Seals the memtable into a tier-0 SST, rotates the WAL, then
  // compacts size-tiered until every tier < fanout runs. File I/O runs
  // with mu_ released; flush_mu_ serializes concurrent flushers.
  Status FlushAndCompact() EXCLUDES(mu_, flush_mu_);
  Status CompactUntilStable() REQUIRES(flush_mu_) EXCLUDES(mu_);
  // Writes `sorted_chunks`' records into a new SST at `tier` and
  // returns its loaded Run. Pure file I/O: must not run under mu_.
  Result<RunPtr> WriteSst(
      std::vector<std::pair<Hash, const Chunk*>> sorted_chunks, size_t tier)
      EXCLUDES(mu_);
  Result<RunPtr> MergeRuns(const std::vector<RunPtr>& victims, size_t tier)
      EXCLUDES(mu_);

  std::string WalPath(uint64_t seq) const;
  std::string SstPath(uint64_t seq, size_t tier) const;

  const std::string dir_;
  const LsmChunkStoreOptions options_;

  // Serializes flush + compaction (the slow writers). Acquired before
  // mu_, never the other way around.
  Mutex flush_mu_{kRankStoreCombiner, "lsm-flush"};

  mutable Mutex mu_{kRankStore, "lsm-chunk-store"};
  std::unordered_map<Hash, Chunk, HashHasher> memtable_ GUARDED_BY(mu_);
  size_t memtable_logical_bytes_ GUARDED_BY(mu_) = 0;
  // The sealing memtable: populated at flush start, drained once its SST
  // is durable. Readers probe it under mu_; the flusher iterates it with
  // mu_ released, which is safe because it is mutated only at the two
  // lock-protected edges (seal, republish) and flush_mu_ admits one
  // flusher at a time.
  std::unordered_map<Hash, Chunk, HashHasher> imm_ GUARDED_BY(mu_);
  std::vector<RunPtr> runs_ GUARDED_BY(mu_);  // newest first
  std::atomic<uint64_t> next_seq_{0};         // shared by WALs and SSTs
  std::FILE* wal_ GUARDED_BY(mu_) = nullptr;
  uint64_t wal_seq_ GUARDED_BY(mu_) = 0;
  std::string wal_path_ GUARDED_BY(mu_);

  GroupCommitter committer_{"lsm-gc", [this](const GroupCommitter::Group& g) {
                              return CommitGroup(g);
                            }};

  std::unique_ptr<AdmissionChunkCache> block_cache_;

  AtomicChunkStoreStats stats_;
  mutable Mutex backend_stats_mu_{kRankStoreLeaf, "lsm-backend-stats"};
  LsmChunkStoreBackendStats backend_stats_ GUARDED_BY(backend_stats_mu_);
  mutable std::atomic<uint64_t> bloom_skips_{0};
};

}  // namespace fb

#endif  // FORKBASE_KVSTORE_LSM_CHUNK_STORE_H_
