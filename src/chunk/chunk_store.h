// Chunk storage (Section 4.4): a content-addressed key-value store whose
// key is a cid and whose value is the chunk's raw bytes.
//
// Because chunks are immutable and content-addressed, a Put of an existing
// cid is a dedup hit and returns immediately. Two implementations:
//
//  * MemChunkStore — striped (sharded) hash map, used by tests and as the
//    instances of the in-process cluster's chunk pool. Stripes let
//    concurrent writers touch disjoint shards without contending on one
//    global mutex.
//  * LogChunkStore — append-only log-structured segments on disk with an
//    in-memory cid -> (segment, offset) index; mirrors the paper's
//    persistence layout and supports recovery by replaying segments.
//
// The cid-partitioned pool of Section 4.6 (the second layer of the
// two-layer partitioning scheme) is ServletChunkStore over N
// MemChunkStores, in src/cluster/cluster.h.
//
// Batched writes (and every LogChunkStore / LsmChunkStore write) go
// through one GroupCommitter (chunk/group_commit.h) per store.
//
// All stores are thread-safe. The batched PutBatch/GetBatch entry points
// amortize locking on the bulk-load hot path: callers that produce many
// chunks (POS-tree construction, segment replication) should prefer them
// over per-chunk Put/Get.

#ifndef FORKBASE_CHUNK_CHUNK_STORE_H_
#define FORKBASE_CHUNK_CHUNK_STORE_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chunk/chunk.h"
#include "chunk/group_commit.h"
#include "util/mutex.h"
#include "util/status.h"

namespace fb {

class AdmissionChunkCache;

// Counters exposed for benchmarks (dedup ratios, Table 4, Fig 13/15/16).
// This is a plain snapshot type; stores maintain the live counters in
// AtomicChunkStoreStats and materialize a consistent-enough snapshot on
// stats().
struct ChunkStoreStats {
  uint64_t puts = 0;          // Put calls
  uint64_t dedup_hits = 0;    // Puts that found an existing cid
  uint64_t gets = 0;          // Get calls
  uint64_t chunks = 0;        // unique chunks currently stored
  uint64_t stored_bytes = 0;  // bytes of unique chunks (serialized)
  uint64_t logical_bytes = 0; // bytes as if every Put were stored
  // Read-cache counters (stores with a cache in front of a slow read
  // path: the ServletChunkStore pool-scan fallback, the LogChunkStore /
  // LsmChunkStore block cache; 0 elsewhere). Bytes mirror the counts:
  // hit_bytes are serialized bytes served from the cache, miss_bytes
  // serialized bytes fetched from the slow path and offered back.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_hit_bytes = 0;
  uint64_t cache_miss_bytes = 0;
  // Admission-policy counters (caches that can turn an insert away —
  // the block cache's TinyLFU duel; 0 for always-admit caches).
  uint64_t cache_admissions = 0;
  uint64_t cache_rejections = 0;
  // Server-to-server resolution counters (stores backed by a
  // PeerChunkResolver; 0 elsewhere). A fetch counts once per resolved
  // miss, not per peer asked. A negative is a miss every peer answered
  // authoritatively — the cid does not exist in the deployment; a
  // failure is a miss where some peer could not be asked, so absence
  // was never proven. Round trips count network calls, not chunks: the
  // batched fetch path resolves many cids per round trip.
  uint64_t peer_fetches = 0;
  uint64_t peer_fetch_failures = 0;
  uint64_t peer_fetch_negatives = 0;
  uint64_t peer_round_trips = 0;

  // Accumulates another snapshot (pool / replica / view aggregation).
  void Accumulate(const ChunkStoreStats& o) {
    puts += o.puts;
    dedup_hits += o.dedup_hits;
    gets += o.gets;
    chunks += o.chunks;
    stored_bytes += o.stored_bytes;
    logical_bytes += o.logical_bytes;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_hit_bytes += o.cache_hit_bytes;
    cache_miss_bytes += o.cache_miss_bytes;
    cache_admissions += o.cache_admissions;
    cache_rejections += o.cache_rejections;
    peer_fetches += o.peer_fetches;
    peer_fetch_failures += o.peer_fetch_failures;
    peer_fetch_negatives += o.peer_fetch_negatives;
    peer_round_trips += o.peer_round_trips;
  }
};

// Lock-free live counters shared by all store implementations. Individual
// increments are atomic; a snapshot taken while writers are active may mix
// counters from different instants, but once writers quiesce the snapshot
// is exact (the invariant the concurrency tests assert).
class AtomicChunkStoreStats {
 public:
  void RecordPut(uint64_t serialized_bytes, bool dedup_hit) {
    puts_.fetch_add(1, std::memory_order_relaxed);
    logical_bytes_.fetch_add(serialized_bytes, std::memory_order_relaxed);
    if (dedup_hit) {
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      chunks_.fetch_add(1, std::memory_order_relaxed);
      stored_bytes_.fetch_add(serialized_bytes, std::memory_order_relaxed);
    }
  }
  // const: Get() is logically read-only on the store but still counted.
  void RecordGet() const { gets_.fetch_add(1, std::memory_order_relaxed); }
  // Recovery re-indexes existing chunks without counting a logical Put.
  void RecordRecoveredChunk(uint64_t serialized_bytes) {
    chunks_.fetch_add(1, std::memory_order_relaxed);
    stored_bytes_.fetch_add(serialized_bytes, std::memory_order_relaxed);
  }

  ChunkStoreStats Snapshot() const {
    ChunkStoreStats s;
    s.puts = puts_.load(std::memory_order_relaxed);
    s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
    s.gets = gets_.load(std::memory_order_relaxed);
    s.chunks = chunks_.load(std::memory_order_relaxed);
    s.stored_bytes = stored_bytes_.load(std::memory_order_relaxed);
    s.logical_bytes = logical_bytes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> puts_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  mutable std::atomic<uint64_t> gets_{0};
  std::atomic<uint64_t> chunks_{0};
  std::atomic<uint64_t> stored_bytes_{0};
  std::atomic<uint64_t> logical_bytes_{0};
};

class ChunkStore;

// Accumulates chunks and writes them through ChunkStore::PutBatch in
// fixed-size batches — the shared building block for bulk producers
// (POS-tree leaf chunker, index-level builder). Callers must Flush()
// before any buffered chunk is read back; a writer abandoned without
// Flush() simply never stores its tail (harmless: chunks are
// content-addressed, so nothing dangles).
class BatchedChunkWriter {
 public:
  static constexpr size_t kDefaultBatchSize = 32;

  explicit BatchedChunkWriter(ChunkStore* store,
                              size_t batch_size = kDefaultBatchSize)
      : store_(store), batch_size_(batch_size == 0 ? 1 : batch_size) {}

  // Buffers `chunk` and returns its cid; flushes when the buffer fills.
  Result<Hash> Add(Chunk chunk);

  // Writes all buffered chunks.
  Status Flush();

 private:
  ChunkStore* store_;
  size_t batch_size_;
  ChunkBatch pending_;
};

class ChunkStore {
 public:
  virtual ~ChunkStore() = default;

  // Stores `chunk` under its cid. Verifies cid integrity when the caller
  // provides one (tamper evidence at the chunk level). Dedups silently.
  virtual Status Put(const Hash& cid, const Chunk& chunk) = 0;

  // Convenience: computes the cid, stores, and returns it.
  Result<Hash> Put(const Chunk& chunk) {
    Hash cid = chunk.ComputeCid();
    Status s = Put(cid, chunk);
    if (!s.ok()) return s;
    return cid;
  }

  // Fetches the chunk for `cid`; NotFound if absent.
  virtual Status Get(const Hash& cid, Chunk* chunk) const = 0;

  virtual bool Contains(const Hash& cid) const = 0;

  // Stores every pair in `batch`, dedup-counting each element exactly as
  // the equivalent sequence of Put calls would. Implementations override
  // this to acquire each lock once per batch instead of once per chunk;
  // the default simply loops over Put.
  virtual Status PutBatch(const ChunkBatch& batch);

  // Fetches `cids` in order into `*chunks` (resized to cids.size()).
  // Fails with NotFound on the first absent cid.
  virtual Status GetBatch(const std::vector<Hash>& cids,
                          std::vector<Chunk>* chunks) const;

  virtual ChunkStoreStats stats() const = 0;
};

// In-memory content-addressed store, striped over `n_shards` independent
// (mutex, hash map) pairs. Shard choice uses a different 64-bit slice of
// the cid than the cluster pool's partitioner, so striping stays uniform
// even inside a single pool partition. Thread-safe.
//
// PutBatch group-commits through the store's GroupCommitter: the
// combiner inserts each drained group in a single pass that takes each
// shard's lock once — the LogChunkStore discipline minus durability.
// N servlet threads flushing coalesced put-groups into one pool
// instance contend on the queue mutex only, not on every stripe. A
// single Put takes its stripe directly.
class MemChunkStore : public ChunkStore {
 public:
  static constexpr size_t kDefaultShards = 16;

  explicit MemChunkStore(size_t n_shards = kDefaultShards);

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  Status PutBatch(const ChunkBatch& batch) override;
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override;
  ChunkStoreStats stats() const override;

  size_t n_shards() const { return shards_.size(); }

  // Invokes `fn` for every stored chunk (snapshot of cids; used by
  // anti-entropy repair and storage audits).
  void ForEach(const std::function<void(const Hash&, const Chunk&)>& fn) const;

 private:
  struct Shard {
    // Same-rank: CommitGroup/GetBatch/ForEach visit shards one at a time
    // in index order (never nested), but the sibling walk is flagged so
    // a future hand-over-hand pass stays legal.
    mutable Mutex mu{kRankStore, "mem-shard", kSameRankOk};
    std::unordered_map<Hash, Chunk, HashHasher> chunks GUARDED_BY(mu);
  };

  size_t ShardIndex(const Hash& cid) const {
    return static_cast<size_t>(cid.Mid64() % shards_.size());
  }

  // Inserts one drained group: groups records by shard, then takes each
  // shard's lock exactly once.
  void CommitGroup(const GroupCommitter::Group& group);

  std::vector<std::unique_ptr<Shard>> shards_;
  GroupCommitter committer_{"mem-gc", [this](const GroupCommitter::Group& g) {
                              CommitGroup(g);
                              return Status::OK();
                            }};
  AtomicChunkStoreStats stats_;
};

// When appended chunks become durable on disk (LogChunkStore):
//  * kNone   — never fsync; data reaches the OS lazily (fastest, survives
//              process crashes but not power loss).
//  * kBatch  — the group-commit combiner fsyncs once per flushed group:
//              every Put/PutBatch is durable when it returns, at one fsync
//              amortized over all concurrently-committing writers.
//  * kAlways — fsync after every individual record (strictest; defeats
//              group-commit amortization by design).
//  * kQuorum — local behavior of kBatch, plus the engine-level commit
//              barrier: a ForkBase mutation does not return until a
//              majority of the replication group has acked the log
//              records it produced (see src/replication/). Stores treat
//              it exactly as kBatch; the quorum wait lives above them.
enum class DurabilityPolicy { kNone, kBatch, kAlways, kQuorum };

struct LogStoreOptions {
  uint64_t segment_size = 64ull << 20;
  DurabilityPolicy durability = DurabilityPolicy::kBatch;
  // Byte budget for the AdmissionChunkCache fronting disk reads
  // (0 disables it). Read-through: a Get checks the cache before
  // touching the segment index and offers the chunk back after a disk
  // read; the TinyLFU admission duel keeps one-touch scans out.
  uint64_t block_cache_bytes = 32ull << 20;
};

// Log-structured persistent store. Chunks are appended to segment files
// ("<dir>/seg-<n>.fbl"); a segment rolls over at segment_size bytes. The
// cid index is rebuilt on Open() by scanning segments, which also verifies
// every record's cid (corruption detection). A truncated record at the
// very tail of the last segment — the footprint of a crash mid
// group-commit — is cut off and recovery keeps every fully-flushed record;
// a short or tampered record anywhere else is still Corruption.
//
// Thread-safe, with group commit on the write path: every Put / PutBatch
// goes through the store's GroupCommitter, whose combiner writes each
// drained group with a single fwrite and applies the durability policy
// once per group, so the durable write path does not serialize per
// chunk. A writer returns only after its own records are committed.
// Reads resolve the record location under the index lock but perform
// file I/O outside it, so Gets of already-flushed records proceed in
// parallel with appends.
//
// Record format: [fixed32 len][cid 32B][chunk bytes (len)]
class LogChunkStore : public ChunkStore {
 public:
  static constexpr uint64_t kDefaultSegmentSize = 64ull << 20;

  // Opens (creating if necessary) a store rooted at `dir`.
  static Result<std::unique_ptr<LogChunkStore>> Open(const std::string& dir,
                                                     LogStoreOptions options);
  static Result<std::unique_ptr<LogChunkStore>> Open(
      const std::string& dir, uint64_t segment_size = kDefaultSegmentSize);

  ~LogChunkStore() override;

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  Status PutBatch(const ChunkBatch& batch) override;
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override;
  ChunkStoreStats stats() const override;

  // Forces buffered writes to the OS.
  Status Flush();

 private:
  struct Location {
    uint32_t segment;
    uint64_t offset;  // of the record header
    uint32_t length;  // chunk bytes length
  };

  // Defined in chunk_store.cc: the ctor/dtor pair needs the complete
  // AdmissionChunkCache type behind block_cache_.
  LogChunkStore(std::string dir, LogStoreOptions options);

  Status Recover() EXCLUDES(mu_);
  Status RollSegment() REQUIRES(mu_);
  // Writes one drained group: dedups against the index, packs the fresh
  // records into contiguous buffers (one fwrite each), applies the
  // durability policy, publishes index entries. Takes mu_.
  Status CommitGroup(const GroupCommitter::Group& group) EXCLUDES(mu_);
  // Writes the packed records in *buf with one fwrite, syncs per
  // policy, then publishes the staged index entries and clears all four
  // staging containers. CommitGroup's inner step.
  Status FlushStaged(Bytes* buf,
                     std::vector<std::pair<Hash, Location>>* staged,
                     std::vector<uint64_t>* staged_sizes,
                     std::unordered_set<Hash, HashHasher>* staged_cids)
      REQUIRES(mu_);
  // fflush + fsync of the active segment.
  Status SyncActive() REQUIRES(mu_);
  // Reads a record's body from its segment file. Safe to call without
  // mu_ once the record is known to be flushed (records are immutable
  // and segments are never deleted).
  Status ReadRecord(const Location& loc, Chunk* chunk) const;
  std::string SegmentPath(uint32_t n) const;

  std::string dir_;
  LogStoreOptions options_;

  mutable Mutex mu_{kRankStore, "log-store"};
  std::unordered_map<Hash, Location, HashHasher> index_ GUARDED_BY(mu_);
  std::FILE* active_ GUARDED_BY(mu_) = nullptr;
  uint32_t active_id_ GUARDED_BY(mu_) = 0;
  uint64_t active_off_ GUARDED_BY(mu_) = 0;

  // CommitGroup runs on the combiner with no queue lock held; a failed
  // group's I/O error stays sticky and fails the store.
  GroupCommitter committer_{"log-gc", [this](const GroupCommitter::Group& g) {
                              return CommitGroup(g);
                            }};

  // Read-through block cache over the segment files (nullptr when
  // options_.block_cache_bytes == 0). Consulted before the index,
  // filled after disk reads; never populated on the write path, so a
  // bulk load cannot flush it.
  std::unique_ptr<AdmissionChunkCache> block_cache_;

  AtomicChunkStoreStats stats_;
};

}  // namespace fb

#endif  // FORKBASE_CHUNK_CHUNK_STORE_H_
