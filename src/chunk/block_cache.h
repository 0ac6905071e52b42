// AdmissionChunkCache: the chunk layer's one chunk cache — a sharded,
// byte-capped cache with a TinyLFU-style admission policy. It fronts
// the LogChunkStore / LsmChunkStore disk reads (the block cache), the
// ServletChunkStore pool-scan / peer-fetch fallback and the
// RemoteChunkStore client side of the wire.
//
// Why not plain LRU? Plain LRU is scan-vulnerable: a single
// pass over a large dataset (bulk GetBatch, a POS-tree diff across an
// old version) evicts the whole hot set while inserting chunks that
// will never be read again. This cache keeps a compact frequency
// sketch (a count-min sketch with periodic halving — the "TinyLFU"
// aging scheme) over every cid it has *seen*, and on insertion under
// pressure admits the incoming chunk only if its estimated frequency
// beats the eviction victim's. One-touch scan chunks lose that duel
// and are rejected without disturbing residents.
//
// Each shard is a segmented LRU: new admissions enter a probation
// segment; a second hit promotes to the protected segment (capped at
// ~80% of the shard budget, overflow demotes back to probation). The
// eviction victim is always the probation tail, so even admitted
// once-hit chunks cannot flush the protected hot set.
//
// Chunks are immutable and content-addressed, so there is no
// invalidation — entries leave only by eviction.
//
// Thread-safe: one mutex per shard (cid-sliced), frequency sketch and
// stat counters are shard-local under the same mutex, exposed totals
// are aggregated on demand.

#ifndef FORKBASE_CHUNK_BLOCK_CACHE_H_
#define FORKBASE_CHUNK_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chunk/chunk.h"
#include "util/mutex.h"

namespace fb {

struct ChunkStoreStats;

struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t hit_bytes = 0;   // serialized bytes served from the cache
  uint64_t miss_bytes = 0;  // serialized bytes fetched after a miss
                            // (counted at insertion attempt time)
  uint64_t admissions = 0;  // inserts that entered the cache
  uint64_t rejections = 0;  // inserts turned away by the admission duel
  uint64_t evictions = 0;   // residents displaced to fit admissions
};

class AdmissionChunkCache {
 public:
  static constexpr size_t kDefaultCapacityBytes = 32u << 20;
  // Budget of the caches that front a network hop or a pool scan rather
  // than a disk: the ServletChunkStore fallback (fixed) and the
  // RemoteChunkStore client (its default).
  static constexpr size_t kFallbackCapacityBytes = 8u << 20;
  static constexpr size_t kDefaultShards = 8;

  explicit AdmissionChunkCache(size_t capacity_bytes = kDefaultCapacityBytes,
                               size_t n_shards = kDefaultShards);

  // Copies the cached chunk into *chunk and bumps its frequency and
  // recency (probation hit promotes to protected). Counts hit/miss.
  bool Get(const Hash& cid, Chunk* chunk);

  // Offers a chunk for admission. Under byte pressure the incoming
  // chunk duels the probation-tail victim on sketch frequency; the
  // loser stays out (rejection) or leaves (eviction). A chunk larger
  // than a whole shard's budget is never cached.
  void Put(const Hash& cid, const Chunk& chunk);

  bool Contains(const Hash& cid) const;

  size_t capacity_bytes() const { return capacity_; }
  size_t size_bytes() const;
  size_t entries() const;
  BlockCacheStats stats() const;
  // Adds this cache's counters to the cache_* fields of `*out` — the
  // one place a store folds its cache into its ChunkStoreStats.
  void AddStatsTo(ChunkStoreStats* out) const;

 private:
  // A 4-row count-min sketch with 8-bit saturating counters, halved
  // ("aged") once the number of recorded touches reaches sample_size —
  // keeps frequency estimates fresh so yesterday's hot set cannot
  // permanently outvote today's. Shard-local; caller holds the shard
  // mutex.
  class FrequencySketch {
   public:
    void Reset(size_t counters);  // rounded up to a power of two
    void Touch(uint64_t cid_hash);
    uint32_t Estimate(uint64_t cid_hash) const;

   private:
    void Age();
    std::vector<uint8_t> rows_[4];
    uint64_t mask_ = 0;
    uint64_t touches_ = 0;
    uint64_t sample_size_ = 0;
  };

  struct Entry {
    Hash cid;
    Chunk chunk;
    size_t charge = 0;
    bool is_protected = false;
  };
  using EntryList = std::list<Entry>;

  struct Shard {
    mutable Mutex mu{kRankCache, "block-cache-shard"};
    EntryList probation GUARDED_BY(mu);  // front = most recent
    EntryList protected_seg GUARDED_BY(mu);
    std::unordered_map<Hash, EntryList::iterator, HashHasher> index
        GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
    size_t protected_bytes GUARDED_BY(mu) = 0;
    FrequencySketch sketch GUARDED_BY(mu);
    BlockCacheStats stats GUARDED_BY(mu);
  };

  Shard& ShardFor(const Hash& cid) const {
    return *shards_[static_cast<size_t>(cid.Mid64()) % shards_.size()];
  }

  // Frees probation-tail entries until `incoming` fits; returns false
  // (rejecting the insert) if the duel says the incoming chunk is
  // colder than a victim it would displace.
  bool MakeRoom(Shard& s, uint64_t incoming_hash, size_t incoming_charge)
      REQUIRES(s.mu);
  // Caps the protected segment, demoting overflow.
  void BalanceProtected(Shard& s) REQUIRES(s.mu);

  const size_t capacity_;
  const size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fb

#endif  // FORKBASE_CHUNK_BLOCK_CACHE_H_
