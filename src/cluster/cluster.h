// Distributed deployment simulation (Sections 4.1 / 4.6).
//
// A ForkBase cluster is a master + request dispatcher + N servlets, each
// co-located with a chunk-storage instance. The dispatcher routes requests
// by key hash (layer 1); each servlet writes its data chunks into the
// cluster-wide chunk storage pool partitioned by cid (layer 2), while meta
// chunks stay in the servlet's local instance. Cryptographic cids spread
// chunks evenly even under severely skewed key distributions — the effect
// measured in Figure 15 (1LP vs 2LP).
//
// Cluster simulates the nodes in-process: each servlet is an embedded
// ForkBase engine with its own striped BranchManager (src/branch), so
// shared-nothing scaling (Figure 8) is exercised with real threads and
// commits on independent keys never contend, within or across servlets.
// The same servlet chunk view runs standalone in `forkbased` as a pool
// of one, where fetches from peer servlets stand in for the shared pool.
// A ClusterClient (client.h) drives one deployment or the other: all
// shards in-process, or all behind remote endpoints.

#ifndef FORKBASE_CLUSTER_CLUSTER_H_
#define FORKBASE_CLUSTER_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/db.h"
#include "chunk/block_cache.h"
#include "chunk/chunk_store.h"

namespace fb {

struct ClusterOptions {
  size_t num_servlets = 4;
  DBOptions db;
  // true  => two-layer partitioning (2LP): data chunks spread by cid.
  // false => one-layer partitioning (1LP): all chunks stay servlet-local.
  bool two_layer_partitioning = true;
};

// The servlet the dispatcher routes `key` to in an `n`-shard layout —
// a pure function shared by the in-process Cluster and remote-endpoint
// clients, so every deployment agrees on key placement.
size_t ShardOfKey(const std::string& key, size_t n);

// Writes `batch` into `instances`, entry i into instances[dst[i]], with
// one PutBatch per instance touched (so each instance's striped locks
// are taken once per batch). A batch bound for one instance is forwarded
// without copying.
Status PutBatchByInstance(const std::vector<ChunkStore*>& instances,
                          const ChunkBatch& batch,
                          const std::vector<size_t>& dst);

// Reads `cid` from instances[first], then from every other instance in
// order; NotFound only when all of them miss.
Status GetFromAny(const std::vector<ChunkStore*>& instances, size_t first,
                  const Hash& cid, Chunk* chunk);

class PeerChunkResolver;

// One servlet's chunk store view: node `local_id` over a cid-partitioned
// pool of chunk-storage instances (Section 4.6). Meta chunks pin to the
// local instance; data chunks route to the pool by cid (2LP) or stay
// local (1LP). Every instance of the pool is readable from every node,
// so chunks another placement wrote (client-built trees, delegated
// construction) stay reachable.
//
// An in-process Cluster node views the shared pool; a standalone servlet
// process (`forkbased`) is a pool of one — its own store — whose misses
// go to its peers instead. Either way reads degrade in the same order:
// cid-routed instance -> local instance -> byte-capped fallback cache ->
// the rest of the pool -> peer fetch. A peer resolver answer of
// Unavailable (a peer could not be asked) propagates as Unavailable,
// never as NotFound — absence was not proven. Hit/miss and peer-fetch
// counts surface in stats().
class ServletChunkStore : public ChunkStore {
 public:
  // Node `local_id` of an in-process cluster over `instances` (not
  // owned; they outlive the view). No peer resolver: the pool is the
  // whole cluster.
  ServletChunkStore(std::vector<ChunkStore*> instances, size_t local_id,
                    bool two_layer)
      : instances_(std::move(instances)),
        local_id_(local_id),
        two_layer_(two_layer),
        peers_(nullptr) {}

  // Standalone servlet process: a pool of one, owning `local`; misses
  // consult the cache, then `peers` (optional; it must outlive the view).
  ServletChunkStore(std::unique_ptr<ChunkStore> local,
                    PeerChunkResolver* peers)
      : owned_local_(std::move(local)),
        instances_{owned_local_.get()},
        local_id_(0),
        two_layer_(false),
        peers_(peers) {}

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  // Groups the batch by destination instance (meta -> local, data ->
  // cid-routed), as on the embedded bulk-load path.
  Status PutBatch(const ChunkBatch& batch) override;
  // The batched read: every cid that misses in-process is resolved in
  // ONE peer fetch batch, so a traversal of a remote tree costs round
  // trips proportional to peers asked, not chunks missed.
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override;
  ChunkStoreStats stats() const override;

  // Everything stored in-process — what this servlet serves to PEERS
  // asking over kChunkPeerGet. Never consults cache or resolver, so two
  // servlets missing the same cid cannot ping-pong.
  Status GetLocal(const Hash& cid, Chunk* chunk) const;
  // This node's own instance.
  ChunkStore* local_store() const { return instances_[local_id_]; }

 private:
  size_t DataInstanceOf(const Hash& cid) const {
    if (!two_layer_) return local_id_;
    return static_cast<size_t>(cid.Low64() % instances_.size());
  }
  // Where a write of `chunk` lands: meta chunks are only read by the
  // servlet that owns the key, so they always stay local.
  size_t InstanceOf(const Hash& cid, const Chunk& chunk) const {
    return chunk.type() == ChunkType::kMeta ? local_id_ : DataInstanceOf(cid);
  }
  // Everything reachable without the network: the expected location(s),
  // the fallback cache, and the rest of the pool. NotFound here means
  // "miss in-process" — the peer tail comes after.
  Status GetInProcess(const Hash& cid, Chunk* chunk) const;

  // Fixed at construction — const, so concurrent readers need no
  // synchronization.
  const std::unique_ptr<ChunkStore> owned_local_;  // standalone only
  const std::vector<ChunkStore*> instances_;
  const size_t local_id_;
  const bool two_layer_;
  PeerChunkResolver* const peers_;  // may be null
  // Get() is const; caching is not.
  mutable AdmissionChunkCache fallback_cache_{
      AdmissionChunkCache::kFallbackCapacityBytes};
};

// The simulated deployment: master + dispatcher + N servlets. Clients do
// NOT address servlets directly — they go through a ClusterClient
// (src/cluster/client.h), which routes every Command by key, fans
// multi-key operations out, and batches async writes. The former
// `Route(key)` raw-engine accessor is retired: it let callers bypass the
// dispatcher, so multi-key operations (ListKeys, PutMany) silently stayed
// single-servlet.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  size_t num_servlets() const { return servlets_.size(); }

  // Dispatcher: the servlet responsible for `key`.
  size_t ServletOf(const std::string& key) const;

  // One node's local engine view — deployment introspection (tests and
  // benchmarks documenting per-servlet behavior), not a client API: a
  // servlet's branch tables cover only its own key shard.
  ForkBase* servlet(size_t i) { return servlets_[i].get(); }

  // Bytes resident on each node's chunk storage (Figure 15).
  std::vector<uint64_t> PerNodeStorageBytes() const;
  uint64_t TotalStorageBytes() const;

  // Re-balancing POS-Tree construction (Section 4.6.1): POS-Tree
  // building is computation-intensive, and since servlets and chunk
  // storage are decoupled, an overloaded key-owner can delegate the
  // chunking to the currently least-loaded servlet. The builder writes
  // data chunks into the shared pool and returns the root cid; the owner
  // then commits the FObject and moves the branch head itself (branch
  // table updates are never distributed).
  Result<Hash> PutBlobRebalanced(const std::string& key, Slice content);

  // POS-Trees built by each servlet (construction load balance).
  std::vector<uint64_t> PerNodeBuildCounts() const {
    return {build_counts_.begin(), build_counts_.end()};
  }

  const ClusterOptions& options() const { return options_; }

 private:
  friend class ClusterClient;  // pool access for the client chunk view

  // The pool's instances, in node order.
  std::vector<ChunkStore*> instances() const;

  ForkBase* Route(const std::string& key) {
    return servlets_[ServletOf(key)].get();
  }

  ClusterOptions options_;
  std::vector<std::unique_ptr<MemChunkStore>> pool_;
  std::vector<std::unique_ptr<ServletChunkStore>> views_;
  std::vector<std::unique_ptr<ForkBase>> servlets_;
  std::vector<std::atomic<uint64_t>> build_counts_;
};

}  // namespace fb

#endif  // FORKBASE_CLUSTER_CLUSTER_H_
