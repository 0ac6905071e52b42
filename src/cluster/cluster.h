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
// Nodes are simulated in-process: each servlet is an embedded ForkBase
// engine with its own striped BranchManager (src/branch), so
// shared-nothing scaling (Figure 8) is exercised with real threads and
// commits on independent keys never contend, within or across servlets.

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
  // Byte budget of each servlet's chunk cache in front of the pool-scan
  // read fallback (0 disables it).
  size_t fallback_cache_bytes = AdmissionChunkCache::kFallbackCapacityBytes;
};

// The servlet the dispatcher routes `key` to in an `n`-shard layout —
// a pure function shared by the in-process Cluster and remote-endpoint
// clients, so every deployment agrees on key placement.
size_t ShardOfKey(const std::string& key, size_t n);

class PeerChunkResolver;

// A chunk store view for one servlet, in either of two deployments:
//
//  * In-process cluster node: meta chunks pin to the local pool
//    instance; data chunks route to the pool by cid (2LP) or stay local
//    (1LP). Reads that miss both the routed and the local instance fall
//    back to a pool-wide scan: placement policy decides where WRITES
//    land (the Figure 15 storage-distribution story), but every
//    instance of the cluster-wide pool is readable from every node, so
//    chunks written by other placement policies (client-built trees,
//    delegated construction) stay reachable.
//  * Standalone servlet process (`forkbased`): all writes land in one
//    local store (Mem or Log); there is no shared pool to scan.
//
// Either way the read path degrades in the same order: expected
// location(s) -> byte-capped chunk cache -> peer fetch. The peer resolver
// (when attached) is the cross-process half of the shared-pool
// semantics: a miss is resolved from peer servlet endpoints, cached, and
// returned; hit/miss and peer-fetch counts surface in stats(). A
// resolver answer of Unavailable (a peer could not be asked) propagates
// as Unavailable, never as NotFound — absence was not proven.
class ServletChunkStore : public ChunkStore {
 public:
  // In-process cluster node over the shared pool.
  ServletChunkStore(std::vector<std::unique_ptr<MemChunkStore>>* pool,
                    size_t local_id, bool two_layer,
                    size_t fallback_cache_bytes =
                        AdmissionChunkCache::kFallbackCapacityBytes)
      : pool_(pool),
        local_id_(local_id),
        two_layer_(two_layer),
        fallback_cache_(fallback_cache_bytes) {}

  // Standalone servlet process: every chunk lives in `local`; misses
  // consult the cache, then the peer resolver (both optional).
  ServletChunkStore(std::unique_ptr<ChunkStore> local,
                    PeerChunkResolver* peers,
                    size_t fallback_cache_bytes =
                        AdmissionChunkCache::kFallbackCapacityBytes)
      : pool_(nullptr),
        owned_local_(std::move(local)),
        local_id_(0),
        two_layer_(false),
        fallback_cache_(fallback_cache_bytes),
        peers_(peers) {}

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  // Groups the batch by destination instance (meta -> local, data ->
  // cid-routed) so each instance's striped locks are taken once per
  // batch, as on the embedded bulk-load path.
  Status PutBatch(const ChunkBatch& batch) override;
  // The batched read: every cid that misses in-process is resolved in
  // ONE peer fetch batch, so a traversal of a remote tree costs round
  // trips proportional to peers asked, not chunks missed.
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override;
  ChunkStoreStats stats() const override;

  // Attaches (or detaches, with nullptr) the peer resolver consulted
  // after every local location missed. The resolver must outlive its
  // attachment; swapping is safe against concurrent Gets.
  void set_peer_resolver(PeerChunkResolver* peers) {
    peers_.store(peers, std::memory_order_release);
  }

  // The physically local store — what this servlet serves to PEERS
  // asking over kChunkPeerGet. Never consults cache or resolver, so two
  // servlets missing the same cid cannot ping-pong.
  Status GetLocal(const Hash& cid, Chunk* chunk) const;
  ChunkStore* local_store() const {
    return owned_local_ != nullptr ? owned_local_.get()
                                   : (*pool_)[local_id_].get();
  }

 private:
  size_t DataInstanceOf(const Hash& cid) const {
    if (!two_layer_) return local_id_;
    return static_cast<size_t>(cid.Low64() % pool_->size());
  }
  MemChunkStore* RouteData(const Hash& cid) const {
    return (*pool_)[DataInstanceOf(cid)].get();
  }
  // Everything reachable without the network: the expected location(s),
  // the fallback cache, and (cluster mode) the pool-wide scan. NotFound
  // here means "miss in-process" — the peer tail comes after.
  Status GetInProcess(const Hash& cid, Chunk* chunk) const;

  // Mode selection is fixed at construction — const, so concurrent
  // readers can branch on these without synchronization by design
  // rather than by accident.
  std::vector<std::unique_ptr<MemChunkStore>>* const pool_;  // cluster mode
  const std::unique_ptr<ChunkStore> owned_local_;  // standalone mode
  const size_t local_id_;
  const bool two_layer_;
  // Get() is const; caching is not.
  mutable AdmissionChunkCache fallback_cache_;
  std::atomic<PeerChunkResolver*> peers_{nullptr};
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

  // Attaches `peers` to every servlet's chunk view (nullptr detaches) —
  // the cross-process half of the shared pool, used by mixed
  // deployments where some shards live behind remote endpoints. The
  // resolver must outlive the attachment.
  void AttachPeerResolver(PeerChunkResolver* peers) {
    for (auto& view : views_) view->set_peer_resolver(peers);
  }

  const ClusterOptions& options() const { return options_; }

 private:
  friend class ClusterClient;  // pool access for the client chunk view

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
