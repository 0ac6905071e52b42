#include "cluster/cluster.h"

#include "chunk/peer_resolver.h"

namespace fb {

Status ServletChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  if (pool_ == nullptr) return owned_local_->Put(cid, chunk);
  // Meta chunks are always stored locally: they are only read by the
  // servlet that owns the key (Section 4.6).
  if (chunk.type() == ChunkType::kMeta) {
    return (*pool_)[local_id_]->Put(cid, chunk);
  }
  return RouteData(cid)->Put(cid, chunk);
}

Status ServletChunkStore::GetInProcess(const Hash& cid, Chunk* chunk) const {
  if (pool_ == nullptr) {
    // Standalone servlet: one physical store, then the fallback cache
    // (chunks are immutable, so a cached copy is always current).
    Status s = owned_local_->Get(cid, chunk);
    if (s.ok() || !s.IsNotFound()) return s;
    if (fallback_cache_.capacity_bytes() > 0 &&
        fallback_cache_.Get(cid, chunk)) {
      return Status::OK();
    }
    return Status::NotFound(cid.ToShortHex());
  }
  // Data chunks live at the cid-routed node; meta chunks at the local
  // node. Check the routed node first, then local, then the rest of the
  // pool (the shared-storage fallback; only ever reached for chunks that
  // a different placement policy wrote elsewhere).
  const size_t routed = DataInstanceOf(cid);
  Status s = (*pool_)[routed]->Get(cid, chunk);
  if (s.ok() || !s.IsNotFound()) return s;
  if (routed != local_id_) {
    s = (*pool_)[local_id_]->Get(cid, chunk);
    if (s.ok() || !s.IsNotFound()) return s;
  }
  // Expected locations missed: the cache short-circuits the pool scan.
  if (fallback_cache_.capacity_bytes() > 0 &&
      fallback_cache_.Get(cid, chunk)) {
    return Status::OK();
  }
  for (size_t i = 0; i < pool_->size(); ++i) {
    if (i == routed || i == local_id_) continue;
    s = (*pool_)[i]->Get(cid, chunk);
    if (s.ok()) {
      if (fallback_cache_.capacity_bytes() > 0) {
        fallback_cache_.Put(cid, *chunk);
      }
      return s;
    }
    if (!s.IsNotFound()) return s;
  }
  return Status::NotFound(cid.ToShortHex());
}

Status ServletChunkStore::GetLocal(const Hash& cid, Chunk* chunk) const {
  if (pool_ == nullptr) return owned_local_->Get(cid, chunk);
  // Cluster mode: "local" is everything reachable in-process — the
  // shared pool — but never the cache/peer tail.
  const size_t routed = DataInstanceOf(cid);
  Status s = (*pool_)[routed]->Get(cid, chunk);
  if (s.ok() || !s.IsNotFound()) return s;
  for (size_t i = 0; i < pool_->size(); ++i) {
    if (i == routed) continue;
    s = (*pool_)[i]->Get(cid, chunk);
    if (s.ok() || !s.IsNotFound()) return s;
  }
  return Status::NotFound(cid.ToShortHex());
}

Status ServletChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  Status s = GetInProcess(cid, chunk);
  if (s.ok() || !s.IsNotFound()) return s;
  // Everything in-process missed: ask peer servlets — the cross-process
  // half of the shared-pool semantics.
  PeerChunkResolver* peers = peers_.load(std::memory_order_acquire);
  if (peers != nullptr) {
    const Status fetched = peers->Fetch(cid, chunk);
    if (fetched.ok()) {
      if (fallback_cache_.capacity_bytes() > 0) {
        fallback_cache_.Put(cid, *chunk);
      }
      return fetched;
    }
    // Unavailable (a peer could not be asked) must reach the caller
    // as-is: the chunk may exist on the unreachable peer.
    if (!fetched.IsNotFound()) return fetched;
  }
  return Status::NotFound(cid.ToShortHex());
}

Status ServletChunkStore::GetBatch(const std::vector<Hash>& cids,
                                   std::vector<Chunk>* chunks) const {
  chunks->assign(cids.size(), Chunk());
  std::vector<size_t> missing;
  for (size_t i = 0; i < cids.size(); ++i) {
    const Status s = GetInProcess(cids[i], &(*chunks)[i]);
    if (s.ok()) continue;
    if (!s.IsNotFound()) return s;
    missing.push_back(i);
  }
  if (missing.empty()) return Status::OK();
  PeerChunkResolver* peers = peers_.load(std::memory_order_acquire);
  if (peers == nullptr) {
    return Status::NotFound(cids[missing.front()].ToShortHex());
  }
  // Every in-process miss rides ONE batched peer fetch.
  std::vector<Hash> want;
  want.reserve(missing.size());
  for (const size_t i : missing) want.push_back(cids[i]);
  std::vector<Chunk> fetched;
  std::vector<bool> resolved;
  const Status s = peers->FetchBatch(want, &fetched, &resolved);
  for (size_t j = 0; j < missing.size(); ++j) {
    if (!resolved[j]) return s;  // NotFound / Unavailable per taxonomy
    (*chunks)[missing[j]] = std::move(fetched[j]);
    if (fallback_cache_.capacity_bytes() > 0) {
      fallback_cache_.Put(cids[missing[j]], (*chunks)[missing[j]]);
    }
  }
  return Status::OK();
}

bool ServletChunkStore::Contains(const Hash& cid) const {
  if (pool_ == nullptr) return owned_local_->Contains(cid);
  for (const auto& instance : *pool_) {
    if (instance->Contains(cid)) return true;
  }
  return false;
}

Status ServletChunkStore::PutBatch(const ChunkBatch& batch) {
  if (pool_ == nullptr) return owned_local_->PutBatch(batch);
  // Under 1LP every chunk (meta and data) is local: forward the batch
  // without copying.
  if (!two_layer_) return (*pool_)[local_id_]->PutBatch(batch);

  std::vector<std::vector<size_t>> by_instance(pool_->size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const size_t dst = batch[i].second.type() == ChunkType::kMeta
                           ? local_id_
                           : DataInstanceOf(batch[i].first);
    by_instance[dst].push_back(i);
  }
  ChunkBatch sub;
  for (size_t d = 0; d < by_instance.size(); ++d) {
    if (by_instance[d].empty()) continue;
    if (by_instance[d].size() == batch.size()) {
      return (*pool_)[d]->PutBatch(batch);  // everything routed one way
    }
    sub.clear();
    sub.reserve(by_instance[d].size());
    for (size_t i : by_instance[d]) sub.push_back(batch[i]);
    FB_RETURN_NOT_OK((*pool_)[d]->PutBatch(sub));
  }
  return Status::OK();
}

ChunkStoreStats ServletChunkStore::stats() const {
  // The view aggregates everything reachable in-process (shared storage
  // semantics), plus this servlet's own cache and peer-fetch counters.
  ChunkStoreStats total;
  if (pool_ == nullptr) {
    total.Accumulate(owned_local_->stats());
  } else {
    for (const auto& s : *pool_) total.Accumulate(s->stats());
  }
  fallback_cache_.AddStatsTo(&total);
  if (PeerChunkResolver* peers = peers_.load(std::memory_order_acquire)) {
    total.peer_fetches = peers->fetches();
    total.peer_fetch_failures = peers->failures();
    total.peer_fetch_negatives = peers->negatives();
    total.peer_round_trips = peers->round_trips();
  }
  return total;
}

Cluster::Cluster(ClusterOptions options)
    : options_(options), build_counts_(options.num_servlets) {
  pool_.reserve(options_.num_servlets);
  for (size_t i = 0; i < options_.num_servlets; ++i) {
    pool_.push_back(std::make_unique<MemChunkStore>());
    build_counts_[i] = 0;
  }
  for (size_t i = 0; i < options_.num_servlets; ++i) {
    views_.push_back(std::make_unique<ServletChunkStore>(
        &pool_, i, options_.two_layer_partitioning,
        options_.fallback_cache_bytes));
    servlets_.push_back(
        std::make_unique<ForkBase>(options_.db, views_.back().get()));
  }
}

Result<Hash> Cluster::PutBlobRebalanced(const std::string& key,
                                        Slice content) {
  if (!options_.two_layer_partitioning) {
    // Under 1LP a remote builder's chunks would be stranded in its local
    // store where the owner cannot address them; delegation relies on
    // the shared cid-partitioned pool.
    return Status::NotSupported(
        "re-balanced construction requires two-layer partitioning");
  }
  // 1. Pick the least-loaded builder.
  size_t builder = 0;
  uint64_t min_load = UINT64_MAX;
  for (size_t i = 0; i < build_counts_.size(); ++i) {
    const uint64_t load = build_counts_[i].load();
    if (load < min_load) {
      min_load = load;
      builder = i;
    }
  }

  // 2. The builder constructs the POS-Tree; its data chunks land in the
  //    shared pool (cid-partitioned), so the owner can reference them.
  ++build_counts_[builder];
  FB_ASSIGN_OR_RETURN(
      Hash root, PosTree::BuildFromBytes(views_[builder].get(),
                                         options_.db.tree, content));

  // 3. The key's owner commits the FObject and moves the branch head
  //    (serialized within the owner's servlet, as in Section 4.6.1).
  ForkBase* owner = Route(key);
  return owner->Put(key, Value::OfTree(UType::kBlob, root));
}

size_t ShardOfKey(const std::string& key, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h % n);
}

size_t Cluster::ServletOf(const std::string& key) const {
  return ShardOfKey(key, servlets_.size());
}

std::vector<uint64_t> Cluster::PerNodeStorageBytes() const {
  std::vector<uint64_t> out;
  out.reserve(pool_.size());
  for (const auto& s : pool_) out.push_back(s->stats().stored_bytes);
  return out;
}

uint64_t Cluster::TotalStorageBytes() const {
  uint64_t total = 0;
  for (uint64_t b : PerNodeStorageBytes()) total += b;
  return total;
}

}  // namespace fb
