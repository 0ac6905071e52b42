#include "cluster/cluster.h"

#include "chunk/peer_resolver.h"

namespace fb {

Status PutBatchByInstance(const std::vector<ChunkStore*>& instances,
                          const ChunkBatch& batch,
                          const std::vector<size_t>& dst) {
  std::vector<std::vector<size_t>> by_instance(instances.size());
  for (size_t i = 0; i < batch.size(); ++i) by_instance[dst[i]].push_back(i);
  ChunkBatch sub;
  for (size_t d = 0; d < by_instance.size(); ++d) {
    if (by_instance[d].empty()) continue;
    if (by_instance[d].size() == batch.size()) {
      return instances[d]->PutBatch(batch);  // everything routed one way
    }
    sub.clear();
    sub.reserve(by_instance[d].size());
    for (size_t i : by_instance[d]) sub.push_back(batch[i]);
    FB_RETURN_NOT_OK(instances[d]->PutBatch(sub));
  }
  return Status::OK();
}

Status GetFromAny(const std::vector<ChunkStore*>& instances, size_t first,
                  const Hash& cid, Chunk* chunk) {
  Status s = instances[first]->Get(cid, chunk);
  if (s.ok() || !s.IsNotFound()) return s;
  for (size_t i = 0; i < instances.size(); ++i) {
    if (i == first) continue;
    s = instances[i]->Get(cid, chunk);
    if (s.ok() || !s.IsNotFound()) return s;
  }
  return Status::NotFound(cid.ToShortHex());
}

Status ServletChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  return instances_[InstanceOf(cid, chunk)]->Put(cid, chunk);
}

Status ServletChunkStore::GetInProcess(const Hash& cid, Chunk* chunk) const {
  // Data chunks live at the cid-routed instance; meta chunks at the
  // local one. Check the routed instance first, then local, then the
  // rest of the pool (only ever reached for chunks that a different
  // placement policy wrote elsewhere).
  const size_t routed = DataInstanceOf(cid);
  Status s = instances_[routed]->Get(cid, chunk);
  if (s.ok() || !s.IsNotFound()) return s;
  if (routed != local_id_) {
    s = instances_[local_id_]->Get(cid, chunk);
    if (s.ok() || !s.IsNotFound()) return s;
  }
  // Expected locations missed: the cache (chunks are immutable, so a
  // cached copy is always current) short-circuits the pool scan.
  if (fallback_cache_.Get(cid, chunk)) return Status::OK();
  for (size_t i = 0; i < instances_.size(); ++i) {
    if (i == routed || i == local_id_) continue;
    s = instances_[i]->Get(cid, chunk);
    if (s.ok()) {
      fallback_cache_.Put(cid, *chunk);
      return s;
    }
    if (!s.IsNotFound()) return s;
  }
  return Status::NotFound(cid.ToShortHex());
}

Status ServletChunkStore::GetLocal(const Hash& cid, Chunk* chunk) const {
  return GetFromAny(instances_, DataInstanceOf(cid), cid, chunk);
}

Status ServletChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  Status s = GetInProcess(cid, chunk);
  if (s.ok() || !s.IsNotFound() || peers_ == nullptr) return s;
  // Everything in-process missed: ask peer servlets — the cross-process
  // half of the shared-pool semantics.
  s = peers_->Fetch(cid, chunk);
  if (s.ok()) {
    fallback_cache_.Put(cid, *chunk);
    return s;
  }
  // Unavailable (a peer could not be asked) must reach the caller
  // as-is: the chunk may exist on the unreachable peer.
  if (!s.IsNotFound()) return s;
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
  if (peers_ == nullptr) {
    return Status::NotFound(cids[missing.front()].ToShortHex());
  }
  // Every in-process miss rides ONE batched peer fetch.
  std::vector<Hash> want;
  want.reserve(missing.size());
  for (const size_t i : missing) want.push_back(cids[i]);
  std::vector<Chunk> fetched;
  std::vector<bool> resolved;
  const Status s = peers_->FetchBatch(want, &fetched, &resolved);
  for (size_t j = 0; j < missing.size(); ++j) {
    if (!resolved[j]) return s;  // NotFound / Unavailable per taxonomy
    (*chunks)[missing[j]] = std::move(fetched[j]);
    fallback_cache_.Put(cids[missing[j]], (*chunks)[missing[j]]);
  }
  return Status::OK();
}

bool ServletChunkStore::Contains(const Hash& cid) const {
  for (const ChunkStore* instance : instances_) {
    if (instance->Contains(cid)) return true;
  }
  return false;
}

Status ServletChunkStore::PutBatch(const ChunkBatch& batch) {
  // Under 1LP every chunk (meta and data) is local: forward the batch
  // without copying.
  if (!two_layer_) return local_store()->PutBatch(batch);
  std::vector<size_t> dst(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    dst[i] = InstanceOf(batch[i].first, batch[i].second);
  }
  return PutBatchByInstance(instances_, batch, dst);
}

ChunkStoreStats ServletChunkStore::stats() const {
  // The view aggregates everything reachable in-process (shared storage
  // semantics), plus this servlet's own cache and peer-fetch counters.
  ChunkStoreStats total;
  for (const ChunkStore* instance : instances_) {
    total.Accumulate(instance->stats());
  }
  fallback_cache_.AddStatsTo(&total);
  if (peers_ != nullptr) {
    total.peer_fetches = peers_->fetches();
    total.peer_fetch_failures = peers_->failures();
    total.peer_fetch_negatives = peers_->negatives();
    total.peer_round_trips = peers_->round_trips();
  }
  return total;
}

std::vector<ChunkStore*> Cluster::instances() const {
  std::vector<ChunkStore*> out;
  out.reserve(pool_.size());
  for (const auto& instance : pool_) out.push_back(instance.get());
  return out;
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
        instances(), i, options_.two_layer_partitioning));
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
