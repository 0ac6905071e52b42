#include "chunk/chunk_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "chunk/block_cache.h"

namespace fb {

// ---------------------------------------------------------------------------
// BatchedChunkWriter
// ---------------------------------------------------------------------------

Result<Hash> BatchedChunkWriter::Add(Chunk chunk) {
  const Hash cid = chunk.ComputeCid();
  pending_.emplace_back(cid, std::move(chunk));
  if (pending_.size() >= batch_size_) {
    FB_RETURN_NOT_OK(Flush());
  }
  return cid;
}

Status BatchedChunkWriter::Flush() {
  if (pending_.empty()) return Status::OK();
  FB_RETURN_NOT_OK(store_->PutBatch(pending_));
  pending_.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ChunkStore default batch paths
// ---------------------------------------------------------------------------

Status ChunkStore::PutBatch(const ChunkBatch& batch) {
  for (const auto& [cid, chunk] : batch) {
    FB_RETURN_NOT_OK(Put(cid, chunk));
  }
  return Status::OK();
}

Status ChunkStore::GetBatch(const std::vector<Hash>& cids,
                            std::vector<Chunk>* chunks) const {
  chunks->resize(cids.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    FB_RETURN_NOT_OK(Get(cids[i], &(*chunks)[i]));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MemChunkStore
// ---------------------------------------------------------------------------

MemChunkStore::MemChunkStore(size_t n_shards) {
  if (n_shards == 0) n_shards = 1;
  shards_.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Status MemChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  Shard& shard = *shards_[ShardIndex(cid)];
  bool dedup_hit;
  {
    MutexLock lock(shard.mu);
    // find-first: a dedup hit must not pay the chunk copy.
    dedup_hit = shard.chunks.count(cid) > 0;
    if (!dedup_hit) shard.chunks.emplace(cid, chunk);
  }
  stats_.RecordPut(chunk.serialized_size(), dedup_hit);
  return Status::OK();
}

Status MemChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  stats_.RecordGet();
  const Shard& shard = *shards_[ShardIndex(cid)];
  MutexLock lock(shard.mu);
  auto it = shard.chunks.find(cid);
  if (it == shard.chunks.end()) {
    return Status::NotFound("chunk " + cid.ToShortHex());
  }
  *chunk = it->second;
  return Status::OK();
}

bool MemChunkStore::Contains(const Hash& cid) const {
  const Shard& shard = *shards_[ShardIndex(cid)];
  MutexLock lock(shard.mu);
  return shard.chunks.count(cid) > 0;
}

Status MemChunkStore::PutBatch(const ChunkBatch& batch) {
  return committer_.Commit(batch);
}

void MemChunkStore::CommitGroup(const GroupCommitter::Group& group) {
  // Group positions by shard, then take each shard's lock exactly once
  // for the whole drained group — across every caller that enqueued
  // into it. Within a shard records land in enqueue order, so duplicate
  // cids dedup exactly like the equivalent sequence of Puts.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < group.size(); ++i) {
    by_shard[ShardIndex(*group[i].cid)].push_back(i);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (size_t i : by_shard[s]) {
      const Hash& cid = *group[i].cid;
      const Chunk& chunk = *group[i].chunk;
      const bool dedup_hit = shard.chunks.count(cid) > 0;
      if (!dedup_hit) shard.chunks.emplace(cid, chunk);
      stats_.RecordPut(chunk.serialized_size(), dedup_hit);
    }
  }
}

Status MemChunkStore::GetBatch(const std::vector<Hash>& cids,
                               std::vector<Chunk>* chunks) const {
  chunks->resize(cids.size());
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    by_shard[ShardIndex(cids[i])].push_back(i);
    stats_.RecordGet();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    const Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (size_t i : by_shard[s]) {
      auto it = shard.chunks.find(cids[i]);
      if (it == shard.chunks.end()) {
        return Status::NotFound("chunk " + cids[i].ToShortHex());
      }
      (*chunks)[i] = it->second;
    }
  }
  return Status::OK();
}

ChunkStoreStats MemChunkStore::stats() const { return stats_.Snapshot(); }

void MemChunkStore::ForEach(
    const std::function<void(const Hash&, const Chunk&)>& fn) const {
  // Snapshot shard by shard under its lock, invoke outside all locks so
  // `fn` may call back into stores.
  std::vector<std::pair<Hash, Chunk>> snapshot;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    snapshot.insert(snapshot.end(), shard->chunks.begin(),
                    shard->chunks.end());
  }
  for (const auto& [cid, chunk] : snapshot) fn(cid, chunk);
}

// ---------------------------------------------------------------------------
// LogChunkStore
// ---------------------------------------------------------------------------

Result<std::unique_ptr<LogChunkStore>> LogChunkStore::Open(
    const std::string& dir, LogStoreOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create_directories: " + ec.message());
  auto store =
      std::unique_ptr<LogChunkStore>(new LogChunkStore(dir, options));
  if (options.block_cache_bytes > 0) {
    store->block_cache_ =
        std::make_unique<AdmissionChunkCache>(options.block_cache_bytes);
  }
  Status s = store->Recover();
  if (!s.ok()) return s;
  return store;
}

Result<std::unique_ptr<LogChunkStore>> LogChunkStore::Open(
    const std::string& dir, uint64_t segment_size) {
  LogStoreOptions options;
  options.segment_size = segment_size;
  return Open(dir, options);
}

LogChunkStore::LogChunkStore(std::string dir, LogStoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

LogChunkStore::~LogChunkStore() {
  if (active_ != nullptr) std::fclose(active_);
}

std::string LogChunkStore::SegmentPath(uint32_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/seg-%06u.fbl", n);
  return dir_ + buf;
}

Status LogChunkStore::Recover() {
  // Runs once from Open() before the store is published, but takes mu_
  // anyway: the guarded fields it populates stay provably consistent and
  // the lock is uncontended by construction.
  MutexLock lock(mu_);
  // Scan segments in order; verify each record's cid while indexing. A
  // truncated record is forgiven only at the tail of the LAST segment —
  // that is exactly what a process crash between group-commit fwrites
  // leaves behind (stdio appends are prefix writes) — and is cut off so
  // appends resume at the last good record. Tampering (cid mismatch, bad
  // encoding) and short records in earlier segments are corruption
  // wherever they appear. Deliberately NOT forgiven: a full-length tail
  // record whose cid does not verify. Power loss with out-of-order page
  // writeback can produce one, but so can an attacker rewriting the last
  // record — and silently truncating it would erase the evidence. A
  // tamper-evident store fails loud on that ambiguity and leaves the
  // call to the operator.
  uint32_t seg = 0;
  bool torn_tail = false;
  for (; !torn_tail; ++seg) {
    const std::string path = SegmentPath(seg);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) break;
    const bool is_last = !std::filesystem::exists(SegmentPath(seg + 1));
    uint64_t off = 0;
    for (;;) {
      uint8_t header[4 + Hash::kSize];
      const size_t got = std::fread(header, 1, sizeof(header), f);
      if (got == 0) break;  // clean end of segment
      if (got != sizeof(header)) {
        std::fclose(f);
        f = nullptr;
        if (!is_last) {
          return Status::Corruption("truncated record header in " + path);
        }
        torn_tail = true;
        break;
      }
      uint32_t len = 0;
      for (int i = 0; i < 4; ++i) len |= uint32_t{header[i]} << (8 * i);
      Sha256::Digest d;
      std::memcpy(d.data(), header + 4, Hash::kSize);
      const Hash cid{d};

      Bytes body(len);
      const size_t body_got =
          len > 0 ? std::fread(body.data(), 1, len, f) : 0;
      if (len > 0 && body_got != len) {
        std::fclose(f);
        f = nullptr;
        if (!is_last) {
          return Status::Corruption("truncated record body in " + path);
        }
        torn_tail = true;
        break;
      }
      Chunk chunk;
      if (!Chunk::Deserialize(Slice(body), &chunk)) {
        std::fclose(f);
        return Status::Corruption("bad chunk encoding in " + path);
      }
      if (chunk.ComputeCid() != cid) {
        std::fclose(f);
        return Status::Corruption("cid mismatch (tampered chunk) in " + path);
      }
      index_[cid] = Location{seg, off, len};
      stats_.RecordRecoveredChunk(chunk.serialized_size());
      off += sizeof(header) + len;
    }
    if (f != nullptr) std::fclose(f);
    active_id_ = seg;
    active_off_ = off;
    if (torn_tail) {
      std::error_code ec;
      std::filesystem::resize_file(path, off, ec);
      if (ec) {
        return Status::IOError("truncate torn tail: " + ec.message());
      }
    }
  }

  // Open (or create) the active segment for appending.
  if (seg == 0) {
    active_id_ = 0;
    active_off_ = 0;
  }
  active_ = std::fopen(SegmentPath(active_id_).c_str(), "ab");
  if (active_ == nullptr) {
    return Status::IOError(std::string("open active segment: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status LogChunkStore::RollSegment() {
  std::fclose(active_);
  ++active_id_;
  active_off_ = 0;
  active_ = std::fopen(SegmentPath(active_id_).c_str(), "ab");
  if (active_ == nullptr) {
    return Status::IOError(std::string("roll segment: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status LogChunkStore::SyncActive() {
  if (std::fflush(active_) != 0) return Status::IOError("fflush");
  if (::fsync(::fileno(active_)) != 0) {
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status LogChunkStore::CommitGroup(const GroupCommitter::Group& group) {
  MutexLock lock(mu_);

  // Records are packed into `buf` and written with one fwrite per
  // segment-span; their index entries are published only after the bytes
  // (and, per policy, the fsync) land, so readers never see a record the
  // log does not hold.
  Bytes buf;
  std::vector<std::pair<Hash, Location>> staged;
  std::vector<uint64_t> staged_sizes;
  std::unordered_set<Hash, HashHasher> staged_cids;

  for (const GroupCommitter::Record& p : group) {
    const Hash& cid = *p.cid;
    const Chunk& chunk = *p.chunk;
    if (index_.count(cid) > 0 || staged_cids.count(cid) > 0) {
      stats_.RecordPut(chunk.serialized_size(), /*dedup_hit=*/true);
      continue;
    }
    if (active_off_ + buf.size() >= options_.segment_size) {
      FB_RETURN_NOT_OK(
          FlushStaged(&buf, &staged, &staged_sizes, &staged_cids));
      if (active_off_ >= options_.segment_size) {
        FB_RETURN_NOT_OK(RollSegment());
      }
    }

    const Bytes body = chunk.Serialize();
    const uint32_t len = static_cast<uint32_t>(body.size());
    staged.emplace_back(cid,
                        Location{active_id_, active_off_ + buf.size(), len});
    staged_sizes.push_back(chunk.serialized_size());
    staged_cids.insert(cid);
    uint8_t header[4 + Hash::kSize];
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<uint8_t>(len >> (8 * i));
    }
    std::memcpy(header + 4, cid.data(), Hash::kSize);
    buf.insert(buf.end(), header, header + sizeof(header));
    buf.insert(buf.end(), body.begin(), body.end());

    if (options_.durability == DurabilityPolicy::kAlways) {
      FB_RETURN_NOT_OK(
          FlushStaged(&buf, &staged, &staged_sizes, &staged_cids));
    }
  }
  return FlushStaged(&buf, &staged, &staged_sizes, &staged_cids);
}

Status LogChunkStore::FlushStaged(
    Bytes* buf, std::vector<std::pair<Hash, Location>>* staged,
    std::vector<uint64_t>* staged_sizes,
    std::unordered_set<Hash, HashHasher>* staged_cids) {
  if (buf->empty()) return Status::OK();
  if (std::fwrite(buf->data(), 1, buf->size(), active_) != buf->size()) {
    return Status::IOError("short write to segment");
  }
  if (options_.durability != DurabilityPolicy::kNone) {
    FB_RETURN_NOT_OK(SyncActive());
  }
  for (size_t j = 0; j < staged->size(); ++j) {
    index_[(*staged)[j].first] = (*staged)[j].second;
    stats_.RecordPut((*staged_sizes)[j], /*dedup_hit=*/false);
  }
  active_off_ += buf->size();
  buf->clear();
  staged->clear();
  staged_sizes->clear();
  staged_cids->clear();
  return Status::OK();
}

Status LogChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  return committer_.Commit(cid, chunk);
}

Status LogChunkStore::PutBatch(const ChunkBatch& batch) {
  return committer_.Commit(batch);
}

namespace {

// Reads one record body from an already-open segment file.
Status ReadRecordFrom(std::FILE* f, uint64_t offset, uint32_t length,
                      Chunk* chunk) {
  if (std::fseek(f, static_cast<long>(offset + 4 + Hash::kSize), SEEK_SET) !=
      0) {
    return Status::IOError("seek");
  }
  Bytes body(length);
  if (length > 0 && std::fread(body.data(), 1, length, f) != length) {
    return Status::Corruption("short record read");
  }
  if (!Chunk::Deserialize(Slice(body), chunk)) {
    return Status::Corruption("bad chunk encoding");
  }
  return Status::OK();
}

}  // namespace

Status LogChunkStore::ReadRecord(const Location& loc, Chunk* chunk) const {
  std::FILE* f = std::fopen(SegmentPath(loc.segment).c_str(), "rb");
  if (f == nullptr) return Status::IOError("open segment for read");
  Status s = ReadRecordFrom(f, loc.offset, loc.length, chunk);
  std::fclose(f);
  return s;
}

Status LogChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  stats_.RecordGet();
  // Block cache first: a hit skips the index lock and the disk entirely.
  // Chunks are immutable, so a cached copy is always current — the cache
  // can answer before the index is even consulted.
  if (block_cache_ != nullptr && block_cache_->Get(cid, chunk)) {
    return Status::OK();
  }
  Location loc;
  {
    MutexLock lock(mu_);
    auto it = index_.find(cid);
    if (it == index_.end()) {
      return Status::NotFound("chunk " + cid.ToShortHex());
    }
    loc = it->second;
    // Reads of the active segment must see buffered appends; flush while
    // still holding the lock so `active_` cannot roll concurrently.
    if (loc.segment == active_id_ && std::fflush(active_) != 0) {
      return Status::IOError("fflush before read");
    }
  }
  // The record is immutable and its segment file is never deleted, so the
  // actual file I/O can proceed without serializing against appends.
  Status s = ReadRecord(loc, chunk);
  if (s.ok() && block_cache_ != nullptr) block_cache_->Put(cid, *chunk);
  return s;
}

Status LogChunkStore::GetBatch(const std::vector<Hash>& cids,
                               std::vector<Chunk>* chunks) const {
  chunks->resize(cids.size());
  // Serve cache hits up front; only misses pay for index lookups and
  // segment I/O below.
  std::vector<size_t> missing;
  missing.reserve(cids.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    stats_.RecordGet();
    if (block_cache_ != nullptr && block_cache_->Get(cids[i], &(*chunks)[i])) {
      continue;
    }
    missing.push_back(i);
  }
  if (missing.empty()) return Status::OK();

  std::vector<Location> locs(cids.size());
  {
    MutexLock lock(mu_);
    bool flushed = false;
    for (size_t i : missing) {
      auto it = index_.find(cids[i]);
      if (it == index_.end()) {
        return Status::NotFound("chunk " + cids[i].ToShortHex());
      }
      locs[i] = it->second;
      if (!flushed && locs[i].segment == active_id_) {
        if (std::fflush(active_) != 0) {
          return Status::IOError("fflush before read");
        }
        flushed = true;
      }
    }
  }
  // Group the reads by segment and serve each segment through one file
  // handle in offset order, instead of an open/seek/close per record.
  std::vector<size_t> order = missing;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (locs[a].segment != locs[b].segment) {
      return locs[a].segment < locs[b].segment;
    }
    return locs[a].offset < locs[b].offset;
  });
  std::FILE* f = nullptr;
  uint32_t open_segment = 0;
  Status s;
  for (size_t i : order) {
    if (f == nullptr || locs[i].segment != open_segment) {
      if (f != nullptr) std::fclose(f);
      open_segment = locs[i].segment;
      f = std::fopen(SegmentPath(open_segment).c_str(), "rb");
      if (f == nullptr) return Status::IOError("open segment for read");
    }
    s = ReadRecordFrom(f, locs[i].offset, locs[i].length, &(*chunks)[i]);
    if (!s.ok()) break;
    if (block_cache_ != nullptr) block_cache_->Put(cids[i], (*chunks)[i]);
  }
  if (f != nullptr) std::fclose(f);
  return s;
}

bool LogChunkStore::Contains(const Hash& cid) const {
  MutexLock lock(mu_);
  return index_.count(cid) > 0;
}

ChunkStoreStats LogChunkStore::stats() const {
  ChunkStoreStats s = stats_.Snapshot();
  if (block_cache_ != nullptr) block_cache_->AddStatsTo(&s);
  return s;
}

Status LogChunkStore::Flush() {
  MutexLock lock(mu_);
  if (active_ != nullptr && std::fflush(active_) != 0) {
    return Status::IOError("fflush");
  }
  return Status::OK();
}

}  // namespace fb
