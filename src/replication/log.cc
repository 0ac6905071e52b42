#include "replication/log.h"

#include <algorithm>
#include <cstring>

namespace fb {
namespace repl {

namespace {

void PutHash(Bytes* out, const Hash& h) {
  out->insert(out->end(), h.data(), h.data() + Hash::kSize);
}

Status ReadHash(ByteReader* r, Hash* h) {
  Slice raw;
  FB_RETURN_NOT_OK(r->ReadRaw(Hash::kSize, &raw));
  Sha256::Digest d;
  std::memcpy(d.data(), raw.data(), Hash::kSize);
  *h = Hash(d);
  return Status::OK();
}

Status Torn(const char* what) {
  return Status::Corruption(std::string("torn replication record: ") + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplRecord
// ---------------------------------------------------------------------------

ReplRecord ReplRecord::FromMutation(const BranchMutation& m) {
  ReplRecord rec;
  switch (m.kind) {
    case BranchMutation::Kind::kSetHead:
      rec.kind = Kind::kSetHead;
      break;
    case BranchMutation::Kind::kRemoveBranch:
      rec.kind = Kind::kRemoveBranch;
      break;
    case BranchMutation::Kind::kRenameBranch:
      rec.kind = Kind::kRenameBranch;
      break;
    case BranchMutation::Kind::kAddUntagged:
      rec.kind = Kind::kAddUntagged;
      break;
    case BranchMutation::Kind::kReplaceUntagged:
      rec.kind = Kind::kReplaceUntagged;
      break;
    case BranchMutation::Kind::kImportAll:
      rec.kind = Kind::kImportAll;
      break;
  }
  rec.key = m.key;
  rec.branch = m.branch;
  rec.new_branch = m.new_branch;
  rec.head = m.head;
  rec.base = m.base;
  rec.old_heads = m.old_heads;
  rec.state = m.state;
  return rec;
}

Status ReplRecord::ToMutation(BranchMutation* out) const {
  switch (kind) {
    case Kind::kSetHead:
      out->kind = BranchMutation::Kind::kSetHead;
      break;
    case Kind::kRemoveBranch:
      out->kind = BranchMutation::Kind::kRemoveBranch;
      break;
    case Kind::kRenameBranch:
      out->kind = BranchMutation::Kind::kRenameBranch;
      break;
    case Kind::kAddUntagged:
      out->kind = BranchMutation::Kind::kAddUntagged;
      break;
    case Kind::kReplaceUntagged:
      out->kind = BranchMutation::Kind::kReplaceUntagged;
      break;
    case Kind::kImportAll:
      out->kind = BranchMutation::Kind::kImportAll;
      break;
    case Kind::kChunk:
      return Status::InvalidArgument("chunk record is not a branch mutation");
  }
  out->key = key;
  out->branch = branch;
  out->new_branch = new_branch;
  out->head = head;
  out->base = base;
  out->old_heads = old_heads;
  out->state = state;
  return Status::OK();
}

void ReplRecord::EncodeTo(Bytes* out) const {
  Bytes body;
  body.push_back(static_cast<uint8_t>(kind));
  switch (kind) {
    case Kind::kChunk:
      PutHash(&body, cid);
      PutLengthPrefixed(&body, Slice(chunk_bytes));
      break;
    case Kind::kSetHead:
      PutLengthPrefixed(&body, Slice(key));
      PutLengthPrefixed(&body, Slice(branch));
      PutHash(&body, head);
      break;
    case Kind::kRemoveBranch:
      PutLengthPrefixed(&body, Slice(key));
      PutLengthPrefixed(&body, Slice(branch));
      break;
    case Kind::kRenameBranch:
      PutLengthPrefixed(&body, Slice(key));
      PutLengthPrefixed(&body, Slice(branch));
      PutLengthPrefixed(&body, Slice(new_branch));
      break;
    case Kind::kAddUntagged:
      PutLengthPrefixed(&body, Slice(key));
      PutHash(&body, head);
      PutHash(&body, base);
      break;
    case Kind::kReplaceUntagged:
      PutLengthPrefixed(&body, Slice(key));
      PutVarint64(&body, old_heads.size());
      for (const Hash& h : old_heads) PutHash(&body, h);
      PutHash(&body, head);
      break;
    case Kind::kImportAll:
      PutLengthPrefixed(&body, Slice(state));
      break;
  }
  PutLengthPrefixed(out, Slice(body));
}

Status ReplRecord::DecodeFrom(ByteReader* r, ReplRecord* rec) {
  Slice body_raw;
  if (!r->ReadLengthPrefixed(&body_raw).ok()) return Torn("length prefix");
  ByteReader body(body_raw);
  Slice kind_raw;
  if (!body.ReadRaw(1, &kind_raw).ok()) return Torn("kind byte");
  const uint8_t kind_byte = static_cast<uint8_t>(kind_raw.data()[0]);
  if (kind_byte > static_cast<uint8_t>(Kind::kImportAll)) {
    return Status::Corruption("unknown replication record kind");
  }
  rec->kind = static_cast<Kind>(kind_byte);
  Slice s;
  switch (rec->kind) {
    case Kind::kChunk:
      if (!ReadHash(&body, &rec->cid).ok()) return Torn("chunk cid");
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("chunk bytes");
      rec->chunk_bytes.assign(s.data(), s.data() + s.size());
      break;
    case Kind::kSetHead:
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("key");
      rec->key = s.ToString();
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("branch");
      rec->branch = s.ToString();
      if (!ReadHash(&body, &rec->head).ok()) return Torn("head");
      break;
    case Kind::kRemoveBranch:
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("key");
      rec->key = s.ToString();
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("branch");
      rec->branch = s.ToString();
      break;
    case Kind::kRenameBranch:
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("key");
      rec->key = s.ToString();
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("branch");
      rec->branch = s.ToString();
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("new branch");
      rec->new_branch = s.ToString();
      break;
    case Kind::kAddUntagged:
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("key");
      rec->key = s.ToString();
      if (!ReadHash(&body, &rec->head).ok()) return Torn("uid");
      if (!ReadHash(&body, &rec->base).ok()) return Torn("base");
      break;
    case Kind::kReplaceUntagged: {
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("key");
      rec->key = s.ToString();
      uint64_t n = 0;
      if (!body.ReadVarint64(&n).ok()) return Torn("old-head count");
      rec->old_heads.clear();
      for (uint64_t i = 0; i < n; ++i) {
        Hash h;
        if (!ReadHash(&body, &h).ok()) return Torn("old head");
        rec->old_heads.push_back(h);
      }
      if (!ReadHash(&body, &rec->head).ok()) return Torn("merged uid");
      break;
    }
    case Kind::kImportAll:
      if (!body.ReadLengthPrefixed(&s).ok()) return Torn("state");
      rec->state.assign(s.data(), s.data() + s.size());
      break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ReplicationLog
// ---------------------------------------------------------------------------

uint64_t ReplicationLog::Append(const ReplRecord& rec) {
  Bytes encoded;
  rec.EncodeTo(&encoded);
  MutexLock lock(mu_);
  const uint64_t offset = begin_ + records_.size();
  records_.push_back(std::move(encoded));
  cv_.SignalAll();
  return offset;
}

Status ReplicationLog::ReadEncoded(uint64_t from, size_t max_bytes, Bytes* out,
                                   uint64_t* next, uint64_t* count) const {
  MutexLock lock(mu_);
  *count = 0;
  *next = from;
  if (from < begin_) {
    return Status::OutOfRange("replication log compacted past offset " +
                              std::to_string(from));
  }
  const uint64_t end = begin_ + records_.size();
  while (*next < end) {
    const Bytes& rec = records_[*next - begin_];
    if (*count > 0 && out->size() + rec.size() > max_bytes) break;
    out->insert(out->end(), rec.begin(), rec.end());
    ++*next;
    ++*count;
  }
  return Status::OK();
}

void ReplicationLog::Reset(uint64_t new_begin) {
  MutexLock lock(mu_);
  records_.clear();
  begin_ = new_begin;
  cv_.SignalAll();
}

void ReplicationLog::TrimTo(uint64_t offset) {
  MutexLock lock(mu_);
  if (offset <= begin_ || offset > begin_ + records_.size()) return;
  records_.erase(records_.begin(), records_.begin() + (offset - begin_));
  begin_ = offset;
}

uint64_t ReplicationLog::WaitForRecords(uint64_t from,
                                        int64_t timeout_ms) const {
  MutexLock lock(mu_);
  if (begin_ + records_.size() <= from) {
    cv_.WaitFor(mu_, timeout_ms);
  }
  return begin_ + records_.size();
}

// ---------------------------------------------------------------------------
// Shipment payloads
// ---------------------------------------------------------------------------

void EncodeAppend(uint64_t epoch, const std::string& leader,
                  uint64_t prev_offset, uint64_t count, const Bytes& records,
                  Bytes* out) {
  PutFixed64(out, epoch);
  PutLengthPrefixed(out, Slice(leader));
  PutFixed64(out, prev_offset);
  PutVarint64(out, count);
  out->insert(out->end(), records.begin(), records.end());
}

Status DecodeAppendHeader(ByteReader* r, uint64_t* epoch, std::string* leader,
                          uint64_t* prev_offset, uint64_t* count) {
  FB_RETURN_NOT_OK(r->ReadFixed64(epoch));
  Slice ep;
  FB_RETURN_NOT_OK(r->ReadLengthPrefixed(&ep));
  *leader = ep.ToString();
  FB_RETURN_NOT_OK(r->ReadFixed64(prev_offset));
  FB_RETURN_NOT_OK(r->ReadVarint64(count));
  return Status::OK();
}

void EncodeAck(uint64_t epoch, uint64_t acked, uint8_t flags, Bytes* out) {
  PutFixed64(out, epoch);
  PutFixed64(out, acked);
  out->push_back(flags);
}

Status DecodeAck(Slice body, uint64_t* epoch, uint64_t* acked,
                 uint8_t* flags) {
  ByteReader r(body);
  FB_RETURN_NOT_OK(r.ReadFixed64(epoch));
  FB_RETURN_NOT_OK(r.ReadFixed64(acked));
  Slice f;
  FB_RETURN_NOT_OK(r.ReadRaw(1, &f));
  *flags = f.data()[0];
  return Status::OK();
}

void EncodeSnapshot(uint64_t epoch, const std::string& leader, uint64_t offset,
                    const Bytes& state, Bytes* out) {
  PutFixed64(out, epoch);
  PutLengthPrefixed(out, Slice(leader));
  PutFixed64(out, offset);
  PutLengthPrefixed(out, Slice(state));
}

Status DecodeSnapshot(Slice body, uint64_t* epoch, std::string* leader,
                      uint64_t* offset, Slice* state) {
  ByteReader r(body);
  FB_RETURN_NOT_OK(r.ReadFixed64(epoch));
  Slice ep;
  FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&ep));
  *leader = ep.ToString();
  FB_RETURN_NOT_OK(r.ReadFixed64(offset));
  FB_RETURN_NOT_OK(r.ReadLengthPrefixed(state));
  return Status::OK();
}

void EncodeStatusRequest(bool register_follower, const std::string& endpoint,
                         uint64_t acked, Bytes* out) {
  out->push_back(register_follower ? 1 : 0);
  PutLengthPrefixed(out, Slice(endpoint));
  PutFixed64(out, acked);
}

Status DecodeStatusRequest(Slice body, bool* register_follower,
                           std::string* endpoint, uint64_t* acked) {
  ByteReader r(body);
  Slice flag;
  FB_RETURN_NOT_OK(r.ReadRaw(1, &flag));
  *register_follower = flag.data()[0] != 0;
  Slice ep;
  FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&ep));
  *endpoint = ep.ToString();
  FB_RETURN_NOT_OK(r.ReadFixed64(acked));
  return Status::OK();
}

void EncodeStatus(const GroupStatus& st, Bytes* out) {
  PutFixed64(out, st.epoch);
  out->push_back(st.role);
  PutFixed64(out, st.log_end);
  PutFixed64(out, st.acked);
  PutLengthPrefixed(out, Slice(st.leader));
  PutVarint64(out, st.follower_count);
}

Status DecodeStatus(Slice body, GroupStatus* st) {
  ByteReader r(body);
  FB_RETURN_NOT_OK(r.ReadFixed64(&st->epoch));
  Slice role;
  FB_RETURN_NOT_OK(r.ReadRaw(1, &role));
  st->role = static_cast<uint8_t>(role.data()[0]);
  FB_RETURN_NOT_OK(r.ReadFixed64(&st->log_end));
  FB_RETURN_NOT_OK(r.ReadFixed64(&st->acked));
  Slice leader;
  FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&leader));
  st->leader = leader.ToString();
  FB_RETURN_NOT_OK(r.ReadVarint64(&st->follower_count));
  return Status::OK();
}

}  // namespace repl
}  // namespace fb
