// Replication log: the ordered record stream a leader ships to its
// followers (ROADMAP item 2; the paper's Section 7 outlook).
//
// Chunks are immutable and content-addressed, so replicating them is
// conflict-free; the part that needs an ordered log is the mutable branch
// table. The log therefore interleaves two record kinds:
//
//   kChunk      — a freshly stored chunk (cid + serialized bytes), captured
//                 by ReplicatingChunkStore on the leader's write path.
//   branch ops  — one record per committed BranchMutation, captured by the
//                 in-stripe-lock BranchMutationObserver so per-key order in
//                 the log is exactly commit order. Chunks a mutation refers
//                 to always precede it (the engine stores chunks before it
//                 moves a head).
//
// Offsets are record indices (the first record ever appended is offset 0);
// `end_offset` is the next offset to be assigned. A follower's "acked
// offset" is the end_offset it has durably applied. Epochs are owned by
// the ReplicaGroup and travel in shipments, not in records.

#ifndef FORKBASE_REPLICATION_LOG_H_
#define FORKBASE_REPLICATION_LOG_H_

#include <deque>
#include <string>
#include <vector>

#include "branch/branch_manager.h"
#include "chunk/chunk.h"
#include "util/codec.h"
#include "util/mutex.h"
#include "util/status.h"

namespace fb {
namespace repl {

// One log record. Kinds 1..6 mirror BranchMutation::Kind + 1.
struct ReplRecord {
  enum class Kind : uint8_t {
    kChunk = 0,
    kSetHead = 1,
    kRemoveBranch = 2,
    kRenameBranch = 3,
    kAddUntagged = 4,
    kReplaceUntagged = 5,
    kImportAll = 6,
  };

  Kind kind = Kind::kChunk;

  // kChunk payload.
  Hash cid;
  Bytes chunk_bytes;  // Chunk::Serialize() output

  // Branch-mutation payload (field use mirrors BranchMutation).
  std::string key;
  std::string branch;
  std::string new_branch;
  Hash head;
  Hash base;
  std::vector<Hash> old_heads;
  Bytes state;

  static ReplRecord FromMutation(const BranchMutation& m);
  // Valid only for kinds != kChunk.
  Status ToMutation(BranchMutation* out) const;

  // Appends the length-prefixed encoding of this record to `out`.
  void EncodeTo(Bytes* out) const;
  // Consumes one length-prefixed record. Corruption on malformed input
  // (including a torn length prefix / short body).
  static Status DecodeFrom(ByteReader* r, ReplRecord* rec);
};

// In-memory ordered record store, thread-safe. Records are kept in their
// encoded (length-prefixed) form so shipping a range is a plain byte
// copy. Only a leader holds records: it trims the prefix every follower
// has acked (TrimTo), and a follower whose next offset falls below the
// trimmed prefix gets a snapshot instead. Reset() restarts the offset
// space, at promotion or after installing a snapshot.
class ReplicationLog {
 public:
  ReplicationLog() = default;
  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  // Appends one record; returns its offset.
  uint64_t Append(const ReplRecord& rec);

  uint64_t begin_offset() const {
    MutexLock lock(mu_);
    return begin_;
  }
  uint64_t end_offset() const {
    MutexLock lock(mu_);
    return begin_ + records_.size();
  }

  // Copies the encoded records [from, end) into `out`, stopping after
  // `max_bytes` (always at least one record when any is available).
  // Sets *next to the offset after the last copied record and *count to
  // the number copied. OutOfRange when `from` predates begin_offset()
  // (the suffix was compacted away — the caller must snapshot instead).
  Status ReadEncoded(uint64_t from, size_t max_bytes, Bytes* out,
                     uint64_t* next, uint64_t* count) const;

  // Drops everything and restarts the offset space at `new_begin` —
  // called after a snapshot at `new_begin` has been installed/shipped.
  void Reset(uint64_t new_begin);

  // Drops the records below `offset`; end_offset() is unchanged. A
  // no-op when `offset` is at or below begin_offset() or past the end.
  void TrimTo(uint64_t offset);

  // Number of records held: end_offset() - begin_offset().
  uint64_t retained() const {
    MutexLock lock(mu_);
    return records_.size();
  }

  // Blocks until end_offset() > from or the timeout elapses. Returns
  // the final end_offset(). Used by sender threads as their idle wait.
  uint64_t WaitForRecords(uint64_t from, int64_t timeout_ms) const;

 private:
  mutable Mutex mu_{kRankReplLog, "repl-log"};
  mutable CondVar cv_;
  std::deque<Bytes> records_ GUARDED_BY(mu_);  // encoded, length-prefixed
  uint64_t begin_ GUARDED_BY(mu_) = 0;
};

// --- Shipment wire payloads -------------------------------------------------
//
// These ride inside the generic frame envelope (src/rpc/frame.h) as the
// payloads of kReplAppend / kReplSnapshot / kReplStatus. Acks reuse the
// kControlResp envelope with the bodies below.

// kReplAppend request:
//   [fixed64 epoch][LP leader_endpoint][fixed64 prev_offset]
//   [varint count][count x encoded records]
void EncodeAppend(uint64_t epoch, const std::string& leader,
                  uint64_t prev_offset, uint64_t count, const Bytes& records,
                  Bytes* out);
Status DecodeAppendHeader(ByteReader* r, uint64_t* epoch, std::string* leader,
                          uint64_t* prev_offset, uint64_t* count);

// Ack body (kReplAppend / kReplSnapshot response):
//   [fixed64 epoch][fixed64 acked_offset][u8 flags]
// Rejections travel as flags on an OK control reply (so the leader
// always sees the follower's epoch and acked offset); transport-level
// failures remain genuine Status errors.
inline constexpr uint8_t kAckOk = 0;
// The shipment's epoch is behind the follower's — the sender is a stale
// ex-leader and must step down. Nothing was applied.
inline constexpr uint8_t kAckStaleEpoch = 1;
void EncodeAck(uint64_t epoch, uint64_t acked, uint8_t flags, Bytes* out);
Status DecodeAck(Slice body, uint64_t* epoch, uint64_t* acked,
                 uint8_t* flags);

// kReplSnapshot request:
//   [fixed64 epoch][LP leader_endpoint][fixed64 offset][LP branch_state]
// `branch_state` is ExportBranchState() of the leader at log offset
// `offset`; chunks stream lazily through the peer-fetch path.
void EncodeSnapshot(uint64_t epoch, const std::string& leader, uint64_t offset,
                    const Bytes& state, Bytes* out);
Status DecodeSnapshot(Slice body, uint64_t* epoch, std::string* leader,
                      uint64_t* offset, Slice* state);

// kReplStatus request:
//   [u8 register_follower][LP endpoint][fixed64 acked]
// With register_follower=1 the receiver (if leader) adds `endpoint` as a
// follower and starts shipping from `acked`; with 0 it is a pure probe.
void EncodeStatusRequest(bool register_follower, const std::string& endpoint,
                         uint64_t acked, Bytes* out);
Status DecodeStatusRequest(Slice body, bool* register_follower,
                           std::string* endpoint, uint64_t* acked);

// kReplStatus response:
//   [fixed64 epoch][u8 role][fixed64 log_end][fixed64 acked]
//   [LP leader_endpoint][varint follower_count]
struct GroupStatus {
  uint64_t epoch = 0;
  uint8_t role = 0;  // repl::Role
  uint64_t log_end = 0;
  uint64_t acked = 0;
  std::string leader;
  uint64_t follower_count = 0;
};
void EncodeStatus(const GroupStatus& st, Bytes* out);
Status DecodeStatus(Slice body, GroupStatus* st);

}  // namespace repl
}  // namespace fb

#endif  // FORKBASE_REPLICATION_LOG_H_
