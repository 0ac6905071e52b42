// ReplicaGroup: a leader/follower replication group for one servlet
// shard (ROADMAP item 2).
//
// One member is the leader; it alone accepts mutating commands. Every
// committed branch mutation and every freshly stored chunk is appended
// to an in-memory ReplicationLog (the mutation observer fires INSIDE
// the owning branch stripe, so per-key log order is exactly commit
// order), and a per-follower sender thread ships the log tail over
// kReplAppend frames. Followers apply shipped records to their own
// engine + store and ack the offset they have applied; they keep that
// offset, not the records (a promoted follower restarts its log there
// and snapshots the group). Under DurabilityPolicy::kQuorum the
// engine's commit barrier blocks in WaitCommitDurable until a majority
// of members (self included) holds the commit.
//
// Retention: once every other member has registered, the leader drops
// the log prefix below the smallest ack of its registered followers
// (read replicas included) after each ack, so its log holds only what
// some follower still lacks. A registered follower that stops acking
// pins the log.
//
// Bootstrap and convergence use wholesale snapshots: a follower whose
// ack predates the leader's log (fresh or restarted member, one that
// registered after the prefix was trimmed, or post-promotion
// divergence) receives ExportBranchState over kReplSnapshot; the chunks
// behind the snapshot stream lazily through the existing peer-fetch
// path, because chunks are content-addressed and conflict-free.
//
// Failover: followers watch for leader silence. After an election
// timeout a follower probes every member; if no live leader with a
// fresher epoch answers, a majority is reachable, and no reachable
// member is a strictly better candidate (higher acked offset, or equal
// with a lower member index), it promotes itself with epoch+1 and
// snapshots the whole group. A stale ex-leader's shipments are rejected
// by epoch (kAckStaleEpoch) and the rejection demotes it.
//
// Locking (see util/mutex.h ladder):
//   apply_mu_  (kRankReplApply, 250)  — serializes follower applies;
//                                       below the branch stripes the
//                                       applies acquire.
//   log mutex  (kRankReplLog,   340)  — inside ReplicationLog; appended
//                                       under a stripe (300).
//   state_mu_  (kRankReplState, 360)  — role/epoch/membership/acks.
// Never acquire the log under state_mu_ (340 < 360): read log offsets
// before taking state_mu_.

#ifndef FORKBASE_REPLICATION_GROUP_H_
#define FORKBASE_REPLICATION_GROUP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "replication/log.h"
#include "replication/replicated_store.h"
#include "util/mutex.h"
#include "util/status.h"

namespace fb {
namespace rpc {
class RemoteService;
}  // namespace rpc

namespace repl {

enum class Role : uint8_t { kLeader = 0, kFollower = 1 };

inline const char* RoleName(Role r) {
  return r == Role::kLeader ? "leader" : "follower";
}

struct ReplicaGroupOptions {
  // Every member's endpoint, identically ordered on every member;
  // members[0] is the initial leader. Quorum = members.size()/2 + 1.
  std::vector<std::string> members;
  // This process's endpoint (must appear in `members`).
  std::string self;
  // How long a kQuorum commit waits for majority acks before giving up
  // with Unavailable (the local commit stands; the durability promise
  // failed).
  int64_t quorum_timeout_ms = 10000;
  // Sender idle cadence: an empty append every heartbeat doubles as the
  // leader's liveness signal.
  int64_t heartbeat_ms = 100;
  // Leader silence after which a follower starts an election probe.
  int64_t election_timeout_ms = 1500;
  // Whether this member may promote itself (off for `--replicate-from`
  // static followers).
  bool auto_promote = true;
  // Soft cap on one kReplAppend shipment (always at least one record).
  size_t max_shipment_bytes = 4 << 20;
};

struct ReplicaGroupStats {
  uint64_t shipments_sent = 0;
  uint64_t records_shipped = 0;
  uint64_t records_applied = 0;
  uint64_t snapshots_sent = 0;
  uint64_t snapshots_applied = 0;
  uint64_t quorum_commits = 0;
  uint64_t quorum_timeouts = 0;
  uint64_t apply_errors = 0;
  uint64_t stale_rejections = 0;  // shipments this member rejected
  uint64_t promotions = 0;
  uint64_t step_downs = 0;
  // Gauge: records this member's log holds now (0 on a follower).
  uint64_t log_retained_records = 0;
};

class ReplicaGroup : public BranchMutationObserver,
                     public ReplicationCommitHook,
                     public ChunkReplicationSink {
 public:
  // `engine` and `store` outlive the group; `store` may be null (then
  // chunk capture is the caller's problem — used by branch-only tests).
  ReplicaGroup(ForkBase* engine, ReplicatingChunkStore* store,
               ReplicaGroupOptions options);
  ~ReplicaGroup() override;
  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  // Attaches the observer/hook/sink to the engine and store and starts
  // the monitor thread. Role comes from the member list: members[0]
  // starts as leader at epoch 1, everyone else as follower.
  Status Start();
  // Detaches and joins every background thread. Idempotent.
  void Stop();

  Role role() const { return role_cache_.load(std::memory_order_acquire); }
  uint64_t epoch() const {
    return epoch_cache_.load(std::memory_order_acquire);
  }
  std::string leader_endpoint() const;
  const std::string& self() const { return options_.self; }
  const std::vector<std::string>& members() const { return options_.members; }
  // Offset after the last record this member has: the log end on a
  // leader, the applied offset on a follower.
  uint64_t durable_offset() const;

  // --- leader write-path capture (observer / sink / commit hook) ---------

  // Fired inside the owning branch stripe on every committed mutation.
  void OnBranchMutation(const BranchMutation& m) override;
  // Fired by ReplicatingChunkStore for every chunk new to the store.
  void OnChunkStored(const Hash& cid, const Chunk& chunk) override;
  // The kQuorum commit barrier (called by the engine with no locks
  // held). OK once a majority holds this thread's latest commit;
  // Unavailable on timeout or demotion mid-wait.
  Status WaitCommitDurable() override;

  // --- server-side shipment handlers (called by ForkBaseServer) ----------
  //
  // Each consumes the frame payload and produces the kControlResp body.
  // Rejections (stale epoch) travel as ack flags on an OK return; a
  // non-OK Status means the request itself was malformed.

  Status HandleAppend(Slice body, Bytes* resp);
  Status HandleSnapshot(Slice body, Bytes* resp);
  Status HandleStatus(Slice body, Bytes* resp);

  // Status snapshot (also the payload of the kReplStatus response and
  // the hello handshake's replication tail).
  GroupStatus Snapshot() const;

  ReplicaGroupStats stats() const;

  // --- test seams --------------------------------------------------------

  // Pauses/resumes the sender for `endpoint` (the stalled-follower
  // quorum test). No-op when the endpoint has no sender.
  void StallFollower(const std::string& endpoint, bool stalled);
  // Promotes this member unconditionally (no probing): epoch+1, leader
  // role, snapshot every other member.
  void ForcePromote();

 private:
  struct FollowerState {
    std::string endpoint;
    // Next offset to ship / highest offset the follower acked. Plain
    // atomics: the sender thread is the only writer in steady state;
    // a racing re-registration may rewind them, which the count-based
    // skip on the follower side makes harmless.
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> acked{0};
    std::atomic<bool> needs_snapshot{false};
    // A follower that needs a snapshot can use no retained record, so it
    // holds no trim floor — except while its snapshot is in flight: then
    // the records from the snapshot's offset on must survive for it to
    // replay. kNoPin otherwise. Written under state_mu_.
    static constexpr uint64_t kNoPin = UINT64_MAX;
    std::atomic<uint64_t> snapshot_pin{kNoPin};
    std::atomic<bool> stalled{false};
    std::atomic<bool> stop{false};
    std::thread sender;
    // Owned by the sender thread exclusively.
    std::unique_ptr<rpc::RemoteService> conn;
  };

  void MonitorLoop();
  void SenderLoop(std::shared_ptr<FollowerState> f);
  // One kReplAppend round trip (possibly an empty heartbeat). Updates
  // f->next/f->acked from the ack. Returns false when the connection
  // should be dropped.
  bool ShipOnce(FollowerState* f);
  // Pins the trim floor for a snapshot at the log end, then sends it.
  bool ShipSnapshot(FollowerState* f);
  // One kReplSnapshot round trip covering [0, off).
  bool SendSnapshot(FollowerState* f, uint64_t off);
  // Stores a follower's ack, wakes quorum waiters, then trims the log.
  void RecordAck(FollowerState* f, uint64_t acked);
  // Sets f->snapshot_pin under state_mu_.
  void PinForSnapshot(FollowerState* f, uint64_t pin);
  // Leader only: drops the log prefix every registered follower has
  // acked (a follower awaiting a snapshot counts only its pin), once
  // every other member has registered.
  void TrimAcked();

  // Applies one shipped record on a follower (chunk -> store, mutation
  // -> engine under the re-entrancy guard).
  Status ApplyRecord(const ReplRecord& rec) REQUIRES(apply_mu_);

  // Adopts a (possibly new) leader at `epoch`: updates epoch/leader,
  // demotes if currently leader, retires senders. The universal "I saw
  // a fresher epoch" transition.
  void AdoptLeader(uint64_t epoch, const std::string& leader);
  void Promote(uint64_t new_epoch);
  // Registers with the believed leader; follows a redirect if the
  // probed member knows a different leader.
  void TryRegister();
  // Election probe: promote if majority reachable, no live leader with
  // epoch >= ours, and no strictly better candidate.
  void TryPromote();
  // Leader side of registration.
  void RegisterFollower(const std::string& endpoint, uint64_t acked);

  int64_t NowMs() const;

  ForkBase* const engine_;
  ReplicatingChunkStore* const store_;  // may be null
  const ReplicaGroupOptions options_;
  const size_t majority_;

  ReplicationLog log_;

  // Serializes shipment application on a follower (below the branch
  // stripes the applies take).
  Mutex apply_mu_{kRankReplApply, "repl-apply"};
  // Offset after the last applied record: a follower's log end.
  std::atomic<uint64_t> applied_next_{0};
  // Last append/snapshot received from the current leader (NowMs).
  std::atomic<int64_t> last_contact_ms_{0};

  // Authoritative role/epoch/membership. Lock-free mirrors feed the
  // hot paths (the observer runs inside a branch stripe).
  mutable Mutex state_mu_{kRankReplState, "repl-state"};
  mutable CondVar state_cv_;
  Role role_ GUARDED_BY(state_mu_) = Role::kFollower;
  uint64_t epoch_ GUARDED_BY(state_mu_) = 0;
  std::string leader_ GUARDED_BY(state_mu_);
  std::vector<std::shared_ptr<FollowerState>> followers_
      GUARDED_BY(state_mu_);
  // Senders retired by a step-down; joined at Stop.
  std::vector<std::shared_ptr<FollowerState>> retired_ GUARDED_BY(state_mu_);

  std::atomic<Role> role_cache_{Role::kFollower};
  std::atomic<uint64_t> epoch_cache_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::thread monitor_;

  // Stats (relaxed counters).
  std::atomic<uint64_t> shipments_sent_{0};
  std::atomic<uint64_t> records_shipped_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> snapshots_sent_{0};
  std::atomic<uint64_t> snapshots_applied_{0};
  std::atomic<uint64_t> quorum_commits_{0};
  std::atomic<uint64_t> quorum_timeouts_{0};
  std::atomic<uint64_t> apply_errors_{0};
  std::atomic<uint64_t> stale_rejections_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> step_downs_{0};
};

}  // namespace repl
}  // namespace fb

#endif  // FORKBASE_REPLICATION_GROUP_H_
