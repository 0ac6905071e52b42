#include "replication/group.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "rpc/frame.h"
#include "rpc/remote_service.h"

namespace fb {
namespace repl {

namespace {

// Re-entrancy guard: a follower apply drives the engine, whose mutation
// observer and chunk sink must not log the shipped records back.
thread_local bool tl_applying = false;

struct ApplyingScope {
  ApplyingScope() { tl_applying = true; }
  ~ApplyingScope() { tl_applying = false; }
};

// The commit the current thread last appended, consumed by the quorum
// barrier. Tagged with the group so embedded multi-group tests (one
// process, several engines) never cross wires.
struct TlCommit {
  const void* group = nullptr;
  uint64_t offset = 0;
};
thread_local TlCommit tl_commit;

rpc::RemoteServiceOptions SenderConnOptions() {
  rpc::RemoteServiceOptions o;
  o.pool_size = 1;       // shipments are strictly sequential per follower
  o.chunk_cache_bytes = 0;
  return o;
}

}  // namespace

ReplicaGroup::ReplicaGroup(ForkBase* engine, ReplicatingChunkStore* store,
                           ReplicaGroupOptions options)
    : engine_(engine),
      store_(store),
      options_(std::move(options)),
      majority_(options_.members.size() / 2 + 1) {}

ReplicaGroup::~ReplicaGroup() { Stop(); }

int64_t ReplicaGroup::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ReplicaGroup::Start() {
  if (options_.members.empty()) {
    return Status::InvalidArgument("replica group needs at least one member");
  }
  if (std::find(options_.members.begin(), options_.members.end(),
                options_.self) == options_.members.end()) {
    return Status::InvalidArgument("self endpoint " + options_.self +
                                   " not in the member list");
  }
  if (started_.exchange(true)) {
    return Status::InvalidArgument("replica group already started");
  }
  {
    MutexLock lock(state_mu_);
    epoch_ = 1;
    leader_ = options_.members.front();
    role_ = leader_ == options_.self ? Role::kLeader : Role::kFollower;
    epoch_cache_.store(epoch_, std::memory_order_release);
    role_cache_.store(role_, std::memory_order_release);
  }
  last_contact_ms_.store(NowMs(), std::memory_order_release);
  engine_->AttachReplication(this, this);
  if (store_ != nullptr) store_->set_sink(this);
  stop_.store(false, std::memory_order_release);
  monitor_ = std::thread(&ReplicaGroup::MonitorLoop, this);
  return Status::OK();
}

void ReplicaGroup::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<FollowerState>> drain;
  {
    MutexLock lock(state_mu_);
    for (auto& f : followers_) f->stop.store(true, std::memory_order_release);
    drain = std::move(followers_);
    followers_.clear();
    drain.insert(drain.end(), retired_.begin(), retired_.end());
    retired_.clear();
    state_cv_.SignalAll();
  }
  if (monitor_.joinable()) monitor_.join();
  for (auto& f : drain) {
    if (f->sender.joinable()) f->sender.join();
  }
  if (store_ != nullptr) store_->set_sink(nullptr);
  engine_->AttachReplication(nullptr, nullptr);
  started_.store(false, std::memory_order_release);
}

std::string ReplicaGroup::leader_endpoint() const {
  MutexLock lock(state_mu_);
  return leader_;
}

uint64_t ReplicaGroup::durable_offset() const {
  return role() == Role::kLeader
             ? log_.end_offset()
             : applied_next_.load(std::memory_order_acquire);
}

// --- leader write-path capture ---------------------------------------------

void ReplicaGroup::OnBranchMutation(const BranchMutation& m) {
  if (tl_applying) return;
  if (role_cache_.load(std::memory_order_acquire) != Role::kLeader) return;
  // Under the owning branch stripe (rank 300); the log mutex is 340.
  const uint64_t off = log_.Append(ReplRecord::FromMutation(m));
  tl_commit.group = this;
  tl_commit.offset = off;
}

void ReplicaGroup::OnChunkStored(const Hash& cid, const Chunk& chunk) {
  if (tl_applying) return;
  if (role_cache_.load(std::memory_order_acquire) != Role::kLeader) return;
  ReplRecord rec;
  rec.kind = ReplRecord::Kind::kChunk;
  rec.cid = cid;
  rec.chunk_bytes = chunk.Serialize();
  log_.Append(rec);
}

Status ReplicaGroup::WaitCommitDurable() {
  if (tl_commit.group != this) return Status::OK();
  const uint64_t off = tl_commit.offset;
  tl_commit.group = nullptr;
  if (majority_ <= 1) {
    quorum_commits_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.quorum_timeout_ms);
  MutexLock lock(state_mu_);
  for (;;) {
    if (role_ != Role::kLeader) {
      return Status::Unavailable(
          "demoted while awaiting quorum (commit is local-only)");
    }
    size_t holders = 1;  // self: the commit is already locally applied
    for (const auto& f : followers_) {
      // acked is the offset AFTER the follower's last applied record.
      if (f->acked.load(std::memory_order_acquire) > off) ++holders;
    }
    if (holders >= majority_) {
      quorum_commits_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      quorum_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "quorum ack timeout (commit is local-only)");
    }
    const int64_t ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - now)
                           .count();
    state_cv_.WaitFor(state_mu_, ms > 0 ? ms : 1);
  }
}

// --- sender side ------------------------------------------------------------

void ReplicaGroup::SenderLoop(std::shared_ptr<FollowerState> f) {
  int64_t backoff_ms = 20;
  while (!f->stop.load(std::memory_order_acquire)) {
    if (f->stalled.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.heartbeat_ms));
      continue;
    }
    if (f->conn == nullptr) {
      auto connected =
          rpc::RemoteService::Connect(f->endpoint, SenderConnOptions());
      if (!connected.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min<int64_t>(backoff_ms * 2, 1000);
        continue;
      }
      f->conn = std::move(connected).value();
      backoff_ms = 20;
    }
    const bool ok = f->needs_snapshot.load(std::memory_order_acquire)
                        ? ShipSnapshot(f.get())
                        : ShipOnce(f.get());
    if (!ok) {
      // Transport trouble: drop the connection, retry with backoff.
      f->conn.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min<int64_t>(backoff_ms * 2, 1000);
    } else {
      backoff_ms = 20;
    }
  }
}

bool ReplicaGroup::ShipOnce(FollowerState* f) {
  uint64_t from = f->next.load(std::memory_order_acquire);
  Bytes records;
  uint64_t next = from;
  uint64_t count = 0;
  Status rs = log_.ReadEncoded(from, options_.max_shipment_bytes, &records,
                               &next, &count);
  if (!rs.ok()) {
    // OutOfRange: the suffix was compacted away — snapshot instead.
    f->needs_snapshot.store(true, std::memory_order_release);
    return true;
  }
  if (count == 0) {
    // Idle: wait for new records up to one heartbeat; an empty append
    // then doubles as the leader's liveness signal.
    log_.WaitForRecords(from, options_.heartbeat_ms);
    rs = log_.ReadEncoded(from, options_.max_shipment_bytes, &records, &next,
                          &count);
    if (!rs.ok()) {
      f->needs_snapshot.store(true, std::memory_order_release);
      return true;
    }
  }
  // The wait above can outlast a stop or a stall: a stalled follower
  // must receive nothing, or a quorum could count its ack.
  if (f->stop.load(std::memory_order_acquire) ||
      f->stalled.load(std::memory_order_acquire)) {
    return true;
  }
  if (role_cache_.load(std::memory_order_acquire) != Role::kLeader) {
    return true;  // retired mid-flight; the stop flag follows
  }
  const uint64_t epoch = epoch_cache_.load(std::memory_order_acquire);
  Bytes req;
  EncodeAppend(epoch, options_.self, from, count, records, &req);
  auto resp = f->conn->Call(rpc::FrameType::kReplAppend, Slice(req));
  if (!resp.ok()) return false;
  uint64_t follower_epoch = 0;
  uint64_t acked = 0;
  uint8_t flags = 0;
  if (!DecodeAck(Slice(resp.value()), &follower_epoch, &acked, &flags).ok()) {
    return false;
  }
  shipments_sent_.fetch_add(1, std::memory_order_relaxed);
  if ((flags & kAckStaleEpoch) != 0) {
    // The follower lives in a fresher epoch: this member is a stale
    // ex-leader. Step down; the real leader announces itself by
    // shipping to us.
    AdoptLeader(follower_epoch, "");
    return true;
  }
  records_shipped_.fetch_add(count, std::memory_order_relaxed);
  // The ack is authoritative: it IS the next offset the follower
  // expects — rewind on gaps, advance on success (the follower's
  // count-based skip dedups overlap on resends).
  f->next.store(acked, std::memory_order_release);
  RecordAck(f, acked);
  return true;
}

bool ReplicaGroup::ShipSnapshot(FollowerState* f) {
  // Pin the trim floor before reading the offset (a trim that read the
  // log end before the pin cannot pass `off`), then raise the pin to
  // it: the follower replays from `off` once the snapshot lands, and a
  // busy leader trimming past it would force another snapshot.
  PinForSnapshot(f, 0);
  // Offset first, export second: every record below `off` was appended
  // inside a branch-stripe section the export must wait for, so the
  // snapshot is guaranteed to cover all of [0, off). Records >= off may
  // overlap the snapshot; replaying them is convergent.
  const uint64_t off = log_.end_offset();
  PinForSnapshot(f, off);
  if (SendSnapshot(f, off)) return true;
  // A follower the snapshot did not reach holds no floor until the next
  // attempt.
  PinForSnapshot(f, FollowerState::kNoPin);
  return false;
}

bool ReplicaGroup::SendSnapshot(FollowerState* f, uint64_t off) {
  auto state = engine_->ExportBranchState();
  if (!state.ok()) return false;
  if (role_cache_.load(std::memory_order_acquire) != Role::kLeader) {
    return true;
  }
  const uint64_t epoch = epoch_cache_.load(std::memory_order_acquire);
  Bytes req;
  EncodeSnapshot(epoch, options_.self, off, state.value(), &req);
  auto resp = f->conn->Call(rpc::FrameType::kReplSnapshot, Slice(req));
  if (!resp.ok()) return false;
  uint64_t follower_epoch = 0;
  uint64_t acked = 0;
  uint8_t flags = 0;
  if (!DecodeAck(Slice(resp.value()), &follower_epoch, &acked, &flags).ok()) {
    return false;
  }
  if ((flags & kAckStaleEpoch) != 0) {
    AdoptLeader(follower_epoch, "");
    return true;
  }
  snapshots_sent_.fetch_add(1, std::memory_order_relaxed);
  f->next.store(acked, std::memory_order_release);
  RecordAck(f, acked);  // clears needs_snapshot and the pin
  return true;
}

void ReplicaGroup::PinForSnapshot(FollowerState* f, uint64_t pin) {
  MutexLock lock(state_mu_);
  f->snapshot_pin.store(pin, std::memory_order_release);
}

void ReplicaGroup::RecordAck(FollowerState* f, uint64_t acked) {
  {
    MutexLock lock(state_mu_);
    f->acked.store(acked, std::memory_order_release);
    // An ack means the follower holds a prefix it extends by replay: a
    // snapshot it needed has landed (one lock section, so no trim sees
    // the follower as neither pinned nor acked).
    f->needs_snapshot.store(false, std::memory_order_release);
    f->snapshot_pin.store(FollowerState::kNoPin, std::memory_order_release);
    state_cv_.SignalAll();
  }
  TrimAcked();
}

void ReplicaGroup::TrimAcked() {
  // Log offsets before state_mu_ (the log mutex ranks below it). Records
  // appended since are above `floor`, so trimming to it is safe.
  uint64_t floor = log_.end_offset();
  {
    MutexLock lock(state_mu_);
    if (role_ != Role::kLeader) return;
    // A member that has not registered yet may still replay from an
    // offset nobody else needs; until all have, trim nothing.
    for (const std::string& m : options_.members) {
      if (m == options_.self) continue;
      const bool registered =
          std::any_of(followers_.begin(), followers_.end(),
                      [&](const auto& f) { return f->endpoint == m; });
      if (!registered) return;
    }
    for (const auto& f : followers_) {
      // A follower awaiting a snapshot (a new leader's dead ex-leader,
      // say) can use no retained record; only its in-flight snapshot
      // pins the floor. Its `acked` still counts toward quorums.
      floor = std::min(floor,
                       f->needs_snapshot.load(std::memory_order_acquire)
                           ? f->snapshot_pin.load(std::memory_order_acquire)
                           : f->acked.load(std::memory_order_acquire));
    }
  }
  // A follower that re-registers below `floor` meanwhile gets a snapshot.
  log_.TrimTo(floor);
}

// --- receiver side ----------------------------------------------------------

Status ReplicaGroup::HandleAppend(Slice body, Bytes* resp) {
  resp->clear();  // the encoders append; the handler owns the whole body
  ByteReader r(body);
  uint64_t epoch = 0;
  uint64_t prev = 0;
  uint64_t count = 0;
  std::string from_leader;
  FB_RETURN_NOT_OK(DecodeAppendHeader(&r, &epoch, &from_leader, &prev, &count));
  MutexLock apply_lock(apply_mu_);
  const uint64_t my_epoch = epoch_cache_.load(std::memory_order_acquire);
  if (epoch < my_epoch) {
    stale_rejections_.fetch_add(1, std::memory_order_relaxed);
    EncodeAck(my_epoch, applied_next_.load(std::memory_order_acquire),
              kAckStaleEpoch, resp);
    return Status::OK();
  }
  if (epoch > my_epoch ||
      role_cache_.load(std::memory_order_acquire) != Role::kFollower) {
    AdoptLeader(epoch, from_leader);
  }
  last_contact_ms_.store(NowMs(), std::memory_order_release);
  const uint64_t applied = applied_next_.load(std::memory_order_acquire);
  if (prev > applied) {
    // Gap: the leader is ahead of what we hold (e.g. a registration it
    // believed was fresher). Ack unchanged; the leader rewinds to it.
    EncodeAck(epoch, applied, kAckOk, resp);
    return Status::OK();
  }
  const uint64_t skip = applied - prev;  // overlap resend, count-based dedup
  for (uint64_t n = 0; n < count; ++n) {
    ReplRecord rec;
    if (!ReplRecord::DecodeFrom(&r, &rec).ok()) {
      // Torn shipment (truncated mid-record): ack the applied prefix;
      // the leader resends from there and the skip dedups the overlap.
      break;
    }
    if (n < skip) continue;
    Status as = ApplyRecord(rec);
    if (!as.ok()) {
      // Counted, not fatal: overlap replays of non-idempotent ops (a
      // re-removed branch) land here; the offset advances regardless,
      // so the stream stays aligned with the leader's.
      apply_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    applied_next_.store(prev + n + 1, std::memory_order_release);
    records_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  EncodeAck(epoch, applied_next_.load(std::memory_order_acquire), kAckOk,
            resp);
  return Status::OK();
}

Status ReplicaGroup::ApplyRecord(const ReplRecord& rec) {
  ApplyingScope guard;
  if (rec.kind == ReplRecord::Kind::kChunk) {
    Chunk chunk;
    if (!Chunk::Deserialize(Slice(rec.chunk_bytes), &chunk)) {
      return Status::Corruption("replicated chunk failed to deserialize");
    }
    ChunkStore* dst = store_ != nullptr ? store_->base() : engine_->store();
    return dst->Put(rec.cid, chunk);
  }
  BranchMutation m;
  FB_RETURN_NOT_OK(rec.ToMutation(&m));
  return engine_->ApplyBranchMutation(m);
}

Status ReplicaGroup::HandleSnapshot(Slice body, Bytes* resp) {
  resp->clear();
  uint64_t epoch = 0;
  uint64_t off = 0;
  std::string from_leader;
  Slice state;
  FB_RETURN_NOT_OK(DecodeSnapshot(body, &epoch, &from_leader, &off, &state));
  MutexLock apply_lock(apply_mu_);
  const uint64_t my_epoch = epoch_cache_.load(std::memory_order_acquire);
  if (epoch < my_epoch) {
    stale_rejections_.fetch_add(1, std::memory_order_relaxed);
    EncodeAck(my_epoch, applied_next_.load(std::memory_order_acquire),
              kAckStaleEpoch, resp);
    return Status::OK();
  }
  if (epoch > my_epoch ||
      role_cache_.load(std::memory_order_acquire) != Role::kFollower) {
    AdoptLeader(epoch, from_leader);
  }
  last_contact_ms_.store(NowMs(), std::memory_order_release);
  BranchMutation m;
  m.kind = BranchMutation::Kind::kImportAll;
  m.state.assign(state.data(), state.data() + state.size());
  Status as;
  {
    ApplyingScope guard;
    as = engine_->ApplyBranchMutation(m);
  }
  if (!as.ok()) {
    apply_errors_.fetch_add(1, std::memory_order_relaxed);
    EncodeAck(epoch, applied_next_.load(std::memory_order_acquire), kAckOk,
              resp);
    return Status::OK();
  }
  // The snapshot replaces everything we held — including a longer
  // history: post-promotion wholesale convergence may rewind us to the
  // new leader's state. An ex-leader drops the records it still held.
  log_.Reset(off);
  applied_next_.store(off, std::memory_order_release);
  snapshots_applied_.fetch_add(1, std::memory_order_relaxed);
  EncodeAck(epoch, off, kAckOk, resp);
  return Status::OK();
}

Status ReplicaGroup::HandleStatus(Slice body, Bytes* resp) {
  resp->clear();
  bool register_follower = false;
  std::string endpoint;
  uint64_t acked = 0;
  FB_RETURN_NOT_OK(
      DecodeStatusRequest(body, &register_follower, &endpoint, &acked));
  if (register_follower &&
      role_cache_.load(std::memory_order_acquire) == Role::kLeader) {
    RegisterFollower(endpoint, acked);
  }
  GroupStatus st = Snapshot();
  EncodeStatus(st, resp);
  return Status::OK();
}

GroupStatus ReplicaGroup::Snapshot() const {
  GroupStatus st;
  // Log offsets before state_mu_ (the log mutex ranks below it).
  const uint64_t log_end = log_.end_offset();
  const uint64_t applied = applied_next_.load(std::memory_order_acquire);
  MutexLock lock(state_mu_);
  st.epoch = epoch_;
  st.role = static_cast<uint8_t>(role_);
  st.leader = leader_;
  st.follower_count = followers_.size();
  // A follower keeps no records: its log ends at its applied offset.
  st.log_end = role_ == Role::kLeader ? log_end : applied;
  st.acked = st.log_end;
  return st;
}

void ReplicaGroup::RegisterFollower(const std::string& endpoint,
                                    uint64_t acked) {
  if (endpoint.empty() || endpoint == options_.self) return;
  MutexLock lock(state_mu_);
  if (role_ != Role::kLeader) return;
  for (auto& f : followers_) {
    if (f->endpoint == endpoint) {
      // Re-registration (follower restart or reconnect): trust its
      // claim wholesale — a restarted in-memory follower legitimately
      // rewinds to 0, and the sender snapshots if the log no longer
      // reaches back that far.
      f->next.store(acked, std::memory_order_release);
      f->acked.store(acked, std::memory_order_release);
      return;
    }
  }
  auto f = std::make_shared<FollowerState>();
  f->endpoint = endpoint;
  f->next.store(acked, std::memory_order_relaxed);
  f->acked.store(acked, std::memory_order_relaxed);
  followers_.push_back(f);
  f->sender = std::thread(&ReplicaGroup::SenderLoop, this, f);
}

// --- role transitions -------------------------------------------------------

void ReplicaGroup::AdoptLeader(uint64_t epoch, const std::string& leader) {
  MutexLock lock(state_mu_);
  if (epoch < epoch_) return;
  if (epoch > epoch_) {
    epoch_ = epoch;
    epoch_cache_.store(epoch, std::memory_order_release);
  }
  if (!leader.empty()) leader_ = leader;
  if (role_ == Role::kLeader && leader != options_.self) {
    role_ = Role::kFollower;
    role_cache_.store(Role::kFollower, std::memory_order_release);
    step_downs_.fetch_add(1, std::memory_order_relaxed);
    for (auto& f : followers_) {
      f->stop.store(true, std::memory_order_release);
      retired_.push_back(f);
    }
    followers_.clear();
  }
  last_contact_ms_.store(NowMs(), std::memory_order_release);
  // Wake quorum waiters: demotion fails them with Unavailable.
  state_cv_.SignalAll();
}

void ReplicaGroup::Promote(uint64_t new_epoch) {
  // Freeze applies while the role flips, then restart the log's offset
  // space at what this member durably holds: every other member gets a
  // wholesale snapshot, so pre-promotion history need not be shippable.
  MutexLock apply_lock(apply_mu_);
  const uint64_t durable = applied_next_.load(std::memory_order_acquire);
  log_.Reset(durable);
  MutexLock lock(state_mu_);
  if (new_epoch <= epoch_) return;
  epoch_ = new_epoch;
  epoch_cache_.store(new_epoch, std::memory_order_release);
  role_ = Role::kLeader;
  role_cache_.store(Role::kLeader, std::memory_order_release);
  leader_ = options_.self;
  promotions_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& m : options_.members) {
    if (m == options_.self) continue;
    auto f = std::make_shared<FollowerState>();
    f->endpoint = m;
    f->next.store(durable, std::memory_order_relaxed);
    f->acked.store(0, std::memory_order_relaxed);
    f->needs_snapshot.store(true, std::memory_order_relaxed);
    followers_.push_back(f);
    f->sender = std::thread(&ReplicaGroup::SenderLoop, this, f);
  }
  state_cv_.SignalAll();
}

void ReplicaGroup::ForcePromote() { Promote(epoch() + 1); }

void ReplicaGroup::TryRegister() {
  const std::string target = leader_endpoint();
  if (target.empty() || target == options_.self) return;
  auto connected = rpc::RemoteService::Connect(target, SenderConnOptions());
  if (!connected.ok()) return;
  Bytes req;
  EncodeStatusRequest(true, options_.self,
                      applied_next_.load(std::memory_order_acquire), &req);
  auto resp = connected.value()->Call(rpc::FrameType::kReplStatus, Slice(req));
  if (!resp.ok()) return;
  GroupStatus st;
  if (!DecodeStatus(Slice(resp.value()), &st).ok()) return;
  if (st.epoch > epoch()) {
    AdoptLeader(st.epoch, st.leader);
  } else if (static_cast<Role>(st.role) != Role::kLeader &&
             !st.leader.empty() && st.leader != target) {
    // Redirect: the probed member believes someone else leads; follow
    // the hint on the next tick.
    MutexLock lock(state_mu_);
    if (st.epoch >= epoch_) leader_ = st.leader;
  }
  if (static_cast<Role>(st.role) == Role::kLeader) {
    // Registered with a live leader; its heartbeats take over.
    last_contact_ms_.store(NowMs(), std::memory_order_release);
  }
}

void ReplicaGroup::TryPromote() {
  const uint64_t my_epoch = epoch();
  const uint64_t my_durable = applied_next_.load(std::memory_order_acquire);
  size_t self_index = 0;
  for (size_t i = 0; i < options_.members.size(); ++i) {
    if (options_.members[i] == options_.self) self_index = i;
  }
  size_t reachable = 1;  // self
  uint64_t max_epoch = my_epoch;
  bool defer = false;
  for (size_t i = 0; i < options_.members.size(); ++i) {
    const std::string& member = options_.members[i];
    if (member == options_.self) continue;
    auto connected =
        rpc::RemoteService::Connect(member, SenderConnOptions());
    if (!connected.ok()) continue;
    Bytes req;
    EncodeStatusRequest(false, options_.self, my_durable, &req);
    auto resp =
        connected.value()->Call(rpc::FrameType::kReplStatus, Slice(req));
    if (!resp.ok()) continue;
    GroupStatus st;
    if (!DecodeStatus(Slice(resp.value()), &st).ok()) continue;
    ++reachable;
    max_epoch = std::max(max_epoch, st.epoch);
    if (static_cast<Role>(st.role) == Role::kLeader && st.epoch >= my_epoch) {
      // A live leader answered the probe: adopt, don't elect.
      AdoptLeader(st.epoch, st.leader.empty() ? member : st.leader);
      return;
    }
    if (st.acked > my_durable ||
        (st.acked == my_durable && i < self_index)) {
      // A strictly better candidate (more history, or the member-order
      // tiebreak) is alive: let it claim the epoch.
      defer = true;
    }
  }
  if (reachable < majority_ || defer) return;
  Promote(max_epoch + 1);
}

void ReplicaGroup::MonitorLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      MutexLock lock(state_mu_);
      state_cv_.WaitFor(state_mu_, options_.heartbeat_ms);
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (role_cache_.load(std::memory_order_acquire) == Role::kLeader) {
      // Leaders push; nothing to watch. With no follower registered no
      // ack ever trims, so a lone member trims on this tick.
      TrimAcked();
      continue;
    }
    int64_t silence =
        NowMs() - last_contact_ms_.load(std::memory_order_acquire);
    if (silence > 3 * options_.heartbeat_ms) {
      TryRegister();
      silence = NowMs() - last_contact_ms_.load(std::memory_order_acquire);
    }
    if (options_.auto_promote && silence > options_.election_timeout_ms) {
      TryPromote();
    }
  }
}

// --- introspection ----------------------------------------------------------

void ReplicaGroup::StallFollower(const std::string& endpoint, bool stalled) {
  MutexLock lock(state_mu_);
  for (auto& f : followers_) {
    if (f->endpoint == endpoint) {
      f->stalled.store(stalled, std::memory_order_release);
    }
  }
}

ReplicaGroupStats ReplicaGroup::stats() const {
  ReplicaGroupStats s;
  s.shipments_sent = shipments_sent_.load(std::memory_order_relaxed);
  s.records_shipped = records_shipped_.load(std::memory_order_relaxed);
  s.records_applied = records_applied_.load(std::memory_order_relaxed);
  s.snapshots_sent = snapshots_sent_.load(std::memory_order_relaxed);
  s.snapshots_applied = snapshots_applied_.load(std::memory_order_relaxed);
  s.quorum_commits = quorum_commits_.load(std::memory_order_relaxed);
  s.quorum_timeouts = quorum_timeouts_.load(std::memory_order_relaxed);
  s.apply_errors = apply_errors_.load(std::memory_order_relaxed);
  s.stale_rejections = stale_rejections_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.step_downs = step_downs_.load(std::memory_order_relaxed);
  s.log_retained_records = log_.retained();
  return s;
}

}  // namespace repl
}  // namespace fb
