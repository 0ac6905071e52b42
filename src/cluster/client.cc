#include "cluster/client.h"

#include <algorithm>
#include <cassert>

namespace fb {

// ---------------------------------------------------------------------------
// ClientChunkStore
// ---------------------------------------------------------------------------

Status ClientChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  return instances_[InstanceOf(cid)]->Put(cid, chunk);
}

Status ClientChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  return GetFromAny(instances_, InstanceOf(cid), cid, chunk);
}

bool ClientChunkStore::Contains(const Hash& cid) const {
  for (const ChunkStore* instance : instances_) {
    if (instance->Contains(cid)) return true;
  }
  return false;
}

Status ClientChunkStore::PutBatch(const ChunkBatch& batch) {
  std::vector<size_t> dst(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) dst[i] = InstanceOf(batch[i].first);
  return PutBatchByInstance(instances_, batch, dst);
}

ChunkStoreStats ClientChunkStore::stats() const {
  ChunkStoreStats total;
  for (const ChunkStore* instance : instances_) {
    total.Accumulate(instance->stats());
  }
  return total;
}

// ---------------------------------------------------------------------------
// ClusterClient: construction / teardown
// ---------------------------------------------------------------------------

ClusterClient::ClusterClient(Cluster* cluster, ClusterClientOptions options)
    : ClusterClient(cluster, std::move(options), {}) {
  assert(cluster_ != nullptr);
  assert(options_.endpoints.empty() &&
         "use ClusterClient::Connect for remote endpoints");
}

ClusterClient::ClusterClient(
    Cluster* cluster, ClusterClientOptions options,
    std::vector<std::unique_ptr<rpc::RemoteService>> remotes)
    : cluster_(cluster),
      options_(std::move(options)),
      remotes_(std::move(remotes)),
      n_shards_(cluster != nullptr ? cluster->num_servlets()
                                   : remotes_.size()),
      // A remote client adopts the servers' chunking parameters (every
      // servlet of one deployment shares a DBOptions, so the first one
      // speaks for all).
      tree_config_(cluster != nullptr ? cluster->options().db.tree
                                      : remotes_[0]->tree_config()),
      chunk_view_([&] {
        if (cluster != nullptr) return cluster->instances();
        std::vector<ChunkStore*> stores;
        for (const auto& r : remotes_) stores.push_back(r->store());
        return stores;
      }()) {
  workers_.reserve(n_shards_);
  for (size_t i = 0; i < n_shards_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    // In-process shards share the chunk pool; a remote server that
    // advertised peers in the kHello handshake resolves chunk misses
    // from them. Either way any uid is serveable there.
    if (cluster_ != nullptr || remotes_[i]->server_peer_count() > 0) {
      any_uid_shards_.push_back(i);
    }
  }
  replicas_.resize(n_shards_);
  {
    MutexLock lock(redirect_mu_);
    redirect_.resize(n_shards_);
  }
  for (size_t i = 0; i < n_shards_ && i < options_.read_replicas.size();
       ++i) {
    for (const auto& ep : options_.read_replicas[i]) {
      if (ep.empty()) continue;
      rpc::RemoteServiceOptions ro;
      ro.pool_size = options_.remote_pool_size;
      auto conn = rpc::RemoteService::Connect(ep, ro);
      // An unreachable replica is skipped, not fatal: the primary
      // still serves everything.
      if (conn.ok()) replicas_[i].push_back(std::move(conn).value());
    }
  }
  // Worker threads start lazily on the first Submit(): a synchronous-only
  // client never pays for them.
}

Result<std::unique_ptr<ClusterClient>> ClusterClient::Connect(
    Cluster* cluster, ClusterClientOptions options) {
  if ((cluster == nullptr) == options.endpoints.empty()) {
    return Status::InvalidArgument(
        "a cluster client needs either a Cluster or an endpoint list, not "
        "both");
  }
  std::vector<std::unique_ptr<rpc::RemoteService>> remotes;
  for (const std::string& ep : options.endpoints) {
    rpc::RemoteServiceOptions ro;
    ro.pool_size = options.remote_pool_size;
    FB_ASSIGN_OR_RETURN(auto remote, rpc::RemoteService::Connect(ep, ro));
    remotes.push_back(std::move(remote));
  }
  return std::unique_ptr<ClusterClient>(
      new ClusterClient(cluster, std::move(options), std::move(remotes)));
}

void ClusterClient::EnsureWorkersStarted() {
  std::call_once(workers_started_, [this] {
    for (size_t i = 0; i < workers_.size(); ++i) {
      workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
    }
  });
}

ClusterClient::~ClusterClient() {
  for (auto& w : workers_) {
    {
      MutexLock lock(w->mu);
      w->stop = true;
    }
    w->cv.SignalAll();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ClusterClient::Flush() {
  for (auto& w : workers_) {
    MutexLock lock(w->mu);
    while (w->inflight != 0) w->idle_cv.Wait(w->mu);
  }
}

// ---------------------------------------------------------------------------
// Synchronous dispatch
// ---------------------------------------------------------------------------

static bool VersionAddressed(CommandOp op);

Reply ClusterClient::ExecuteOn(size_t idx, const Command& cmd) {
  if (VersionAddressed(cmd.op)) {
    version_dispatches_.fetch_add(1, std::memory_order_relaxed);
  }
  // Remote servlet: the real socket transport IS the round-trip.
  if (cluster_ == nullptr) return ExecuteRemote(idx, cmd);

  // Simulated RPC: the command crosses to the servlet, and the reply
  // back to the client, as serialized bytes.
  Result<Command> parsed = Command::Parse(Slice(cmd.Serialize()));
  if (!parsed.ok()) return Reply::FromStatus(parsed.status());
  const Reply reply = ApplyCommand(cluster_->servlet(idx), *parsed);
  Result<Reply> returned = Reply::Parse(Slice(reply.Serialize()));
  if (!returned.ok()) return Reply::FromStatus(returned.status());
  return std::move(*returned);
}

Reply ClusterClient::ExecuteRemote(size_t idx, const Command& cmd) {
  // Version-addressed reads spread across the shard's replication
  // group: a caught-up follower serves them from its own branch view
  // and store (chunk misses peer-fetch server-side).
  if (VersionAddressed(cmd.op) && idx < replicas_.size() &&
      !replicas_[idx].empty()) {
    const size_t fanout = replicas_[idx].size() + 1;  // + primary
    const size_t pick =
        replica_rr_.fetch_add(1, std::memory_order_relaxed) % fanout;
    if (pick > 0) {
      replica_reads_.fetch_add(1, std::memory_order_relaxed);
      return replicas_[idx][pick - 1]->Execute(cmd);
    }
  }
  std::shared_ptr<rpc::RemoteService> redirected;
  {
    MutexLock lock(redirect_mu_);
    if (idx < redirect_.size()) redirected = redirect_[idx];
  }
  rpc::RemoteService* primary =
      redirected != nullptr ? redirected.get() : remotes_[idx].get();
  Reply reply = primary->Execute(cmd);
  // Leader re-discovery: ONLY on an explicit not-leader bounce. A
  // transport error is never retried elsewhere — the sent command may
  // have committed on the old primary.
  if (reply.code == StatusCode::kUnavailable) {
    static constexpr char kTag[] = "leader=";
    const size_t pos = reply.message.find(kTag);
    if (pos != std::string::npos) {
      const std::string ep = reply.message.substr(pos + sizeof(kTag) - 1);
      if (!ep.empty() && ep != primary->endpoint()) {
        rpc::RemoteServiceOptions ro;
        ro.pool_size = options_.remote_pool_size;
        auto fresh = rpc::RemoteService::Connect(ep, ro);
        if (fresh.ok()) {
          std::shared_ptr<rpc::RemoteService> next = std::move(fresh).value();
          {
            MutexLock lock(redirect_mu_);
            if (redirect_.size() <= idx) redirect_.resize(idx + 1);
            redirect_[idx] = next;
          }
          leader_redirects_.fetch_add(1, std::memory_order_relaxed);
          return next->Execute(cmd);
        }
      }
    }
  }
  return reply;
}

// True for commands addressed by version rather than key: any shard
// that can reach the chunks can serve them.
static bool VersionAddressed(CommandOp op) {
  return op == CommandOp::kGetByUid || op == CommandOp::kTrackFromUid ||
         op == CommandOp::kDiffSorted || op == CommandOp::kDiffBlob;
}

bool ClusterClient::RouteOf(const Command& cmd, size_t* idx) const {
  if (cmd.op == CommandOp::kListKeys || cmd.op == CommandOp::kPutMany) {
    return false;  // fan-out
  }
  if (VersionAddressed(cmd.op)) {
    version_commands_.fetch_add(1, std::memory_order_relaxed);
    // One shard, no retries, spread by uid across the shards that can
    // serve any uid. A remote server without peers (no `forkbased
    // --peers`) can only serve uids it committed itself, so it is
    // skipped when a capable shard exists. With none (multi-shard remote
    // deployment, no --peers anywhere), the uid-routed shard may honestly
    // answer NotFound for an object another shard holds: such
    // deployments need peer fetch enabled for version-addressed reads.
    const uint64_t spread = cmd.uid.Low64();
    if (any_uid_shards_.empty()) {
      *idx = static_cast<size_t>(spread % n_shards_);
    } else {
      *idx = any_uid_shards_[static_cast<size_t>(spread %
                                                 any_uid_shards_.size())];
    }
    return true;
  }
  *idx = ShardOfKey(cmd.key, n_shards_);
  return true;
}

Reply ClusterClient::ExecuteFanOut(const Command& cmd) {
  // ListKeys: union every servlet's shard (sorted for determinism).
  Reply out;
  for (size_t i = 0; i < n_shards_; ++i) {
    Reply shard = ExecuteOn(i, cmd);
    if (!shard.ok()) return shard;
    out.keys.insert(out.keys.end(),
                    std::make_move_iterator(shard.keys.begin()),
                    std::make_move_iterator(shard.keys.end()));
  }
  std::sort(out.keys.begin(), out.keys.end());
  return out;
}

Reply ClusterClient::ExecutePutMany(const Command& cmd) {
  // Partition pairs by owning servlet, bulk-commit each partition, then
  // reassemble the uids in input order. Partitions commit independently:
  // an error reports the first failure, with earlier partitions already
  // durable (same at-least-partial semantics as crashing mid-bulk-load).
  const size_t n = n_shards_;
  std::vector<std::vector<size_t>> by_servlet(n);
  for (size_t i = 0; i < cmd.kvs.size(); ++i) {
    by_servlet[ShardOfKey(cmd.kvs[i].first, n)].push_back(i);
  }
  Reply out;
  out.uids.resize(cmd.kvs.size());
  for (size_t s = 0; s < n; ++s) {
    if (by_servlet[s].empty()) continue;
    Command sub;
    sub.op = CommandOp::kPutMany;
    sub.branch = cmd.branch;
    sub.context = cmd.context;
    sub.kvs.reserve(by_servlet[s].size());
    for (size_t i : by_servlet[s]) sub.kvs.push_back(cmd.kvs[i]);
    Reply reply = ExecuteOn(s, sub);
    if (!reply.ok()) return reply;
    if (reply.uids.size() != by_servlet[s].size()) {
      return Reply::FromStatus(
          Status::Internal("PutMany partition returned wrong uid count"));
    }
    for (size_t j = 0; j < by_servlet[s].size(); ++j) {
      out.uids[by_servlet[s][j]] = reply.uids[j];
    }
  }
  return out;
}

Reply ClusterClient::Execute(const Command& cmd) {
  switch (cmd.op) {
    case CommandOp::kListKeys:
      return ExecuteFanOut(cmd);
    case CommandOp::kPutMany:
      return ExecutePutMany(cmd);
    default: {
      size_t idx = 0;
      if (!RouteOf(cmd, &idx)) {
        return Reply::FromStatus(Status::Internal("unroutable command"));
      }
      return ExecuteOn(idx, cmd);
    }
  }
}

// ---------------------------------------------------------------------------
// Asynchronous dispatch with Put coalescing
// ---------------------------------------------------------------------------

std::future<Reply> ClusterClient::Submit(Command cmd) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  Pending p;
  p.cmd = std::move(cmd);
  std::future<Reply> future = p.promise.get_future();

  size_t idx = 0;
  if (!RouteOf(p.cmd, &idx)) {
    // Fan-out commands have no single owner queue; drain every queue
    // first so same-thread submission order holds (a PutMany or
    // ListKeys submitted after a Put observes that Put), then run
    // inline on the submitting thread.
    Flush();
    p.promise.set_value(Execute(p.cmd));
    return future;
  }

  EnsureWorkersStarted();
  Worker& w = *workers_[idx];
  {
    MutexLock lock(w.mu);
    if (w.stop) {
      p.promise.set_value(
          Reply::FromStatus(Status::Internal("client shut down")));
      return future;
    }
    ++w.inflight;
    w.queue.push_back(std::move(p));
  }
  w.cv.Signal();
  return future;
}

// True when the command is a plain fork-on-demand Put that can join a
// PutMany group commit (guards and bases pin ordering; other ops have
// their own semantics).
static bool Coalescible(const Command& cmd) {
  return cmd.op == CommandOp::kPut;
}

// Cap on one coalesced group: bounds the earliest-queued put's latency
// (its future waits for the whole group) and the envelope size under a
// deep backlog, at negligible throughput cost.
static constexpr size_t kMaxPutGroup = 512;

void ClusterClient::CommitPutRun(size_t idx, std::vector<Pending>* run) {
  if (run->empty()) return;
  if (run->size() == 1) {
    Pending& p = (*run)[0];
    p.promise.set_value(ExecuteOn(idx, p.cmd));
    run->clear();
    return;
  }

  Command group;
  group.op = CommandOp::kPutMany;
  group.branch = (*run)[0].cmd.branch;
  group.context = (*run)[0].cmd.context;
  group.kvs.reserve(run->size());
  for (const Pending& p : *run) {
    group.kvs.emplace_back(p.cmd.key, p.cmd.value);
  }
  Reply reply = ExecuteOn(idx, group);

  put_groups_.fetch_add(1, std::memory_order_relaxed);
  coalesced_puts_.fetch_add(run->size(), std::memory_order_relaxed);
  uint64_t prev = max_group_.load(std::memory_order_relaxed);
  while (prev < run->size() &&
         !max_group_.compare_exchange_weak(prev, run->size(),
                                           std::memory_order_relaxed)) {
  }

  if (!reply.ok() || reply.uids.size() != run->size()) {
    const Status failure = reply.ok()
        ? Status::Internal("PutMany group returned wrong uid count")
        : reply.ToStatus();
    for (Pending& p : *run) p.promise.set_value(Reply::FromStatus(failure));
  } else {
    for (size_t i = 0; i < run->size(); ++i) {
      Reply one;
      one.uid = reply.uids[i];
      (*run)[i].promise.set_value(std::move(one));
    }
  }
  run->clear();
}

void ClusterClient::WorkerLoop(size_t idx) {
  Worker& w = *workers_[idx];
  for (;;) {
    std::deque<Pending> drained;
    {
      MutexLock lock(w.mu);
      while (!w.stop && w.queue.empty()) w.cv.Wait(w.mu);
      if (w.queue.empty() && w.stop) return;
      drained.swap(w.queue);
    }

    // Walk the drained batch in order; consecutive coalescible Puts with
    // the same branch+context form one PutMany group commit. A repeated
    // key splits the run: PutMany snapshots all bases up front, so two
    // Puts of one key in the same group would commit as siblings instead
    // of chaining — the second must see the first's head.
    const size_t drained_count = drained.size();
    std::vector<Pending> run;
    std::unordered_set<std::string> run_keys;
    for (Pending& p : drained) {
      if (Coalescible(p.cmd)) {
        if (!run.empty() && (run.size() >= kMaxPutGroup ||
                             run[0].cmd.branch != p.cmd.branch ||
                             run[0].cmd.context != p.cmd.context ||
                             run_keys.count(p.cmd.key) != 0)) {
          CommitPutRun(idx, &run);
          run_keys.clear();
        }
        run_keys.insert(p.cmd.key);
        run.push_back(std::move(p));
        continue;
      }
      CommitPutRun(idx, &run);
      run_keys.clear();
      p.promise.set_value(ExecuteOn(idx, p.cmd));
    }
    CommitPutRun(idx, &run);

    {
      MutexLock lock(w.mu);
      w.inflight -= drained_count;
      if (w.inflight == 0) w.idle_cv.SignalAll();
    }
  }
}

ClusterClient::SubmitStats ClusterClient::submit_stats() const {
  SubmitStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.put_groups = put_groups_.load(std::memory_order_relaxed);
  s.coalesced_puts = coalesced_puts_.load(std::memory_order_relaxed);
  s.max_group = max_group_.load(std::memory_order_relaxed);
  return s;
}

ClusterClient::RouteStats ClusterClient::route_stats() const {
  RouteStats s;
  s.version_commands = version_commands_.load(std::memory_order_relaxed);
  s.version_dispatches = version_dispatches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fb
