// ClusterClient: the client-side implementation of ForkBaseService over a
// cluster deployment (Sections 4.1 / 4.6). A client drives ONE
// deployment: either every servlet of an in-process Cluster, or every
// servlet behind a remote endpoint (`forkbased` processes, possibly
// replication groups) — never a mix.
//
// Every command goes through the dispatcher: key-addressed operations
// route to the owning servlet, version-addressed operations route by uid
// to a servlet that can serve any uid — every in-process servlet (they
// share the chunk pool), or every remote servlet that resolves chunk
// misses from its peers — so every command executes on EXACTLY ONE
// shard, no client-side retries. Multi-key operations fan out:
//
//   * ListKeys unions the key sets of ALL servlets. (Asking one servlet,
//     as the retired Route(key)->ListKeys() pattern did, returns only
//     that servlet's shard — a bug the service tests pin down.)
//   * PutMany partitions its pairs by owning servlet, issues one bulk
//     sub-command per servlet, and reassembles the uids in input order.
//
// Commands and replies cross the client/servlet boundary through their
// byte-stable serialized form: remote servlets over RemoteService
// connections, in-process servlets by a Serialize -> Parse round trip in
// both directions, so the in-process path exercises exactly the envelope
// the socket transport carries.
//
// Submit() is the asynchronous path: each servlet has a worker thread
// with a request queue, and the worker coalesces runs of queued plain
// Puts (same branch and context, distinct keys — a repeated key splits
// the run so its versions chain instead of committing as siblings) into
// one PutMany group commit — the client-side analogue of the log's
// group commit. Futures resolve with each command's own Reply.
// Same-thread submission order is preserved per servlet (fan-out
// commands drain all queues before running, so they too observe prior
// submissions); commands submitted concurrently from different threads
// may be reordered relative to each other — await the future when
// cross-thread ordering matters.

#ifndef FORKBASE_CLUSTER_CLIENT_H_
#define FORKBASE_CLUSTER_CLIENT_H_

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/service.h"
#include "cluster/cluster.h"
#include "rpc/remote_service.h"
#include "util/mutex.h"

namespace fb {

struct ClusterClientOptions {
  // Per-servlet endpoints ("host:port" or "unix:/path"), each served by a
  // `forkbased` process. Empty = the servlets of the in-process Cluster
  // given to the constructor or Connect.
  std::vector<std::string> endpoints;
  // Connection pool size per remote endpoint.
  size_t remote_pool_size = 2;
  // Per-shard replica endpoints (read_replicas[i] belongs to shard i of
  // `endpoints`): the other members of that shard's replication group.
  // Version-addressed reads round-robin across primary + replicas
  // (every replica serves them locally); mutating commands always go to
  // the primary, and a "not leader" bounce re-points the primary at the
  // leader the reply named. Unreachable replicas are skipped.
  std::vector<std::vector<std::string>> read_replicas;
};

// The client's view of chunk storage, used to materialize handles and
// build chunkable values client-side: one instance per servlet (the
// Cluster's pool instances, or the remote servlets' stores). Writes
// route every chunk by cid; reads try the cid-routed instance first,
// then every other one (meta chunks and server-built trees live with the
// servlet that wrote them). Client-side construction therefore always
// spreads chunks 2LP-style (the client cannot know the owning servlet at
// chunk-build time); under 1LP — or against remote servlets without
// peers, whose engines only read their own store — use PutBlob-style
// server-side construction when placement must follow the key.
class ClientChunkStore : public ChunkStore {
 public:
  explicit ClientChunkStore(std::vector<ChunkStore*> instances)
      : instances_(std::move(instances)) {}

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  Status PutBatch(const ChunkBatch& batch) override;
  ChunkStoreStats stats() const override;

 private:
  size_t InstanceOf(const Hash& cid) const {
    return static_cast<size_t>(cid.Low64() % instances_.size());
  }

  const std::vector<ChunkStore*> instances_;
};

class ClusterClient : public ForkBaseService {
 public:
  // Client over every servlet of `cluster` (options.endpoints must be
  // empty).
  explicit ClusterClient(Cluster* cluster, ClusterClientOptions options = {});

  // Client over `cluster` (endpoints empty) or over options.endpoints
  // (cluster null). InvalidArgument for both or neither; fails if any
  // endpoint cannot be reached.
  static Result<std::unique_ptr<ClusterClient>> Connect(
      Cluster* cluster, ClusterClientOptions options);

  ~ClusterClient() override;

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  // Synchronous dispatch (routing / fan-out as described above).
  Reply Execute(const Command& cmd) override;

  // Asynchronous dispatch through the owning servlet's worker queue.
  // Plain Puts queued behind each other coalesce into PutMany groups.
  std::future<Reply> Submit(Command cmd);

  // Blocks until every submitted command has completed.
  void Flush();

  ChunkStore* store() const override { return &chunk_view_; }
  const TreeConfig& tree_config() const override { return tree_config_; }

  size_t num_servlets() const { return n_shards_; }

  // Counters for the async batching path (benchmark + test surface).
  struct SubmitStats {
    uint64_t submitted = 0;       // commands handed to Submit()
    uint64_t put_groups = 0;      // coalesced PutMany groups (>= 2 puts)
    uint64_t coalesced_puts = 0;  // puts committed inside such groups
    uint64_t max_group = 0;       // largest group observed
  };
  SubmitStats submit_stats() const;

  // Dispatch accounting (test surface for the no-retry guarantee): a
  // version-addressed command must hit exactly one servlet, so the two
  // counters stay equal — any excess would be a client-side shard retry.
  struct RouteStats {
    uint64_t version_commands = 0;   // version-addressed commands issued
    uint64_t version_dispatches = 0; // servlet executions they caused
  };
  RouteStats route_stats() const;

  // Replica routing accounting (test surface).
  struct ReplicaStats {
    uint64_t replica_reads = 0;     // version-addressed reads a replica served
    uint64_t leader_redirects = 0;  // primaries swapped after a not-leader reply
  };
  ReplicaStats replica_stats() const {
    ReplicaStats s;
    s.replica_reads = replica_reads_.load(std::memory_order_relaxed);
    s.leader_redirects = leader_redirects_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Pending {
    Command cmd;
    std::promise<Reply> promise;
  };
  // Outermost rank: the worker drops mu before executing, so servlet
  // engines (branch / store / cache locks) never nest inside it.
  struct Worker {
    Mutex mu{kRankService, "client-worker"};
    CondVar cv;       // work arrived / stop
    CondVar idle_cv;  // inflight drained to zero
    std::deque<Pending> queue GUARDED_BY(mu);
    uint64_t inflight GUARDED_BY(mu) = 0;  // queued + currently executing
    bool stop GUARDED_BY(mu) = false;
    std::thread thread;
  };

  // Builds the chunk view and worker slots once shards are known:
  // `remotes` is empty for an in-process client, one per shard otherwise.
  ClusterClient(Cluster* cluster, ClusterClientOptions options,
                std::vector<std::unique_ptr<rpc::RemoteService>> remotes);

  // Executes on servlet `idx`: over the socket for a remote deployment,
  // round-tripping through the wire format in-process otherwise.
  Reply ExecuteOn(size_t idx, const Command& cmd);
  // The remote half of ExecuteOn: replica round-robin for
  // version-addressed reads, leader re-discovery on a "not leader"
  // reply (never after a transport error — a sent Put may have
  // committed server-side).
  Reply ExecuteRemote(size_t idx, const Command& cmd);
  Reply ExecuteFanOut(const Command& cmd);
  Reply ExecutePutMany(const Command& cmd);
  // The servlet index a command routes to; false for fan-out commands.
  bool RouteOf(const Command& cmd, size_t* idx) const;
  // Spawns the per-servlet worker threads on the first Submit().
  void EnsureWorkersStarted();
  void WorkerLoop(size_t idx);
  // Commits a coalesced run of plain Puts as one PutMany and resolves
  // each put's promise with its own uid.
  void CommitPutRun(size_t idx, std::vector<Pending>* run);

  Cluster* cluster_;  // null for a remote client
  ClusterClientOptions options_;
  std::vector<std::unique_ptr<rpc::RemoteService>> remotes_;  // per remote shard
  // Replica connections per shard (lazily opened from read_replicas).
  std::vector<std::vector<std::shared_ptr<rpc::RemoteService>>> replicas_;
  // A not-leader bounce re-points shard i here; the original primary
  // connection stays alive (other threads may be mid-call on it).
  mutable Mutex redirect_mu_{kRankService, "client-redirect"};
  std::vector<std::shared_ptr<rpc::RemoteService>> redirect_
      GUARDED_BY(redirect_mu_);
  size_t n_shards_;
  // Shards that can serve any uid: every in-process shard, or the remote
  // shards advertising peer fetch.
  std::vector<size_t> any_uid_shards_;
  TreeConfig tree_config_;
  mutable ClientChunkStore chunk_view_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::once_flag workers_started_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> put_groups_{0};
  std::atomic<uint64_t> coalesced_puts_{0};
  std::atomic<uint64_t> max_group_{0};
  mutable std::atomic<uint64_t> version_commands_{0};  // counted in RouteOf
  std::atomic<uint64_t> version_dispatches_{0};
  std::atomic<uint64_t> replica_rr_{0};
  std::atomic<uint64_t> replica_reads_{0};
  std::atomic<uint64_t> leader_redirects_{0};
};

}  // namespace fb

#endif  // FORKBASE_CLUSTER_CLIENT_H_
