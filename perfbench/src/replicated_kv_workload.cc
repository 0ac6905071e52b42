// `replicated_kv`: the replicated deployment. A ClusterClient talks over
// loopback TCP to a 3-member kQuorum replica group of in-process
// ForkBaseServers (MemChunkStore members, as in the fig8 replicated_put
// phase) with the followers as read replicas. 256 B string values,
// zipf(0.9) keys over a preloaded key space, two client threads taking
// operations from one shared counter: GetValue on the leader, quorum
// Put, and GetByUid of set-up versions (served round-robin by leader and
// replicas, so replica lag never fails a read).
//
// Checks: every read value is one this key was really given (values
// carry their key and version and are regenerated), every GetByUid
// returns the set-up value, every acknowledged write is readable by uid
// on the leader, and the followers' ExportBranchState is byte-identical
// to the leader's once they have caught up.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "replication/group.h"
#include "replication/replicated_store.h"
#include "rpc/server.h"
#include "trace.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kKeys = 20000;
constexpr size_t kValueBytes = 256;
constexpr double kZipfTheta = 0.9;
constexpr double kReadShare = 0.5;
constexpr double kWriteShare = 0.25;  // the rest are history reads
constexpr size_t kClientThreads = 2;
constexpr size_t kServerWorkers = 2;
constexpr size_t kMembers = 3;
constexpr size_t kPreloadBatch = 250;
constexpr double kNominalOpsPerSecond = 12000;

std::string Key(uint32_t i) { return fb::MakeKey(i, 8, "kv"); }

// Version 0 is the set-up value; version i+1 is written by operation i.
std::string KvValue(uint64_t seed, uint32_t key, uint64_t version) {
  std::string v = Key(key) + "#" + std::to_string(version) + "#";
  const fb::Bytes body = fb::MakeValue(
      SubSeed(seed, (static_cast<uint64_t>(key) << 32) ^ (version + 101)),
      kValueBytes - v.size());
  return v + fb::BytesToString(body);
}

enum class OpKind : uint8_t { kRead, kWrite, kHistory };

struct KvOp {
  OpKind kind;
  uint32_t key;
  std::string value;  // writes only
};

struct Member {
  fb::MemChunkStore* raw = nullptr;
  std::unique_ptr<fb::PeerChunkResolver> resolver =
      std::make_unique<fb::PeerChunkResolver>();
  fb::repl::ReplicatingChunkStore* rstore = nullptr;
  std::unique_ptr<fb::ForkBase> engine;
  std::unique_ptr<fb::rpc::ForkBaseServer> server;
  std::unique_ptr<fb::repl::ReplicaGroup> group;
  std::unique_ptr<TimedCommitHook> hook;  // leader, traced pass only
  ~Member() {
    if (server != nullptr) server->Stop();
    if (group != nullptr) group->Stop();
  }
};

struct Deployment {
  Member members[kMembers];
  std::unique_ptr<fb::ClusterClient> client;  // destroyed first
  std::vector<fb::Hash> setup_uids;
  uint64_t user_bytes = 0;
};

fb::Status Deploy(const RunConfig& cfg,
                  const std::vector<std::string>& setup_values,
                  Deployment* d) {
  for (size_t i = 0; i < kMembers; ++i) {
    Member& m = d->members[i];
    auto local = std::make_unique<fb::MemChunkStore>();
    m.raw = local.get();
    auto wrapped = std::make_unique<fb::repl::ReplicatingChunkStore>(
        std::make_unique<fb::ServletChunkStore>(std::move(local),
                                                m.resolver.get()));
    m.rstore = wrapped.get();
    std::unique_ptr<fb::ChunkStore> top = std::move(wrapped);
    if (cfg.traced && i == 0) {
      top = std::make_unique<TimingChunkStore>(std::move(top));
    }
    fb::DBOptions dbo;
    dbo.durability = fb::DurabilityPolicy::kQuorum;
    m.engine = std::make_unique<fb::ForkBase>(dbo, std::move(top));
    fb::rpc::ServerOptions so;
    so.num_workers = kServerWorkers;
    so.local_chunk_store = m.raw;
    so.peer_count = kMembers - 1;
    FB_ASSIGN_OR_RETURN(m.server,
                        fb::rpc::ForkBaseServer::Start(m.engine.get(), so));
  }
  std::vector<std::string> endpoints;
  for (const Member& m : d->members) endpoints.push_back(m.server->endpoint());
  for (size_t i = 0; i < kMembers; ++i) {
    Member& m = d->members[i];
    std::vector<std::string> peers;
    for (size_t j = 0; j < kMembers; ++j) {
      if (j != i) peers.push_back(endpoints[j]);
    }
    m.resolver->SetPeers(peers);
    fb::repl::ReplicaGroupOptions ro;
    ro.members = endpoints;
    ro.self = endpoints[i];
    // A short heartbeat makes follower registration quick; the election
    // timeout lies far beyond any run, so no failover can start.
    ro.heartbeat_ms = 10;
    ro.election_timeout_ms = 600000;
    m.group = std::make_unique<fb::repl::ReplicaGroup>(m.engine.get(),
                                                       m.rstore, ro);
    FB_RETURN_NOT_OK(m.group->Start());
    m.server->set_replication(m.group.get());
  }
  Member& leader = d->members[0];
  if (cfg.traced) {
    leader.hook = std::make_unique<TimedCommitHook>(leader.group.get());
    leader.engine->AttachReplication(leader.group.get(), leader.hook.get());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (leader.group->Snapshot().follower_count < kMembers - 1) {
    if (std::chrono::steady_clock::now() > deadline) {
      return fb::Status::Unavailable("followers did not register");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  fb::ClusterClientOptions co;
  co.endpoints = {endpoints[0]};
  co.read_replicas = {{endpoints[1], endpoints[2]}};
  co.remote_pool_size = kClientThreads;
  FB_ASSIGN_OR_RETURN(d->client, fb::ClusterClient::Connect(nullptr, co));

  d->setup_uids.clear();
  d->user_bytes = 0;
  for (uint32_t k = 0; k < kKeys; k += kPreloadBatch) {
    std::vector<std::pair<std::string, fb::Value>> kvs;
    for (uint32_t j = k; j < std::min<uint32_t>(kKeys, k + kPreloadBatch);
         ++j) {
      d->user_bytes += setup_values[j].size();
      kvs.emplace_back(Key(j), fb::Value::OfString(fb::Slice(setup_values[j])));
    }
    FB_ASSIGN_OR_RETURN(std::vector<fb::Hash> uids, d->client->PutMany(kvs));
    d->setup_uids.insert(d->setup_uids.end(), uids.begin(), uids.end());
  }
  return fb::Status::OK();
}

// Whether `v` is a value key `key` was really given: version 0, or the
// value of a write operation on this key, regenerated byte for byte.
bool KnownValue(const std::string& v, uint32_t key, uint64_t seed,
                const std::vector<KvOp>& ops) {
  const size_t p1 = v.find('#');
  const size_t p2 = p1 == std::string::npos ? p1 : v.find('#', p1 + 1);
  if (p2 == std::string::npos || v.compare(0, p1, Key(key)) != 0) {
    return false;
  }
  const uint64_t version = std::strtoull(v.c_str() + p1 + 1, nullptr, 10);
  if (version > ops.size()) return false;
  if (version > 0) {
    const KvOp& op = ops[version - 1];
    if (op.kind != OpKind::kWrite || op.key != key) return false;
    return op.value == v;
  }
  return v == KvValue(seed, key, 0);
}

struct ThreadOut {
  fb::LatencyRecorder read, write, history;
  uint64_t failed = 0;
  std::vector<std::pair<fb::Hash, uint64_t>> acked;  // uid, op index
  std::vector<std::string> errors;
};

}  // namespace

RoundResult RunReplicatedKv(const RunConfig& cfg) {
  RoundResult r;
  r.env = {{"backend", "kMem (MemChunkStore per member)"},
           {"durability", "kQuorum (2 of 3)"},
           {"members", std::to_string(kMembers)},
           {"transport", "loopback tcp"},
           {"client_threads", std::to_string(kClientThreads)},
           {"client_connections",
            std::to_string(kClientThreads) + " to the leader, " +
                std::to_string(kClientThreads) + " per replica"},
           {"server_workers", std::to_string(kServerWorkers) + " per member"}};

  const uint64_t n_ops = cfg.RoundOps(kNominalOpsPerSecond);
  const uint64_t seed = cfg.round_seed();
  std::vector<KvOp> ops;
  {
    fb::Rng rng(SubSeed(seed, 21));
    fb::ZipfGenerator zipf(kKeys, kZipfTheta, SubSeed(seed, 22));
    ops.reserve(n_ops);
    for (uint64_t i = 0; i < n_ops; ++i) {
      KvOp op;
      op.key = static_cast<uint32_t>(zipf.Next());
      const double u = rng.NextDouble();
      op.kind = u < kReadShare                ? OpKind::kRead
                : u < kReadShare + kWriteShare ? OpKind::kWrite
                                               : OpKind::kHistory;
      if (op.kind == OpKind::kWrite) op.value = KvValue(seed, op.key, i + 1);
      ops.push_back(std::move(op));
    }
  }
  std::vector<std::string> setup_values(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) setup_values[k] = KvValue(seed, k, 0);

  auto d = std::make_unique<Deployment>();
  fb::Timer setup;
  const fb::Status st = Deploy(cfg, setup_values, d.get());
  r.setup_s = setup.ElapsedSeconds();
  if (!st.ok()) {
    r.Error("replicated_kv set-up failed: " + st.ToString());
    return r;
  }
  Member& leader = d->members[0];
  fb::ClusterClient& client = *d->client;

  // --- timed phase -------------------------------------------------------
  if (cfg.traced) Tracer::Resume();
  const fb::ChunkStoreStats s0 = leader.engine->store()->stats();
  const fb::HotHeadCacheStats h0 = leader.engine->hot_head_stats();
  const fb::repl::ReplicaGroupStats g0 = leader.group->stats();
  const fb::ClusterClient::ReplicaStats c0 = client.replica_stats();
  uint64_t requests0 = 0, follower_gets0 = 0;
  for (size_t i = 0; i < kMembers; ++i) {
    requests0 += d->members[i].server->stats().requests;
    if (i > 0) follower_gets0 += d->members[i].engine->store()->stats().gets;
  }
  std::atomic<uint64_t> next{0};
  std::vector<ThreadOut> outs(kClientThreads);
  const double cpu0 = CpuSeconds();
  fb::Timer phase;
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, out = &outs[t]] {
        for (;;) {
          const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= ops.size()) break;
          if (cfg.traced) Tracer::SetRequest(i + 1);
          const KvOp& op = ops[i];
          fb::Timer timer;
          if (op.kind == OpKind::kRead) {
            fb::Result<fb::ValueReadout> got = fb::Status::Internal("unset");
            {
              ScopedSpan span("kv.read");
              got = client.GetValue(Key(op.key));
            }
            out->read.Record(timer.ElapsedMicros());
            if (!got.ok()) {
              ++out->failed;
            } else if (!got->has_value ||
                       !KnownValue(fb::BytesToString(got->value), op.key,
                                   seed, ops)) {
              out->errors.push_back("GetValue of " + Key(op.key) +
                                    " returned a value it was never given");
            }
          } else if (op.kind == OpKind::kWrite) {
            fb::Result<fb::Hash> uid = fb::Status::Internal("unset");
            {
              ScopedSpan span("kv.write");
              uid = client.Put(Key(op.key),
                               fb::Value::OfString(fb::Slice(op.value)));
            }
            out->write.Record(timer.ElapsedMicros());
            if (uid.ok()) {
              out->acked.emplace_back(*uid, i);
            } else {
              ++out->failed;  // a quorum Unavailable lands here
            }
          } else {
            fb::Result<fb::FObject> obj = fb::Status::Internal("unset");
            {
              ScopedSpan span("kv.history");
              obj = client.GetByUid(d->setup_uids[op.key]);
            }
            out->history.Record(timer.ElapsedMicros());
            if (!obj.ok()) {
              ++out->failed;
            } else if (obj->value().AsString() != setup_values[op.key]) {
              out->errors.push_back("GetByUid of the set-up version of " +
                                    Key(op.key) + " differs");
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  r.elapsed_s = phase.ElapsedSeconds();
  r.cpu_s = CpuSeconds() - cpu0;
  if (cfg.traced) Tracer::Stop();
  r.attempted = ops.size();

  const fb::ChunkStoreStats s1 = leader.engine->store()->stats();
  const fb::HotHeadCacheStats h1 = leader.engine->hot_head_stats();
  const fb::repl::ReplicaGroupStats g1 = leader.group->stats();
  const fb::ClusterClient::ReplicaStats c1 = client.replica_stats();
  uint64_t requests1 = 0;
  for (const Member& m : d->members) requests1 += m.server->stats().requests;
  const uint64_t log_end = leader.group->durable_offset();

  for (const ThreadOut& o : outs) {
    r.failed += o.failed;
    for (const std::string& e : o.errors) r.Error(e);
    Append(&r.read, o.read);
    Append(&r.write, o.write);
    Append(&r.history, o.history);
  }
  const uint64_t writes = r.write.count();
  const uint64_t histories = r.history.count();

  // --- output checks -----------------------------------------------------
  for (const ThreadOut& o : outs) {
    for (const auto& [uid, i] : o.acked) {
      auto obj = leader.engine->GetByUid(uid);
      if (!obj.ok() || obj->value().AsString() != ops[i].value) {
        r.Error("acknowledged write " + std::to_string(i) +
                " is not readable on the leader");
      }
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool caught_up = false;
  while (!caught_up && std::chrono::steady_clock::now() < deadline) {
    caught_up = true;
    for (size_t i = 1; i < kMembers; ++i) {
      caught_up = caught_up && d->members[i].group->durable_offset() >= log_end;
    }
    if (!caught_up) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t follower_gets1 = 0;
  for (size_t i = 1; i < kMembers; ++i) {
    follower_gets1 += d->members[i].engine->store()->stats().gets;
  }
  if (!caught_up) {
    r.Error("followers did not catch up with the leader's log");
  } else {
    auto want = leader.engine->ExportBranchState();
    for (size_t i = 1; i < kMembers; ++i) {
      auto got = d->members[i].engine->ExportBranchState();
      if (!want.ok() || !got.ok() || *want != *got) {
        r.Error("follower " + std::to_string(i) +
                " branch state differs from the leader's");
      }
    }
  }

  // --- metrics -----------------------------------------------------------
  const double timed_user = static_cast<double>(writes * kValueBytes);
  r.space_amp = Ratio(static_cast<double>(s1.stored_bytes),
                      static_cast<double>(d->user_bytes) + timed_user);
  const double puts = static_cast<double>(s1.puts - s0.puts);
  r.layer.Set("chunk.put_bytes_per_user_byte",
              Ratio(static_cast<double>(s1.logical_bytes - s0.logical_bytes),
                    timed_user),
              "ratio");
  r.layer.Set("chunk.puts_per_txn", Ratio(puts, static_cast<double>(writes)),
              "ratio");
  r.layer.Set("chunk.dedup_ratio",
              Ratio(static_cast<double>(s1.dedup_hits - s0.dedup_hits), puts),
              "ratio");
  const double replica_reads =
      static_cast<double>(c1.replica_reads - c0.replica_reads);
  r.layer.Set("chunk.gets_per_history_read",
              Ratio(static_cast<double>(follower_gets1 - follower_gets0),
                    replica_reads),
              "ratio");
  const double hh_hits = static_cast<double>(h1.hits - h0.hits);
  r.layer.Set("api.hot_head_hit_ratio",
              Ratio(hh_hits, hh_hits + static_cast<double>(h1.misses - h0.misses)),
              "ratio");
  r.layer.Set("repl.records_per_shipment",
              Ratio(static_cast<double>(g1.records_shipped - g0.records_shipped),
                    static_cast<double>(g1.shipments_sent - g0.shipments_sent)),
              "ratio");
  r.layer.Set("repl.quorum_timeouts",
              static_cast<double>(g1.quorum_timeouts - g0.quorum_timeouts),
              "count");
  r.layer.Set("repl.log_records", static_cast<double>(log_end), "count");
  r.layer.Set("rpc.requests_per_op",
              Ratio(static_cast<double>(requests1 - requests0),
                    static_cast<double>(ops.size())),
              "ratio");
  r.layer.Set("cluster.replica_read_share",
              Ratio(replica_reads, static_cast<double>(histories)), "ratio");
  r.layer.Set("cluster.leader_redirects",
              static_cast<double>(c1.leader_redirects - c0.leader_redirects),
              "count");
  return r;
}

}  // namespace perfbench
