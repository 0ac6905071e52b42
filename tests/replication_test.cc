// Tests for the replication & HA subsystem (src/replication):
//
//  * Record / log — encode/decode round-trips for every record kind, the
//    torn-record taxonomy, offset bookkeeping, Reset and TrimTo
//    compaction.
//  * Shipment codecs — append/ack/snapshot/status wire payloads.
//  * Torn-shipment recovery — a shipment cut mid-record applies its
//    intact prefix, acks it, and a resend converges without
//    double-applying (the count-based skip).
//  * M1-M17 parity — a leader driven through the mutating command
//    surface and its caught-up followers export BYTE-IDENTICAL branch
//    state; followers serve version-addressed reads locally and bounce
//    mutating commands at the leader.
//  * Quorum durability — kQuorum commits block until a MAJORITY acks:
//    a 3-member group with one stalled follower still commits, with two
//    stalled it times out with Unavailable (the local commit stands).
//  * Log retention — the leader trims what every follower acked and
//    followers keep no records; a stalled follower pins the log and
//    catches up by replay; a restarted follower behind the trimmed
//    prefix converges by snapshot.
//  * Stale-leader rejection — a shipment with a bygone epoch is refused
//    with kAckStaleEpoch and the ex-leader steps down.
//  * Failover — kill the leader, a follower promotes, every
//    majority-acked write survives, and the new leader takes writes.
//  * Client routing — a "not leader" bounce re-points the client at the
//    leader; version-addressed reads round-robin onto replicas.
//  * Incremental SetPeers — a newly added peer serves fetches without
//    reconnecting the existing ones.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "replication/group.h"
#include "replication/log.h"
#include "replication/replicated_store.h"
#include "rpc/remote_service.h"
#include "rpc/server.h"

namespace fb {
namespace {

DBOptions SmallOpts() {
  DBOptions o;
  o.tree.leaf_pattern_bits = 7;
  o.tree.index_pattern_bits = 3;
  return o;
}

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Polls `pred` until it holds or `timeout_ms` elapses.
template <typename Pred>
bool WaitUntil(Pred pred, int64_t timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    SleepMs(5);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Record / log
// ---------------------------------------------------------------------------

TEST(ReplRecordTest, EveryKindRoundTrips) {
  std::vector<repl::ReplRecord> records;

  repl::ReplRecord chunk;
  chunk.kind = repl::ReplRecord::Kind::kChunk;
  chunk.cid = Hash::Of(Slice("some chunk"));
  chunk.chunk_bytes = ToBytes("serialized chunk bytes");
  records.push_back(chunk);

  repl::ReplRecord set;
  set.kind = repl::ReplRecord::Kind::kSetHead;
  set.key = "key";
  set.branch = "master";
  set.head = Hash::Of(Slice("head"));
  records.push_back(set);

  repl::ReplRecord rename;
  rename.kind = repl::ReplRecord::Kind::kRenameBranch;
  rename.key = "key";
  rename.branch = "old";
  rename.new_branch = "new";
  records.push_back(rename);

  repl::ReplRecord replace;
  replace.kind = repl::ReplRecord::Kind::kReplaceUntagged;
  replace.key = "key";
  replace.head = Hash::Of(Slice("merged"));
  replace.old_heads = {Hash::Of(Slice("a")), Hash::Of(Slice("b"))};
  records.push_back(replace);

  repl::ReplRecord import;
  import.kind = repl::ReplRecord::Kind::kImportAll;
  import.state = ToBytes("exported state");
  records.push_back(import);

  Bytes wire;
  for (const auto& r : records) r.EncodeTo(&wire);

  ByteReader reader{Slice(wire)};
  for (const auto& want : records) {
    repl::ReplRecord got;
    ASSERT_TRUE(repl::ReplRecord::DecodeFrom(&reader, &got).ok());
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.cid, want.cid);
    EXPECT_EQ(got.chunk_bytes, want.chunk_bytes);
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.branch, want.branch);
    EXPECT_EQ(got.new_branch, want.new_branch);
    EXPECT_EQ(got.head, want.head);
    EXPECT_EQ(got.old_heads, want.old_heads);
    EXPECT_EQ(got.state, want.state);
  }
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ReplRecordTest, TornEncodingIsCorruption) {
  repl::ReplRecord rec;
  rec.kind = repl::ReplRecord::Kind::kSetHead;
  rec.key = "key";
  rec.branch = "master";
  rec.head = Hash::Of(Slice("head"));
  Bytes wire;
  rec.EncodeTo(&wire);

  // Every proper prefix is torn: never OK, never a crash.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes torn(wire.begin(), wire.begin() + cut);
    ByteReader reader{Slice(torn)};
    repl::ReplRecord got;
    EXPECT_FALSE(repl::ReplRecord::DecodeFrom(&reader, &got).ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ReplicationLogTest, OffsetsReadsAndReset) {
  repl::ReplicationLog log;
  EXPECT_EQ(log.begin_offset(), 0u);
  EXPECT_EQ(log.end_offset(), 0u);

  repl::ReplRecord rec;
  rec.kind = repl::ReplRecord::Kind::kSetHead;
  rec.branch = "master";
  for (int i = 0; i < 5; ++i) {
    rec.key = "k" + std::to_string(i);
    rec.head = Hash::Of(Slice(rec.key));
    EXPECT_EQ(log.Append(rec), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(log.end_offset(), 5u);

  Bytes out;
  uint64_t next = 0, count = 0;
  ASSERT_TRUE(log.ReadEncoded(2, SIZE_MAX, &out, &next, &count).ok());
  EXPECT_EQ(next, 5u);
  EXPECT_EQ(count, 3u);
  ByteReader reader{Slice(out)};
  repl::ReplRecord got;
  ASSERT_TRUE(repl::ReplRecord::DecodeFrom(&reader, &got).ok());
  EXPECT_EQ(got.key, "k2");

  // A byte cap still makes progress: at least one record per read.
  ASSERT_TRUE(log.ReadEncoded(0, 1, &out, &next, &count).ok());
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(next, 1u);

  // Reset compacts: offsets before the new begin are gone for good.
  log.Reset(7);
  EXPECT_EQ(log.begin_offset(), 7u);
  EXPECT_EQ(log.end_offset(), 7u);
  EXPECT_TRUE(log.ReadEncoded(5, SIZE_MAX, &out, &next, &count)
                  .IsOutOfRange());
  // Reading AT the boundary is an empty, legal read.
  ASSERT_TRUE(log.ReadEncoded(7, SIZE_MAX, &out, &next, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST(ReplicationLogTest, TrimToDropsOnlyThePrefix) {
  repl::ReplicationLog log;
  repl::ReplRecord rec;
  rec.kind = repl::ReplRecord::Kind::kSetHead;
  rec.branch = "master";
  for (int i = 0; i < 6; ++i) {
    rec.key = "k" + std::to_string(i);
    log.Append(rec);
  }

  log.TrimTo(3);
  EXPECT_EQ(log.begin_offset(), 3u);
  EXPECT_EQ(log.end_offset(), 6u);
  EXPECT_EQ(log.retained(), 3u);
  Bytes out;
  uint64_t next = 0, count = 0;
  EXPECT_TRUE(log.ReadEncoded(2, SIZE_MAX, &out, &next, &count)
                  .IsOutOfRange());
  ASSERT_TRUE(log.ReadEncoded(3, SIZE_MAX, &out, &next, &count).ok());
  EXPECT_EQ(count, 3u);
  ByteReader reader{Slice(out)};
  repl::ReplRecord got;
  ASSERT_TRUE(repl::ReplRecord::DecodeFrom(&reader, &got).ok());
  EXPECT_EQ(got.key, "k3");

  // Below or at begin, and past the end, are no-ops.
  log.TrimTo(1);
  log.TrimTo(3);
  log.TrimTo(7);
  EXPECT_EQ(log.begin_offset(), 3u);
  EXPECT_EQ(log.end_offset(), 6u);

  // Trimming to the end empties the log; offsets carry on from there.
  log.TrimTo(6);
  EXPECT_EQ(log.retained(), 0u);
  EXPECT_EQ(log.end_offset(), 6u);
  EXPECT_EQ(log.Append(rec), 6u);
}

TEST(ReplicationLogTest, WaitForRecordsWakesOnAppend) {
  repl::ReplicationLog log;
  // Timeout path: nothing arrives.
  EXPECT_EQ(log.WaitForRecords(0, 30), 0u);

  std::thread appender([&] {
    SleepMs(30);
    repl::ReplRecord rec;
    rec.kind = repl::ReplRecord::Kind::kSetHead;
    rec.key = "k";
    rec.branch = "master";
    log.Append(rec);
  });
  EXPECT_EQ(log.WaitForRecords(0, 10000), 1u);
  appender.join();
}

TEST(ReplShipmentTest, WirePayloadsRoundTrip) {
  // Append header.
  Bytes records = ToBytes("opaque record bytes");
  Bytes append;
  repl::EncodeAppend(7, "10.0.0.1:8087", 42, 3, records, &append);
  ByteReader reader{Slice(append)};
  uint64_t epoch = 0, prev = 0, count = 0;
  std::string leader;
  ASSERT_TRUE(
      repl::DecodeAppendHeader(&reader, &epoch, &leader, &prev, &count).ok());
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(leader, "10.0.0.1:8087");
  EXPECT_EQ(prev, 42u);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(reader.remaining(), records.size());

  // Ack.
  Bytes ack;
  repl::EncodeAck(7, 45, repl::kAckStaleEpoch, &ack);
  uint64_t acked = 0;
  uint8_t flags = 0;
  ASSERT_TRUE(repl::DecodeAck(Slice(ack), &epoch, &acked, &flags).ok());
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(acked, 45u);
  EXPECT_EQ(flags, repl::kAckStaleEpoch);

  // Snapshot.
  Bytes state = ToBytes("exported branch state");
  Bytes snap;
  repl::EncodeSnapshot(9, "ldr", 100, state, &snap);
  uint64_t offset = 0;
  Slice state_out;
  ASSERT_TRUE(
      repl::DecodeSnapshot(Slice(snap), &epoch, &leader, &offset, &state_out)
          .ok());
  EXPECT_EQ(epoch, 9u);
  EXPECT_EQ(leader, "ldr");
  EXPECT_EQ(offset, 100u);
  EXPECT_EQ(state_out.ToBytes(), state);

  // Status request + response.
  Bytes req;
  repl::EncodeStatusRequest(true, "me:1", 11, &req);
  bool reg = false;
  std::string endpoint;
  ASSERT_TRUE(
      repl::DecodeStatusRequest(Slice(req), &reg, &endpoint, &acked).ok());
  EXPECT_TRUE(reg);
  EXPECT_EQ(endpoint, "me:1");
  EXPECT_EQ(acked, 11u);

  repl::GroupStatus st;
  st.epoch = 3;
  st.role = 1;
  st.log_end = 20;
  st.acked = 18;
  st.leader = "ldr:2";
  st.follower_count = 2;
  Bytes resp;
  repl::EncodeStatus(st, &resp);
  repl::GroupStatus got;
  ASSERT_TRUE(repl::DecodeStatus(Slice(resp), &got).ok());
  EXPECT_EQ(got.epoch, 3u);
  EXPECT_EQ(got.role, 1u);
  EXPECT_EQ(got.log_end, 20u);
  EXPECT_EQ(got.acked, 18u);
  EXPECT_EQ(got.leader, "ldr:2");
  EXPECT_EQ(got.follower_count, 2u);
}

// ---------------------------------------------------------------------------
// Torn-shipment recovery (handler-level, no network)
// ---------------------------------------------------------------------------

TEST(ReplicaGroupTest, TornShipmentAppliesPrefixAndResendConverges) {
  // A follower group driven through HandleAppend directly. Never
  // Started: the handlers carry all the state transitions.
  ForkBase engine(SmallOpts());
  repl::ReplicaGroupOptions ro;
  ro.members = {"ldr", "me"};
  ro.self = "me";
  repl::ReplicaGroup follower(&engine, nullptr, ro);

  // Three handcrafted head moves (SetHead installs heads unverified, so
  // no chunks are needed).
  repl::ReplicationLog log;
  std::vector<Hash> heads;
  for (int i = 0; i < 3; ++i) {
    repl::ReplRecord rec;
    rec.kind = repl::ReplRecord::Kind::kSetHead;
    rec.key = "k" + std::to_string(i);
    rec.branch = "master";
    rec.head = Hash::Of(Slice(rec.key));
    heads.push_back(rec.head);
    log.Append(rec);
  }
  Bytes records;
  uint64_t next = 0, count = 0;
  ASSERT_TRUE(log.ReadEncoded(0, SIZE_MAX, &records, &next, &count).ok());
  ASSERT_EQ(count, 3u);
  Bytes shipment;
  repl::EncodeAppend(1, "ldr", 0, 3, records, &shipment);

  // Tear the shipment mid-third-record: the intact prefix applies and
  // the ack names exactly the applied offset.
  Bytes torn(shipment.begin(), shipment.end() - 5);
  Bytes resp;
  ASSERT_TRUE(follower.HandleAppend(Slice(torn), &resp).ok());
  uint64_t epoch = 0, acked = 0;
  uint8_t flags = 0;
  ASSERT_TRUE(repl::DecodeAck(Slice(resp), &epoch, &acked, &flags).ok());
  EXPECT_EQ(flags, repl::kAckOk);
  EXPECT_EQ(epoch, 1u);  // adopted the shipment's epoch
  EXPECT_EQ(acked, 2u);
  EXPECT_EQ(follower.durable_offset(), 2u);
  ASSERT_TRUE(engine.Head("k1", "master").ok());
  EXPECT_FALSE(engine.Head("k2", "master").ok());

  // The leader resends from the acked offset — here the FULL shipment
  // again (prev=0): the count-based skip dedups the applied prefix.
  ASSERT_TRUE(follower.HandleAppend(Slice(shipment), &resp).ok());
  ASSERT_TRUE(repl::DecodeAck(Slice(resp), &epoch, &acked, &flags).ok());
  EXPECT_EQ(flags, repl::kAckOk);
  EXPECT_EQ(acked, 3u);
  EXPECT_EQ(follower.durable_offset(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto head = engine.Head("k" + std::to_string(i), "master");
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(*head, heads[static_cast<size_t>(i)]);
  }
  // No double-apply: 2 + 1 records, not 2 + 3.
  EXPECT_EQ(follower.stats().records_applied, 3u);

  // A shipment from the FUTURE (gap: prev > applied) must not apply;
  // the unchanged ack tells the leader to rewind.
  Bytes gap;
  repl::EncodeAppend(1, "ldr", 10, 3, records, &gap);
  ASSERT_TRUE(follower.HandleAppend(Slice(gap), &resp).ok());
  ASSERT_TRUE(repl::DecodeAck(Slice(resp), &epoch, &acked, &flags).ok());
  EXPECT_EQ(acked, 3u);
  EXPECT_EQ(follower.stats().records_applied, 3u);
}

// ---------------------------------------------------------------------------
// In-process replica groups over loopback
// ---------------------------------------------------------------------------

// One group member: engine over a replicating store stack, served by a
// real socket server, with the peer resolver group members double as.
struct ReplNode {
  MemChunkStore* raw = nullptr;  // physical store (answers peer fetches)
  std::unique_ptr<PeerChunkResolver> resolver;
  repl::ReplicatingChunkStore* rstore = nullptr;
  std::unique_ptr<ForkBase> engine;
  std::unique_ptr<rpc::ForkBaseServer> server;
  std::unique_ptr<repl::ReplicaGroup> group;

  const std::string& endpoint() const { return server->endpoint(); }

  // Kill order matters: the server dispatches into the group, so it
  // goes down first. Mimics the process dying as one unit.
  void Kill() {
    if (server != nullptr) server->Stop();
    if (group != nullptr) group->Stop();
  }
  ~ReplNode() { Kill(); }
};

void StartNode(ReplNode* n, DurabilityPolicy durability,
               const std::string& listen = "127.0.0.1:0") {
  auto local = std::make_unique<MemChunkStore>();
  n->raw = local.get();
  n->resolver = std::make_unique<PeerChunkResolver>();
  auto servlet =
      std::make_unique<ServletChunkStore>(std::move(local), n->resolver.get());
  auto wrapped =
      std::make_unique<repl::ReplicatingChunkStore>(std::move(servlet));
  n->rstore = wrapped.get();
  DBOptions dbo = SmallOpts();
  dbo.durability = durability;
  n->engine = std::make_unique<ForkBase>(dbo, std::move(wrapped));
  rpc::ServerOptions so;
  so.listen = listen;
  so.local_chunk_store = n->raw;
  so.peer_count = 1;
  auto server = rpc::ForkBaseServer::Start(n->engine.get(), so);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  n->server = std::move(*server);
}

struct GroupTimings {
  int64_t quorum_timeout_ms = 10000;
  int64_t heartbeat_ms = 20;
  // High by default so elections never fire behind a test's back.
  int64_t election_timeout_ms = 60000;
};

// Starts the group role of an already-started node as members[self].
void JoinGroup(ReplNode* n, const std::vector<std::string>& members,
               size_t self, GroupTimings timings) {
  std::vector<std::string> peers;
  for (size_t j = 0; j < members.size(); ++j) {
    if (j != self) peers.push_back(members[j]);
  }
  n->resolver->SetPeers(peers);
  repl::ReplicaGroupOptions ro;
  ro.members = members;
  ro.self = members[self];
  ro.quorum_timeout_ms = timings.quorum_timeout_ms;
  ro.heartbeat_ms = timings.heartbeat_ms;
  ro.election_timeout_ms = timings.election_timeout_ms;
  n->group =
      std::make_unique<repl::ReplicaGroup>(n->engine.get(), n->rstore, ro);
  ASSERT_TRUE(n->group->Start().ok());
  n->server->set_replication(n->group.get());
}

// Forms a group over already-started nodes: nodes[0] leads.
void FormGroup(const std::vector<ReplNode*>& nodes, GroupTimings timings) {
  std::vector<std::string> members;
  for (const ReplNode* n : nodes) members.push_back(n->endpoint());
  for (size_t i = 0; i < nodes.size(); ++i) {
    JoinGroup(nodes[i], members, i, timings);
  }
}

// Followers register themselves with the leader (monitor-driven); a
// kQuorum write issued before a majority is connected would block, so
// tests wait for registration first.
void AwaitFollowers(ReplNode* leader, uint64_t want) {
  ASSERT_TRUE(WaitUntil([&] {
    return leader->group->Snapshot().follower_count >= want;
  })) << "followers never registered";
}

void AwaitCaughtUp(ReplNode* leader, const std::vector<ReplNode*>& followers) {
  const uint64_t end = leader->group->durable_offset();
  for (ReplNode* f : followers) {
    ASSERT_TRUE(WaitUntil([&] { return f->group->durable_offset() >= end; }))
        << f->endpoint() << " stuck at " << f->group->durable_offset()
        << " of " << end;
  }
}

TEST(ReplicaGroupTest, LeaderAndCaughtUpFollowersAreByteIdentical) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  FormGroup({&a, &b, &c}, GroupTimings{});
  AwaitFollowers(&a, 2);
  EXPECT_EQ(a.group->role(), repl::Role::kLeader);
  EXPECT_EQ(b.group->role(), repl::Role::kFollower);

  // Drive the leader across the mutating command surface: chained puts,
  // forks, renames, removes, a three-way merge, a bulk load.
  ForkBase* db = a.engine.get();
  ASSERT_TRUE(db->Put("doc", "master", Value::OfString("v1")).ok());
  auto v2 = db->Put("doc", "master", Value::OfString("v2"));
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(db->Fork("doc", "master", "dev").ok());
  ASSERT_TRUE(db->Put("doc", "dev", Value::OfString("dev work")).ok());
  ASSERT_TRUE(db->Rename("doc", "dev", "feature").ok());
  ASSERT_TRUE(db->Put("other", "master", Value::OfString("other")).ok());
  ASSERT_TRUE(db->Fork("other", "master", "scratch").ok());
  ASSERT_TRUE(db->Remove("other", "scratch").ok());
  auto merged = db->Merge("doc", "master", "feature",
                          ResolverFor(MergePolicy::kChooseRight));
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged->clean());
  std::vector<std::pair<std::string, Value>> bulk;
  for (int i = 0; i < 8; ++i) {
    bulk.emplace_back("bulk" + std::to_string(i),
                      Value::OfString("payload " + std::to_string(i)));
  }
  ASSERT_TRUE(db->PutMany(bulk).ok());

  AwaitCaughtUp(&a, {&b, &c});

  // Parity: the branch tables are byte-identical, not just equivalent.
  auto leader_state = a.engine->ExportBranchState();
  ASSERT_TRUE(leader_state.ok());
  for (ReplNode* f : {&b, &c}) {
    auto state = f->engine->ExportBranchState();
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, *leader_state) << "diverged: " << f->endpoint();
  }

  // Followers hold the data, not just the heads: version-addressed and
  // branch reads are served from the follower's OWN engine and store.
  auto follower_obj = b.engine->GetByUid(*v2);
  ASSERT_TRUE(follower_obj.ok());
  EXPECT_EQ(follower_obj->value().AsString(), "v2");
  auto follower_head = c.engine->Get("doc", "master");
  ASSERT_TRUE(follower_head.ok());
  EXPECT_EQ(follower_head->value().AsString(), "dev work");

  // Over the wire, a follower serves reads but bounces mutations at the
  // leader by endpoint.
  auto remote = rpc::RemoteService::Connect(b.endpoint());
  ASSERT_TRUE(remote.ok());
  auto remote_read = (*remote)->GetByUid(*v2);
  ASSERT_TRUE(remote_read.ok());
  EXPECT_EQ(remote_read->value().AsString(), "v2");
  auto remote_put = (*remote)->Put("doc", "master", Value::OfString("nope"));
  ASSERT_TRUE(remote_put.status().IsUnavailable());
  EXPECT_NE(remote_put.status().ToString().find(a.endpoint()),
            std::string::npos);
}

TEST(ReplicaGroupTest, QuorumNeedsAMajorityNotEveryFollower) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  GroupTimings timings;
  timings.quorum_timeout_ms = 500;
  FormGroup({&a, &b, &c}, timings);
  AwaitFollowers(&a, 2);

  ASSERT_TRUE(a.engine->Put("k", "master", Value::OfString("v0")).ok());

  // One stalled follower of three: 2-of-3 majority still reachable.
  a.group->StallFollower(b.endpoint(), true);
  ASSERT_TRUE(a.engine->Put("k", "master", Value::OfString("v1")).ok());
  EXPECT_GE(a.group->stats().quorum_commits, 2u);

  // Both followers stalled: the quorum barrier must BLOCK and then give
  // up with Unavailable — but the commit itself stands locally.
  a.group->StallFollower(c.endpoint(), true);
  const auto t0 = std::chrono::steady_clock::now();
  auto blocked = a.engine->Put("k", "master", Value::OfString("v2"));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(blocked.status().IsUnavailable())
      << blocked.status().ToString();
  EXPECT_GE(waited.count(), 400);
  EXPECT_GE(a.group->stats().quorum_timeouts, 1u);
  auto local = a.engine->Get("k", "master");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->value().AsString(), "v2");

  // Unstall: the senders drain the backlog and commits flow again.
  a.group->StallFollower(b.endpoint(), false);
  a.group->StallFollower(c.endpoint(), false);
  ASSERT_TRUE(a.engine->Put("k", "master", Value::OfString("v3")).ok());
  AwaitCaughtUp(&a, {&b, &c});
  auto replicated = b.engine->Get("k", "master");
  ASSERT_TRUE(replicated.ok());
  EXPECT_EQ(replicated->value().AsString(), "v3");
}

uint64_t Retained(const ReplNode& n) {
  return n.group->stats().log_retained_records;
}

// Waits until the leader has trimmed everything its followers acked.
void AwaitTrimmed(ReplNode* leader) {
  ASSERT_TRUE(WaitUntil([&] { return Retained(*leader) == 0; }))
      << "leader still retains " << Retained(*leader) << " records";
}

TEST(ReplicaGroupTest, LeaderTrimsWhatEveryFollowerAckedFollowersKeepNone) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  FormGroup({&a, &b, &c}, GroupTimings{});
  AwaitFollowers(&a, 2);

  constexpr int kPuts = 20;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(a.engine
                    ->Put("k" + std::to_string(i % 4), "master",
                          Value::OfString("v" + std::to_string(i)))
                    .ok());
  }
  AwaitCaughtUp(&a, {&b, &c});
  AwaitTrimmed(&a);

  // The log end is still the count of records ever appended: at least a
  // head move per Put, plus its chunks.
  const uint64_t end = a.group->durable_offset();
  EXPECT_GE(end, static_cast<uint64_t>(kPuts));
  EXPECT_EQ(a.group->Snapshot().log_end, end);
  for (ReplNode* f : {&b, &c}) {
    EXPECT_EQ(Retained(*f), 0u) << f->endpoint();
    EXPECT_EQ(f->group->durable_offset(), end);
    EXPECT_EQ(f->group->Snapshot().log_end, end);
  }
  EXPECT_EQ(a.group->stats().snapshots_sent, 0u);

  auto leader_state = a.engine->ExportBranchState();
  ASSERT_TRUE(leader_state.ok());
  for (ReplNode* f : {&b, &c}) {
    auto state = f->engine->ExportBranchState();
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, *leader_state) << "diverged: " << f->endpoint();
  }
}

TEST(ReplicaGroupTest, LateMemberReplaysTheLogTheLeaderKeptForIt) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  const std::vector<std::string> members = {a.endpoint(), b.endpoint(),
                                            c.endpoint()};
  JoinGroup(&a, members, 0, GroupTimings{});
  JoinGroup(&b, members, 1, GroupTimings{});
  AwaitFollowers(&a, 1);

  // B's acks make the quorum, but C has not registered yet: the leader
  // keeps every record for it.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        a.engine->Put("k", "master", Value::OfString(std::to_string(i))).ok());
  }
  AwaitCaughtUp(&a, {&b});
  EXPECT_EQ(Retained(a), a.group->durable_offset());

  // C joins late and replays from offset 0; then the log is trimmed.
  JoinGroup(&c, members, 2, GroupTimings{});
  AwaitCaughtUp(&a, {&c});
  AwaitTrimmed(&a);
  EXPECT_EQ(a.group->stats().snapshots_sent, 0u);
  auto got = c.engine->Get("k", "master");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value().AsString(), "9");
}

TEST(ReplicaGroupTest, LoneLeaderKeepsNoRecords) {
  ReplNode a;
  StartNode(&a, DurabilityPolicy::kQuorum);
  FormGroup({&a}, GroupTimings{});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        a.engine->Put("k", "master", Value::OfString(std::to_string(i))).ok());
  }
  // No follower ever acks; the leader's own tick trims the log.
  AwaitTrimmed(&a);
  EXPECT_GE(a.group->durable_offset(), 5u);
}

TEST(ReplicaGroupTest, StalledFollowerPinsTheLogThenCatchesUpByReplay) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  FormGroup({&a, &b, &c}, GroupTimings{});
  AwaitFollowers(&a, 2);
  ASSERT_TRUE(a.engine->Put("k", "master", Value::OfString("v0")).ok());
  AwaitCaughtUp(&a, {&b, &c});
  AwaitTrimmed(&a);
  const uint64_t pinned = c.group->durable_offset();

  // C stalls; B alone makes the quorum, and C's ack pins the log.
  a.group->StallFollower(c.endpoint(), true);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(
        a.engine->Put("k", "master", Value::OfString("v" + std::to_string(i)))
            .ok());
  }
  AwaitCaughtUp(&a, {&b});
  EXPECT_EQ(c.group->durable_offset(), pinned);
  EXPECT_EQ(Retained(a), a.group->durable_offset() - pinned);

  // Unstalled, C replays the retained suffix: no snapshot needed.
  a.group->StallFollower(c.endpoint(), false);
  AwaitCaughtUp(&a, {&c});
  AwaitTrimmed(&a);
  EXPECT_EQ(a.group->stats().snapshots_sent, 0u);
  EXPECT_EQ(c.group->stats().snapshots_applied, 0u);
  auto got = c.engine->Get("k", "master");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value().AsString(), "v10");
}

TEST(ReplicaGroupTest, RestartedFollowerBehindTheTrimmedPrefixGetsSnapshot) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  GroupTimings timings;
  FormGroup({&a, &b, &c}, timings);
  AwaitFollowers(&a, 2);
  const std::vector<std::string> members = {a.endpoint(), b.endpoint(),
                                            c.endpoint()};

  std::vector<std::pair<Hash, std::string>> acked;
  auto put = [&](int i) {
    const std::string v = "value " + std::to_string(i);
    auto uid = a.engine->Put("k" + std::to_string(i % 3), "master",
                             Value::OfString(v));
    ASSERT_TRUE(uid.ok()) << uid.status().ToString();
    acked.emplace_back(*uid, v);
  };
  for (int i = 0; i < 10; ++i) put(i);
  AwaitCaughtUp(&a, {&b, &c});
  AwaitTrimmed(&a);
  ASSERT_GT(a.group->durable_offset(), 0u);

  // C dies and loses everything it held; A and B keep a quorum.
  c.Kill();
  for (int i = 10; i < 20; ++i) put(i);

  // It comes back empty on the same endpoint and re-registers at offset
  // 0, behind the trimmed prefix: only a snapshot can bootstrap it.
  ReplNode c2;
  StartNode(&c2, DurabilityPolicy::kQuorum, members[2]);
  JoinGroup(&c2, members, 2, timings);
  AwaitCaughtUp(&a, {&c2});
  // The leader counts the snapshot once the ack is back, which follows
  // the follower's install.
  ASSERT_TRUE(
      WaitUntil([&] { return a.group->stats().snapshots_sent >= 1; }));
  EXPECT_GE(c2.group->stats().snapshots_applied, 1u);

  auto leader_state = a.engine->ExportBranchState();
  auto state = c2.engine->ExportBranchState();
  ASSERT_TRUE(leader_state.ok());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, *leader_state);
  // Chunks behind the snapshot stream in through peer fetch.
  for (const auto& [uid, v] : acked) {
    auto obj = c2.engine->GetByUid(uid);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    EXPECT_EQ(obj->value().AsString(), v);
  }
  AwaitTrimmed(&a);
  EXPECT_EQ(Retained(c2), 0u);
}

TEST(ReplicaGroupTest, StaleLeaderIsRejectedByEpochAndStepsDown) {
  ReplNode a, b;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  FormGroup({&a, &b}, GroupTimings{});
  AwaitFollowers(&a, 1);
  ASSERT_TRUE(a.engine->Put("k", "master", Value::OfString("v")).ok());
  AwaitCaughtUp(&a, {&b});

  // B usurps leadership at a fresher epoch.
  b.group->ForcePromote();
  EXPECT_EQ(b.group->role(), repl::Role::kLeader);
  const uint64_t new_epoch = b.group->epoch();
  EXPECT_GE(new_epoch, 2u);

  // A shipment carrying the bygone epoch is refused outright — nothing
  // applied, the ack flags the staleness.
  Bytes stale;
  repl::EncodeAppend(1, a.endpoint(), b.group->durable_offset(), 0, Bytes(),
                     &stale);
  Bytes resp;
  ASSERT_TRUE(b.group->HandleAppend(Slice(stale), &resp).ok());
  uint64_t epoch = 0, acked = 0;
  uint8_t flags = 0;
  ASSERT_TRUE(repl::DecodeAck(Slice(resp), &epoch, &acked, &flags).ok());
  EXPECT_EQ(flags, repl::kAckStaleEpoch);
  EXPECT_EQ(epoch, new_epoch);
  EXPECT_GE(b.group->stats().stale_rejections, 1u);

  // The live ex-leader hears the fresher epoch (rejection of its own
  // heartbeats, or B's wholesale snapshot) and demotes itself.
  ASSERT_TRUE(WaitUntil([&] {
    return a.group->role() == repl::Role::kFollower &&
           a.group->epoch() == new_epoch &&
           a.group->leader_endpoint() == b.endpoint();
  })) << "ex-leader never stepped down";
  EXPECT_GE(a.group->stats().step_downs, 1u);

  // Writes now bounce at A and land at B.
  auto remote = rpc::RemoteService::Connect(a.endpoint());
  ASSERT_TRUE(remote.ok());
  auto bounced = (*remote)->Put("k", "master", Value::OfString("nope"));
  ASSERT_TRUE(bounced.status().IsUnavailable());
  EXPECT_NE(bounced.status().ToString().find(b.endpoint()),
            std::string::npos);
}

TEST(ReplicaGroupTest, FailoverPromotesAFollowerWithNoAckedWriteLoss) {
  ReplNode a, b, c;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  StartNode(&c, DurabilityPolicy::kQuorum);
  GroupTimings timings;
  timings.election_timeout_ms = 250;
  FormGroup({&a, &b, &c}, timings);
  AwaitFollowers(&a, 2);

  // A majority-acked write before the crash...
  auto pre = a.engine->Put("doc", "master", Value::OfString("pre-crash"));
  ASSERT_TRUE(pre.ok());

  // ...then the leader dies without ceremony.
  a.Kill();

  // A follower notices the silence and promotes.
  ReplNode* promoted = nullptr;
  ASSERT_TRUE(WaitUntil(
      [&] {
        for (ReplNode* n : {&b, &c}) {
          if (n->group->role() == repl::Role::kLeader) {
            promoted = n;
            return true;
          }
        }
        return false;
      },
      20000))
      << "nobody promoted";
  ReplNode* other = promoted == &b ? &c : &b;
  EXPECT_GE(promoted->group->epoch(), 2u);
  EXPECT_GE(promoted->group->stats().promotions, 1u);

  // Zero acked-write loss: the pre-crash write survives on the new
  // leader, by branch and by uid.
  auto survived = promoted->engine->Get("doc", "master");
  ASSERT_TRUE(survived.ok());
  EXPECT_EQ(survived->value().AsString(), "pre-crash");
  ASSERT_TRUE(promoted->engine->GetByUid(*pre).ok());

  // The new leader takes quorum writes (2 of 3 members are alive) and
  // ships them to the surviving follower.
  ASSERT_TRUE(WaitUntil([&] {
    return promoted->engine->Put("doc", "master",
                                 Value::OfString("post-crash"))
        .ok();
  })) << "new leader never took a quorum write";
  ASSERT_TRUE(WaitUntil([&] {
    auto got = other->engine->Get("doc", "master");
    return got.ok() && got->value().AsString() == "post-crash";
  })) << "surviving follower never converged";
  EXPECT_EQ(other->group->role(), repl::Role::kFollower);
  EXPECT_EQ(other->group->leader_endpoint(), promoted->endpoint());

  // The dead ex-leader awaits a snapshot it will never take; it must not
  // pin the new leader's log: what the survivor acked is trimmed.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(promoted->engine
                    ->Put("doc", "master",
                          Value::OfString("after " + std::to_string(i)))
                    .ok());
  }
  AwaitCaughtUp(promoted, {other});
  ASSERT_TRUE(WaitUntil([&] {
    return Retained(*promoted) <= promoted->group->durable_offset() -
                                      other->group->durable_offset();
  })) << "new leader retains " << Retained(*promoted) << " of "
      << promoted->group->durable_offset() << " records";
}

// ---------------------------------------------------------------------------
// Client-side routing
// ---------------------------------------------------------------------------

TEST(ReplicaClientTest, NotLeaderBounceRepointsThePrimaryOnce) {
  ReplNode a, b;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  FormGroup({&a, &b}, GroupTimings{});
  AwaitFollowers(&a, 1);

  // The client is (mis)configured with the FOLLOWER as the shard's
  // endpoint: the first mutation bounces, the client re-points at the
  // leader the bounce named, and every later write goes there directly.
  ClusterClientOptions opts;
  opts.endpoints = {b.endpoint()};
  auto client = ClusterClient::Connect(nullptr, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto first = (*client)->Put("doc", "master", Value::OfString("v1"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*client)->replica_stats().leader_redirects, 1u);
  ASSERT_TRUE((*client)->Put("doc", "master", Value::OfString("v2")).ok());
  EXPECT_EQ((*client)->replica_stats().leader_redirects, 1u);

  auto head = a.engine->Get("doc", "master");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->value().AsString(), "v2");
}

TEST(ReplicaClientTest, VersionReadsRoundRobinOntoReplicas) {
  ReplNode a, b;
  StartNode(&a, DurabilityPolicy::kQuorum);
  StartNode(&b, DurabilityPolicy::kQuorum);
  FormGroup({&a, &b}, GroupTimings{});
  AwaitFollowers(&a, 1);

  ClusterClientOptions opts;
  opts.endpoints = {a.endpoint()};
  opts.read_replicas = {{b.endpoint()}};
  auto client = ClusterClient::Connect(nullptr, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto uid = (*client)->Put("doc", "master", Value::OfString("spread me"));
  ASSERT_TRUE(uid.ok());
  AwaitCaughtUp(&a, {&b});

  // Version-addressed reads alternate primary/replica; every read sees
  // the same bytes because the replica holds the chunks locally.
  for (int i = 0; i < 6; ++i) {
    auto obj = (*client)->GetByUid(*uid);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    EXPECT_EQ(obj->value().AsString(), "spread me");
  }
  EXPECT_GE((*client)->replica_stats().replica_reads, 2u);
  EXPECT_EQ((*client)->replica_stats().leader_redirects, 0u);
}

// ---------------------------------------------------------------------------
// Incremental peer-set updates
// ---------------------------------------------------------------------------

TEST(PeerResolverTest, AddedPeerServesFetchesWithoutReconnectingTheWorld) {
  // Two standalone servlets, each physically holding its own writes.
  ReplNode s1, s2;
  StartNode(&s1, DurabilityPolicy::kNone);
  StartNode(&s2, DurabilityPolicy::kNone);
  auto uid1 = s1.engine->Put("k1", "master", Value::OfString("on s1"));
  auto uid2 = s2.engine->Put("k2", "master", Value::OfString("on s2"));
  ASSERT_TRUE(uid1.ok());
  ASSERT_TRUE(uid2.ok());

  PeerChunkResolver resolver({s1.endpoint()});
  Chunk chunk;
  ASSERT_TRUE(resolver.Fetch(*uid1, &chunk).ok());
  const uint64_t connects_before = resolver.connect_attempts();
  EXPECT_GE(connects_before, 1u);

  // Grow the set: the new member must serve fetches immediately, and
  // the incumbent keeps its pooled connection (no reconnect-the-world).
  resolver.SetPeers({s1.endpoint(), s2.endpoint()});
  EXPECT_EQ(resolver.num_peers(), 2u);
  ASSERT_TRUE(resolver.Fetch(*uid2, &chunk).ok());
  const uint64_t connects_after = resolver.connect_attempts();
  EXPECT_EQ(connects_after, connects_before + 1);  // s2's connect only

  // Traffic back to the incumbent rides the carried-over connection.
  auto uid3 = s1.engine->Put("k3", "master", Value::OfString("also s1"));
  ASSERT_TRUE(uid3.ok());
  ASSERT_TRUE(resolver.Fetch(*uid3, &chunk).ok());
  EXPECT_EQ(resolver.connect_attempts(), connects_after);

  // Shrink back down: the dropped peer is gone, the survivor unharmed.
  resolver.SetPeers({s1.endpoint()});
  EXPECT_EQ(resolver.num_peers(), 1u);
  auto uid4 = s1.engine->Put("k4", "master", Value::OfString("still s1"));
  ASSERT_TRUE(uid4.ok());
  ASSERT_TRUE(resolver.Fetch(*uid4, &chunk).ok());
  EXPECT_EQ(resolver.connect_attempts(), connects_after);
}

}  // namespace
}  // namespace fb
