// Unit tests for the chunk layer: Chunk/Hash encoding, content-addressed
// stores (memory + log-structured), dedup accounting, crash recovery and
// tamper detection, the group-commit primitive and the chunk cache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chunk/block_cache.h"
#include "chunk/chunk.h"
#include "chunk/chunk_store.h"
#include "chunk/group_commit.h"
#include "cluster/cluster.h"
#include "util/mutex.h"
#include "util/random.h"

namespace fb {
namespace {

Chunk MakeChunk(ChunkType t, const std::string& payload) {
  return Chunk(t, ToBytes(payload));
}

// ---------------------------------------------------------------------------
// Chunk / Hash
// ---------------------------------------------------------------------------

TEST(ChunkTest, SerializeRoundTrip) {
  Chunk c = MakeChunk(ChunkType::kMap, "payload-bytes");
  Bytes ser = c.Serialize();
  Chunk back;
  ASSERT_TRUE(Chunk::Deserialize(Slice(ser), &back));
  EXPECT_EQ(back.type(), ChunkType::kMap);
  EXPECT_EQ(back.payload().ToString(), "payload-bytes");
}

TEST(ChunkTest, DeserializeRejectsEmptyAndBadType) {
  Chunk c;
  EXPECT_FALSE(Chunk::Deserialize(Slice(), &c));
  Bytes bad = {0x7f, 1, 2};
  EXPECT_FALSE(Chunk::Deserialize(Slice(bad), &c));
}

TEST(ChunkTest, CidDependsOnTypeAndPayload) {
  const Hash a = MakeChunk(ChunkType::kBlob, "same").ComputeCid();
  const Hash b = MakeChunk(ChunkType::kList, "same").ComputeCid();
  const Hash c = MakeChunk(ChunkType::kBlob, "diff").ComputeCid();
  const Hash a2 = MakeChunk(ChunkType::kBlob, "same").ComputeCid();
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(HashTest, HexRoundTrip) {
  const Hash h = Hash::Of(Slice("x"));
  EXPECT_EQ(Hash::FromHex(h.ToHex()), h);
  EXPECT_EQ(h.ToHex().size(), 64u);
  EXPECT_TRUE(Hash::FromHex("zz").IsNull());
}

TEST(HashTest, NullHashIsAllZero) {
  EXPECT_TRUE(Hash().IsNull());
  EXPECT_EQ(Hash::Null().Low64(), 0u);
  EXPECT_FALSE(Hash::Of(Slice("a")).IsNull());
}

TEST(ChunkTypeTest, Names) {
  EXPECT_STREQ(ChunkTypeToString(ChunkType::kMeta), "Meta");
  EXPECT_STREQ(ChunkTypeToString(ChunkType::kUIndex), "UIndex");
  EXPECT_STREQ(ChunkTypeToString(ChunkType::kSIndex), "SIndex");
  EXPECT_STREQ(ChunkTypeToString(ChunkType::kMap), "Map");
}

// ---------------------------------------------------------------------------
// MemChunkStore
// ---------------------------------------------------------------------------

TEST(MemChunkStoreTest, PutGetRoundTrip) {
  MemChunkStore store;
  Chunk c = MakeChunk(ChunkType::kBlob, "hello");
  auto cid = store.Put(c);
  ASSERT_TRUE(cid.ok());
  Chunk got;
  ASSERT_TRUE(store.Get(*cid, &got).ok());
  EXPECT_EQ(got.payload().ToString(), "hello");
  EXPECT_EQ(got.type(), ChunkType::kBlob);
}

TEST(MemChunkStoreTest, GetMissingIsNotFound) {
  MemChunkStore store;
  Chunk got;
  EXPECT_TRUE(store.Get(Hash::Of(Slice("nope")), &got).IsNotFound());
}

TEST(MemChunkStoreTest, DedupCountsHits) {
  MemChunkStore store;
  Chunk c = MakeChunk(ChunkType::kBlob, "dup");
  ASSERT_TRUE(store.Put(c).ok());
  ASSERT_TRUE(store.Put(c).ok());
  ASSERT_TRUE(store.Put(c).ok());
  const ChunkStoreStats st = store.stats();
  EXPECT_EQ(st.puts, 3u);
  EXPECT_EQ(st.dedup_hits, 2u);
  EXPECT_EQ(st.chunks, 1u);
  EXPECT_EQ(st.stored_bytes, c.serialized_size());
  EXPECT_EQ(st.logical_bytes, 3 * c.serialized_size());
}

TEST(MemChunkStoreTest, ContainsReflectsContent) {
  MemChunkStore store;
  Chunk c = MakeChunk(ChunkType::kSet, "abc");
  EXPECT_FALSE(store.Contains(c.ComputeCid()));
  ASSERT_TRUE(store.Put(c).ok());
  EXPECT_TRUE(store.Contains(c.ComputeCid()));
}

// ---------------------------------------------------------------------------
// LogChunkStore
// ---------------------------------------------------------------------------

class LogChunkStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fb_log_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(LogChunkStoreTest, PutGetPersistsAcrossReopen) {
  Hash cid;
  {
    auto store = LogChunkStore::Open(dir_.string());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto r = (*store)->Put(MakeChunk(ChunkType::kBlob, "persist me"));
    ASSERT_TRUE(r.ok());
    cid = *r;
  }
  auto store = LogChunkStore::Open(dir_.string());
  ASSERT_TRUE(store.ok());
  Chunk got;
  ASSERT_TRUE((*store)->Get(cid, &got).ok());
  EXPECT_EQ(got.payload().ToString(), "persist me");
  EXPECT_EQ((*store)->stats().chunks, 1u);
}

TEST_F(LogChunkStoreTest, DedupAcrossReopen) {
  {
    auto store = LogChunkStore::Open(dir_.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(MakeChunk(ChunkType::kBlob, "x")).ok());
  }
  auto store = LogChunkStore::Open(dir_.string());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeChunk(ChunkType::kBlob, "x")).ok());
  EXPECT_EQ((*store)->stats().chunks, 1u);
  EXPECT_EQ((*store)->stats().dedup_hits, 1u);
}

TEST_F(LogChunkStoreTest, ManyChunksWithSegmentRoll) {
  // Small segments force several rolls.
  auto store = LogChunkStore::Open(dir_.string(), /*segment_size=*/4096);
  ASSERT_TRUE(store.ok());
  Rng rng(3);
  std::vector<std::pair<Hash, Bytes>> written;
  for (int i = 0; i < 200; ++i) {
    Bytes payload = rng.BytesOf(100 + rng.Uniform(400));
    Chunk c(ChunkType::kList, payload);
    auto cid = (*store)->Put(c);
    ASSERT_TRUE(cid.ok());
    written.emplace_back(*cid, payload);
  }
  ASSERT_TRUE((*store)->Flush().ok());
  for (const auto& [cid, payload] : written) {
    Chunk got;
    ASSERT_TRUE((*store)->Get(cid, &got).ok());
    EXPECT_EQ(got.payload().ToBytes(), payload);
  }
  // Reopen and spot check recovery across segments.
  store = LogChunkStore::Open(dir_.string(), 4096);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().chunks, written.size());
  Chunk got;
  ASSERT_TRUE((*store)->Get(written[57].first, &got).ok());
  EXPECT_EQ(got.payload().ToBytes(), written[57].second);
}

TEST_F(LogChunkStoreTest, TamperedSegmentDetectedOnRecovery) {
  {
    auto store = LogChunkStore::Open(dir_.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Put(MakeChunk(ChunkType::kBlob, "sensitive data")).ok());
  }
  // Flip one byte in the stored chunk body.
  const auto seg = dir_ / "seg-000000.fbl";
  ASSERT_TRUE(std::filesystem::exists(seg));
  {
    std::FILE* f = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4 + 32 + 5, SEEK_SET);  // header + into payload
    const char flip = 'X';
    std::fwrite(&flip, 1, 1, f);
    std::fclose(f);
  }
  auto store = LogChunkStore::Open(dir_.string());
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption());
}

TEST_F(LogChunkStoreTest, CrashRecoveryRoundTripsEveryCid) {
  // Write across several small segments, "crash" (drop the store without
  // an explicit flush-all), reopen, and verify that replaying segments
  // re-indexes every cid with intact content and exact byte accounting.
  Rng rng(17);
  std::vector<std::pair<Hash, Bytes>> written;
  uint64_t stored_bytes = 0;
  {
    auto store = LogChunkStore::Open(dir_.string(), /*segment_size=*/2048);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 120; ++i) {
      Bytes payload = rng.BytesOf(50 + rng.Uniform(300));
      Chunk c(ChunkType::kBlob, payload);
      auto cid = (*store)->Put(c);
      ASSERT_TRUE(cid.ok());
      written.emplace_back(*cid, std::move(payload));
      stored_bytes += c.serialized_size();
    }
  }  // destructor closes the active segment — simulated clean crash point

  for (int round = 0; round < 3; ++round) {
    auto store = LogChunkStore::Open(dir_.string(), 2048);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const ChunkStoreStats st = (*store)->stats();
    EXPECT_EQ(st.chunks, written.size());
    EXPECT_EQ(st.stored_bytes, stored_bytes);
    for (const auto& [cid, payload] : written) {
      ASSERT_TRUE((*store)->Contains(cid));
      Chunk got;
      ASSERT_TRUE((*store)->Get(cid, &got).ok());
      ASSERT_EQ(got.payload().ToBytes(), payload);
      ASSERT_EQ(got.ComputeCid(), cid);
    }
    // Appending after recovery must not clobber recovered records.
    Chunk extra(ChunkType::kList, rng.BytesOf(64 + 10 * round));
    ASSERT_TRUE((*store)->Put(extra).ok());
    written.emplace_back(extra.ComputeCid(), extra.payload().ToBytes());
    stored_bytes += extra.serialized_size();
  }
}

// Batched Put/Get must be observably equivalent to the single-op paths:
// same contents, same dedup accounting, for both store implementations.
template <typename MakeStore>
void CheckBatchEquivalence(MakeStore make_store) {
  Rng rng(23);
  ChunkBatch batch;
  for (int i = 0; i < 60; ++i) {
    Chunk c(ChunkType::kBlob, rng.BytesOf(40 + rng.Uniform(100)));
    batch.emplace_back(c.ComputeCid(), c);
  }
  // Duplicate a third of the batch in-place so intra-batch dedup is hit.
  for (int i = 0; i < 20; ++i) batch.push_back(batch[i]);

  auto single = make_store("single");
  for (const auto& [cid, chunk] : batch) {
    ASSERT_TRUE(single->Put(cid, chunk).ok());
  }
  auto batched = make_store("batched");
  ASSERT_TRUE(batched->PutBatch(batch).ok());

  const ChunkStoreStats a = single->stats();
  const ChunkStoreStats b = batched->stats();
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.stored_bytes, b.stored_bytes);
  EXPECT_EQ(a.logical_bytes, b.logical_bytes);

  std::vector<Hash> cids;
  for (const auto& [cid, chunk] : batch) cids.push_back(cid);
  std::vector<Chunk> from_batch;
  ASSERT_TRUE(batched->GetBatch(cids, &from_batch).ok());
  ASSERT_EQ(from_batch.size(), cids.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    Chunk from_single;
    ASSERT_TRUE(single->Get(cids[i], &from_single).ok());
    EXPECT_EQ(from_batch[i].payload().ToBytes(),
              from_single.payload().ToBytes());
    EXPECT_EQ(from_batch[i].type(), from_single.type());
  }

  // A missing cid fails the whole batched read.
  cids.push_back(Hash::Of(Slice("absent")));
  std::vector<Chunk> out;
  EXPECT_TRUE(batched->GetBatch(cids, &out).IsNotFound());
}

TEST(MemChunkStoreTest, BatchedOpsMatchSingleOps) {
  std::vector<std::unique_ptr<MemChunkStore>> keep;
  CheckBatchEquivalence([&](const char*) -> ChunkStore* {
    keep.push_back(std::make_unique<MemChunkStore>());
    return keep.back().get();
  });
}

TEST_F(LogChunkStoreTest, BatchedOpsMatchSingleOps) {
  std::vector<std::unique_ptr<LogChunkStore>> keep;
  CheckBatchEquivalence([&](const char* name) -> ChunkStore* {
    auto store = LogChunkStore::Open((dir_ / name).string());
    EXPECT_TRUE(store.ok());
    keep.push_back(std::move(*store));
    return keep.back().get();
  });
}

TEST_F(LogChunkStoreTest, BatchedPutsPersistAcrossReopen) {
  Rng rng(31);
  ChunkBatch batch;
  for (int i = 0; i < 40; ++i) {
    Chunk c(ChunkType::kMap, rng.BytesOf(80));
    batch.emplace_back(c.ComputeCid(), c);
  }
  {
    auto store = LogChunkStore::Open(dir_.string(), /*segment_size=*/1024);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutBatch(batch).ok());
  }
  auto store = LogChunkStore::Open(dir_.string(), 1024);
  ASSERT_TRUE(store.ok());
  std::vector<Hash> cids;
  for (const auto& [cid, chunk] : batch) cids.push_back(cid);
  std::vector<Chunk> got;
  ASSERT_TRUE((*store)->GetBatch(cids, &got).ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i].payload().ToBytes(),
              batch[i].second.payload().ToBytes());
  }
}

TEST_F(LogChunkStoreTest, GroupCommitTornTailRecovery) {
  // Kill the log mid-batch: truncate the active segment inside the last
  // record, exactly what a crash between group-commit fwrites leaves.
  // Recovery must keep every fully-flushed chunk, reject (cut off) the
  // torn tail, and leave the store writable.
  std::vector<std::pair<Hash, Bytes>> flushed;
  Hash torn_cid;
  uint64_t flushed_size = 0;
  {
    auto store = LogChunkStore::Open(dir_.string());
    ASSERT_TRUE(store.ok());
    Rng rng(7);
    for (int i = 0; i < 8; ++i) {
      Bytes payload = rng.BytesOf(100 + rng.Uniform(100));
      Chunk c(ChunkType::kBlob, payload);
      ASSERT_TRUE((*store)->Put(c.ComputeCid(), c).ok());
      flushed.emplace_back(c.ComputeCid(), std::move(payload));
    }
    ASSERT_TRUE((*store)->Flush().ok());
    flushed_size = std::filesystem::file_size(dir_ / "seg-000000.fbl");
    Chunk tail(ChunkType::kBlob, rng.BytesOf(300));
    torn_cid = tail.ComputeCid();
    ASSERT_TRUE((*store)->Put(torn_cid, tail).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Tear the tail record: keep its header plus half the body.
  const auto seg = dir_ / "seg-000000.fbl";
  ASSERT_GT(std::filesystem::file_size(seg), flushed_size);
  std::filesystem::resize_file(seg, flushed_size + 4 + 32 + 150);

  auto reopened = LogChunkStore::Open(dir_.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  LogChunkStore* store = reopened->get();
  EXPECT_EQ(store->stats().chunks, flushed.size());
  for (const auto& [cid, payload] : flushed) {
    Chunk got;
    ASSERT_TRUE(store->Get(cid, &got).ok());
    EXPECT_EQ(got.payload().ToBytes(), payload);
  }
  // The torn record is gone — and the file was truncated back to the
  // last good record, so new appends start clean.
  EXPECT_FALSE(store->Contains(torn_cid));
  EXPECT_EQ(std::filesystem::file_size(seg), flushed_size);

  // The store stays fully usable: re-put the torn chunk and a new one.
  Rng rng2(9);
  Chunk again(ChunkType::kBlob, rng2.BytesOf(300));
  ASSERT_TRUE(store->Put(again.ComputeCid(), again).ok());
  ASSERT_TRUE(store->Flush().ok());
  Chunk got;
  ASSERT_TRUE(store->Get(again.ComputeCid(), &got).ok());
  EXPECT_EQ(got.payload().ToBytes(), again.payload().ToBytes());
}

TEST_F(LogChunkStoreTest, TornTailInEarlierSegmentIsStillCorruption) {
  // A short record is only forgivable at the tail of the LAST segment;
  // mid-log truncation is real corruption and must fail recovery.
  {
    auto store = LogChunkStore::Open(dir_.string(), /*segment_size=*/512);
    ASSERT_TRUE(store.ok());
    Rng rng(11);
    for (int i = 0; i < 20; ++i) {
      Chunk c(ChunkType::kBlob, rng.BytesOf(200));
      ASSERT_TRUE((*store)->Put(c.ComputeCid(), c).ok());
    }
  }
  const auto seg0 = dir_ / "seg-000000.fbl";
  ASSERT_TRUE(std::filesystem::exists(dir_ / "seg-000001.fbl"));
  std::filesystem::resize_file(seg0,
                               std::filesystem::file_size(seg0) - 10);
  auto reopened = LogChunkStore::Open(dir_.string(), 512);
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(LogChunkStoreTest, DurabilityPoliciesRoundTrip) {
  // All three fsync policies must agree on contents and accounting; this
  // exercises the per-record flush path of kAlways and the no-sync path
  // of kNone through group commit.
  for (DurabilityPolicy policy :
       {DurabilityPolicy::kNone, DurabilityPolicy::kBatch,
        DurabilityPolicy::kAlways}) {
    const auto dir =
        dir_ / ("policy-" + std::to_string(static_cast<int>(policy)));
    LogStoreOptions options;
    options.segment_size = 2048;
    options.durability = policy;
    Rng rng(13);
    ChunkBatch batch;
    for (int i = 0; i < 30; ++i) {
      Chunk c(ChunkType::kList, rng.BytesOf(100 + rng.Uniform(200)));
      batch.emplace_back(c.ComputeCid(), c);
    }
    {
      auto store = LogChunkStore::Open(dir.string(), options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)->PutBatch(batch).ok());
      EXPECT_EQ((*store)->stats().chunks, batch.size());
    }
    auto store = LogChunkStore::Open(dir.string(), options);
    ASSERT_TRUE(store.ok());
    for (const auto& [cid, chunk] : batch) {
      Chunk got;
      ASSERT_TRUE((*store)->Get(cid, &got).ok());
      EXPECT_EQ(got.payload().ToBytes(), chunk.payload().ToBytes());
    }
  }
}

TEST(MemChunkStoreTest, StripingSpreadsAcrossShards) {
  // With cryptographic cids, 1000 chunks over 16 shards must not all land
  // in one stripe (regression guard for the shard router).
  MemChunkStore store;
  EXPECT_EQ(store.n_shards(), MemChunkStore::kDefaultShards);
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    Chunk c(ChunkType::kBlob, rng.BytesOf(32));
    ASSERT_TRUE(store.Put(c.ComputeCid(), c).ok());
  }
  EXPECT_EQ(store.stats().chunks, 1000u);
  // Shard choice (Mid64) must be independent of the pool partition
  // (Low64): chunks routed to one pool partition still spread stripes.
  uint64_t mid_buckets[4] = {0, 0, 0, 0};
  store.ForEach([&](const Hash& cid, const Chunk&) {
    ++mid_buckets[cid.Mid64() % 4];
  });
  for (uint64_t n : mid_buckets) EXPECT_GT(n, 100u);
}

// ---------------------------------------------------------------------------
// GroupCommitter
// ---------------------------------------------------------------------------

TEST(GroupCommitterTest, CommitsInEnqueueOrderAndSkipsEmptyBatches) {
  std::vector<Hash> seen;
  int commits = 0;
  GroupCommitter gc("test-gc", [&](const GroupCommitter::Group& g) {
    ++commits;
    for (const auto& r : g) seen.push_back(*r.cid);
    return Status::OK();
  });
  ChunkBatch batch;
  for (int i = 0; i < 5; ++i) {
    const Chunk c = MakeChunk(ChunkType::kBlob, "rec-" + std::to_string(i));
    batch.emplace_back(c.ComputeCid(), c);
  }
  ASSERT_TRUE(gc.Commit(ChunkBatch()).ok());
  EXPECT_EQ(commits, 0) << "an empty batch reached the callback";
  ASSERT_TRUE(gc.Commit(batch).ok());
  ASSERT_TRUE(gc.Commit(batch[0].first, batch[0].second).ok());
  EXPECT_EQ(commits, 2);
  ASSERT_EQ(seen.size(), 6u);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(seen[i], batch[i].first);
  EXPECT_EQ(seen[5], batch[0].first);
}

TEST(GroupCommitterTest, FailedCommitIsStickyForItsWaitersAndLaterCalls) {
  // The first group commits; every later group fails. Writers that
  // queue behind a blocked combiner land in a failing group (or arrive
  // after the failure): either way they see the error, and once it is
  // recorded no call reaches the callback again.
  Mutex gate_mu{kRankUnranked, "test-gate"};
  CondVar gate_cv;
  bool first_started = false;
  bool release_first = false;
  std::atomic<int> calls{0};
  GroupCommitter gc("test-gc", [&](const GroupCommitter::Group&) {
    if (calls.fetch_add(1) == 0) {
      MutexLock l(gate_mu);
      first_started = true;
      gate_cv.SignalAll();
      while (!release_first) gate_cv.Wait(gate_mu);
      return Status::OK();
    }
    return Status::IOError("disk on fire");
  });

  const Chunk a = MakeChunk(ChunkType::kBlob, "first");
  const Chunk b = MakeChunk(ChunkType::kBlob, "second");
  const Chunk c = MakeChunk(ChunkType::kBlob, "third");
  std::thread first([&] { (void)gc.Commit(a.ComputeCid(), a); });
  {
    MutexLock l(gate_mu);
    while (!first_started) gate_cv.Wait(gate_mu);
  }
  Status sb, sc;
  std::thread tb([&] { sb = gc.Commit(b.ComputeCid(), b); });
  std::thread tc([&] { sc = gc.Commit(c.ComputeCid(), c); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    MutexLock l(gate_mu);
    release_first = true;
    gate_cv.SignalAll();
  }
  first.join();
  tb.join();
  tc.join();
  EXPECT_EQ(sb.code(), StatusCode::kIOError) << sb.ToString();
  EXPECT_EQ(sc.code(), StatusCode::kIOError) << sc.ToString();
  EXPECT_EQ(sb.ToString(), sc.ToString());

  // Sticky: later calls fail without another commit attempt.
  const int calls_after = calls.load();
  EXPECT_GE(calls_after, 2);
  const Status later = gc.Commit(a.ComputeCid(), a);
  EXPECT_EQ(later.code(), StatusCode::kIOError) << later.ToString();
  ChunkBatch batch{{b.ComputeCid(), b}};
  EXPECT_EQ(gc.Commit(batch).code(), StatusCode::kIOError);
  EXPECT_EQ(calls.load(), calls_after);
}

// ---------------------------------------------------------------------------
// AdmissionChunkCache: TinyLFU admission + segmented LRU eviction order
// ---------------------------------------------------------------------------
//
// All tests use a single shard so capacity arithmetic is exact, and
// establish a cid's frequency the way the read path does: Get (a miss
// that touches the sketch) before Put (the fill).

TEST(AdmissionChunkCacheTest, HitPromotesAndCountsBytes) {
  const Chunk c = MakeChunk(ChunkType::kBlob, std::string(100, 'h'));
  const Hash cid = c.ComputeCid();
  AdmissionChunkCache cache(10 * c.serialized_size(), /*n_shards=*/1);

  Chunk out;
  EXPECT_FALSE(cache.Get(cid, &out));
  cache.Put(cid, c);
  ASSERT_TRUE(cache.Get(cid, &out));
  EXPECT_EQ(out.payload().ToString(), c.payload().ToString());
  const BlockCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hit_bytes, c.serialized_size());
  EXPECT_EQ(st.admissions, 1u);
}

TEST(AdmissionChunkCacheTest, OneTouchScanCannotDisplaceHotResidents) {
  // The scan-resistance property plain LRU lacks: a long one-touch
  // scan over a full cache must bounce off the admission duel, leaving
  // the multi-touch hot set resident.
  std::vector<Chunk> hot;
  for (int i = 0; i < 8; ++i) {
    hot.push_back(MakeChunk(ChunkType::kBlob, "hot-" + std::string(96, 'a' + i)));
  }
  const size_t charge = hot[0].serialized_size();
  AdmissionChunkCache cache(9 * charge, /*n_shards=*/1);

  // Hot set: miss, fill, then two hits — promoted to protected with a
  // sketch estimate of 3. Fits with one charge of slack.
  for (const Chunk& c : hot) {
    const Hash cid = c.ComputeCid();
    Chunk out;
    EXPECT_FALSE(cache.Get(cid, &out));
    cache.Put(cid, c);
    EXPECT_TRUE(cache.Get(cid, &out));
    EXPECT_TRUE(cache.Get(cid, &out));
  }
  ASSERT_EQ(cache.entries(), 8u);

  // The scan: one-touch chunks (estimate 1). The first fits in the
  // slack; once full, every further insert duels a victim that has been
  // touched at least three times and loses.
  const int kScan = 64;
  for (int i = 0; i < kScan; ++i) {
    const Chunk c =
        MakeChunk(ChunkType::kBlob, "scan-" + std::to_string(i) +
                                        std::string(90, 's'));
    Chunk out;
    EXPECT_FALSE(cache.Get(c.ComputeCid(), &out));
    cache.Put(c.ComputeCid(), c);
  }

  for (const Chunk& c : hot) {
    EXPECT_TRUE(cache.Contains(c.ComputeCid())) << "hot chunk was displaced";
  }
  const BlockCacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_GE(st.rejections, static_cast<uint64_t>(kScan - 1));
  EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
}

TEST(AdmissionChunkCacheTest, FrequentNewcomerWinsTheDuel) {
  // The flip side of scan resistance: a newcomer whose sketch frequency
  // beats the coldest resident's must be admitted, displacing it.
  std::vector<Chunk> cold;
  for (int i = 0; i < 4; ++i) {
    cold.push_back(
        MakeChunk(ChunkType::kBlob, "cold-" + std::string(95, 'a' + i)));
  }
  const size_t charge = cold[0].serialized_size();
  AdmissionChunkCache cache(4 * charge, /*n_shards=*/1);
  for (const Chunk& c : cold) {
    Chunk out;
    cache.Get(c.ComputeCid(), &out);  // estimate 1
    cache.Put(c.ComputeCid(), c);
  }
  ASSERT_EQ(cache.entries(), 4u);

  const Chunk newcomer =
      MakeChunk(ChunkType::kBlob, "newcomer" + std::string(92, 'n'));
  Chunk out;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(cache.Get(newcomer.ComputeCid(), &out));  // estimate 5
  }
  cache.Put(newcomer.ComputeCid(), newcomer);

  EXPECT_TRUE(cache.Contains(newcomer.ComputeCid()));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entries(), 4u);
}

TEST(AdmissionChunkCacheTest, EvictionTakesProbationTailBeforeProtected) {
  // Segmented-LRU eviction order: the victim is always the probation
  // tail, so a promoted (twice-hit) resident outlives a once-inserted
  // one regardless of insertion order.
  const Chunk a = MakeChunk(ChunkType::kBlob, "aaa" + std::string(97, 'a'));
  const Chunk b = MakeChunk(ChunkType::kBlob, "bbb" + std::string(97, 'b'));
  const Chunk c = MakeChunk(ChunkType::kBlob, "ccc" + std::string(97, 'c'));
  const size_t charge = a.serialized_size();
  AdmissionChunkCache cache(2 * charge, /*n_shards=*/1);

  Chunk out;
  // A: miss + fill + two hits -> protected segment.
  cache.Get(a.ComputeCid(), &out);
  cache.Put(a.ComputeCid(), a);
  ASSERT_TRUE(cache.Get(a.ComputeCid(), &out));
  ASSERT_TRUE(cache.Get(a.ComputeCid(), &out));
  // B: one touch -> probation. B is now the eviction candidate even
  // though A is older.
  cache.Get(b.ComputeCid(), &out);
  cache.Put(b.ComputeCid(), b);

  // C arrives hotter than B (two touches vs one): admitted over B.
  cache.Get(c.ComputeCid(), &out);
  cache.Get(c.ComputeCid(), &out);
  cache.Put(c.ComputeCid(), c);

  EXPECT_TRUE(cache.Contains(a.ComputeCid())) << "protected resident evicted";
  EXPECT_FALSE(cache.Contains(b.ComputeCid()));
  EXPECT_TRUE(cache.Contains(c.ComputeCid()));
}

TEST(AdmissionChunkCacheTest, ReinsertUnderOneCidNeverDoubleCounts) {
  // The same cid offered again with different bytes (only a dishonest
  // caller can do this: content addressing makes the bytes identical)
  // must not stack a second charge — size_bytes() stays within
  // capacity with no extra entry to evict for it.
  const Chunk small = MakeChunk(ChunkType::kBlob, std::string(100, 's'));
  const Chunk large = MakeChunk(ChunkType::kBlob, std::string(300, 'l'));
  const Hash cid = small.ComputeCid();  // cache keys on the caller's cid
  AdmissionChunkCache cache(1000, /*n_shards=*/1);

  for (int round = 0; round < 50; ++round) {
    cache.Put(cid, (round % 2 == 0) ? small : large);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.size_bytes(), small.serialized_size());
    EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
  }

  // Re-offers alongside other residents never push past the budget.
  AdmissionChunkCache mixed(4 * small.serialized_size(), /*n_shards=*/1);
  for (int i = 0; i < 3; ++i) {
    const Chunk fill =
        MakeChunk(ChunkType::kBlob, std::string(100, 'a' + i));
    mixed.Put(fill.ComputeCid(), fill);
  }
  for (int round = 0; round < 20; ++round) {
    mixed.Put(cid, (round % 2 == 0) ? large : small);
    EXPECT_LE(mixed.size_bytes(), mixed.capacity_bytes());
  }
}

TEST(AdmissionChunkCacheTest, OversizedChunkIsNeverCached) {
  const Chunk huge = MakeChunk(ChunkType::kBlob, std::string(4000, 'z'));
  AdmissionChunkCache cache(1000, /*n_shards=*/1);
  cache.Put(huge.ComputeCid(), huge);
  EXPECT_FALSE(cache.Contains(huge.ComputeCid()));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().rejections, 1u);
}

std::vector<ChunkStore*> Instances(
    const std::vector<std::unique_ptr<MemChunkStore>>& pool) {
  std::vector<ChunkStore*> out;
  for (const auto& instance : pool) out.push_back(instance.get());
  return out;
}

std::vector<std::unique_ptr<MemChunkStore>> MakePool(size_t n) {
  std::vector<std::unique_ptr<MemChunkStore>> pool;
  for (size_t i = 0; i < n; ++i) {
    pool.push_back(std::make_unique<MemChunkStore>());
  }
  return pool;
}

// For each chunk of `chunks`, the indices of the pool instances holding it.
std::vector<std::vector<size_t>> Placement(
    const std::vector<std::unique_ptr<MemChunkStore>>& pool,
    const ChunkBatch& chunks) {
  std::vector<std::vector<size_t>> out;
  for (const auto& entry : chunks) {
    out.emplace_back();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i]->Contains(entry.first)) out.back().push_back(i);
    }
  }
  return out;
}

TEST(ServletChunkStoreTest, PlacementFollowsTheLayerPolicyForPutAndPutBatch) {
  constexpr size_t kN = 4;
  constexpr size_t kLocal = 1;
  // Meta and data chunks mixed, enough of them to reach every instance.
  ChunkBatch chunks;
  for (int i = 0; i < 32; ++i) {
    const Chunk c = MakeChunk(i % 4 == 0 ? ChunkType::kMeta : ChunkType::kBlob,
                              "placed chunk " + std::to_string(i));
    chunks.emplace_back(c.ComputeCid(), c);
  }

  for (const bool two_layer : {true, false}) {
    SCOPED_TRACE(two_layer ? "2LP" : "1LP");
    // One chunk at a time...
    auto by_put = MakePool(kN);
    ServletChunkStore put_view(Instances(by_put), kLocal, two_layer);
    for (const auto& [cid, chunk] : chunks) {
      ASSERT_TRUE(put_view.Put(cid, chunk).ok());
    }
    // ...and as one mixed batch land every chunk in the same place.
    auto by_batch = MakePool(kN);
    ServletChunkStore batch_view(Instances(by_batch), kLocal, two_layer);
    ASSERT_TRUE(batch_view.PutBatch(chunks).ok());
    const auto placed = Placement(by_put, chunks);
    EXPECT_EQ(Placement(by_batch, chunks), placed);

    std::set<size_t> data_sites;
    for (size_t i = 0; i < chunks.size(); ++i) {
      const auto& [cid, chunk] = chunks[i];
      // 2LP: meta chunks stay on the servlet, data chunks go by cid.
      // 1LP: everything stays local.
      const size_t want = two_layer && chunk.type() != ChunkType::kMeta
                              ? static_cast<size_t>(cid.Low64() % kN)
                              : kLocal;
      EXPECT_EQ(placed[i], std::vector<size_t>{want}) << "chunk " << i;
      if (chunk.type() != ChunkType::kMeta) data_sites.insert(want);
      Chunk out;
      EXPECT_TRUE(put_view.Get(cid, &out).ok());
      EXPECT_TRUE(put_view.GetLocal(cid, &out).ok());
    }
    EXPECT_EQ(data_sites.size(), two_layer ? kN : 1u);
    EXPECT_EQ(put_view.local_store(), by_put[kLocal].get());
    EXPECT_EQ(put_view.stats().chunks, chunks.size());
  }
}

TEST(ServletChunkStoreTest, FallbackCacheAbsorbsRepeatedPoolScans) {
  // A data chunk parked where neither the cid route nor the local
  // instance expects it (the footprint of a foreign placement policy)
  // is found by the pool-scan fallback once, then served from the
  // servlet's fallback chunk cache.
  std::vector<std::unique_ptr<MemChunkStore>> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(std::make_unique<MemChunkStore>());
  ServletChunkStore view(Instances(pool), /*local_id=*/0, /*two_layer=*/true);

  Chunk stray = MakeChunk(ChunkType::kBlob, "stray chunk content");
  const Hash cid = stray.ComputeCid();
  const size_t routed = static_cast<size_t>(cid.Low64() % pool.size());
  size_t parked = 0;
  while (parked == routed || parked == 0) ++parked;  // not routed, not local
  ASSERT_TRUE(pool[parked]->Put(cid, stray).ok());

  Chunk out;
  ASSERT_TRUE(view.Get(cid, &out).ok());
  ChunkStoreStats st = view.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 0u);

  ASSERT_TRUE(view.Get(cid, &out).ok());
  EXPECT_EQ(out.payload().ToString(), "stray chunk content");
  st = view.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 1u);

  // Chunks in their expected locations never touch the cache.
  Chunk local_meta = MakeChunk(ChunkType::kMeta, "meta chunk");
  ASSERT_TRUE(view.Put(local_meta.ComputeCid(), local_meta).ok());
  ASSERT_TRUE(view.Get(local_meta.ComputeCid(), &out).ok());
  st = view.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
}

TEST(ServletChunkStoreTest, StandaloneModeServesLocalStoreOnly) {
  // The `forkbased` deployment shape: one physical store, no pool. With
  // no peer resolver attached, a miss is an authoritative NotFound, and
  // GetLocal (what this servlet serves to peers) bypasses the cache. A
  // pool of one behaves the same, even under 2LP.
  for (const bool standalone : {true, false}) {
    SCOPED_TRACE(standalone ? "standalone" : "pool of one");
    auto pool = MakePool(1);
    MemChunkStore* raw = pool[0].get();
    auto view = standalone
                    ? std::make_unique<ServletChunkStore>(std::move(pool[0]),
                                                          /*peers=*/nullptr)
                    : std::make_unique<ServletChunkStore>(
                          Instances(pool), /*local_id=*/0, /*two_layer=*/true);

    const Chunk chunk = MakeChunk(ChunkType::kBlob, "standalone chunk");
    const Hash cid = chunk.ComputeCid();
    ASSERT_TRUE(view->Put(cid, chunk).ok());
    EXPECT_TRUE(raw->Contains(cid)) << "write did not land in the local store";
    EXPECT_EQ(view->local_store(), raw);
    const Chunk meta = MakeChunk(ChunkType::kMeta, "standalone meta");
    ASSERT_TRUE(view->PutBatch({{meta.ComputeCid(), meta}, {cid, chunk}}).ok());
    EXPECT_TRUE(raw->Contains(meta.ComputeCid()));

    Chunk out;
    ASSERT_TRUE(view->Get(cid, &out).ok());
    ASSERT_TRUE(view->GetLocal(cid, &out).ok());
    EXPECT_TRUE(view->Contains(cid));

    const Hash missing = Hash::Of(Slice("not stored anywhere"));
    EXPECT_TRUE(view->Get(missing, &out).IsNotFound());
    EXPECT_TRUE(view->GetLocal(missing, &out).IsNotFound());
    EXPECT_EQ(view->stats().peer_fetches, 0u);
  }
}

}  // namespace
}  // namespace fb
