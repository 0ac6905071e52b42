// Concurrency tests for the striped chunk-store layer and the striped
// BranchManager behind ForkBase: N threads hammering the GroupCommitter,
// MemChunkStore / LogChunkStore / LsmChunkStore with overlapping Puts,
// Gets and batched operations, plus guarded and fork-on-conflict
// commits on disjoint and colliding key sets. After the threads
// quiesce, every chunk must be retrievable with intact content and the
// dedup counters must satisfy their algebraic invariants:
//
//   chunks      == number of distinct cids ever written
//   dedup_hits  == puts - chunks
//   stored_bytes  == sum of serialized_size over distinct chunks
//   logical_bytes == sum of serialized_size over all Put calls
//
// Designed to run under -fsanitize=thread (see FORKBASE_SANITIZE in
// CMakeLists.txt); the assertions also catch lost updates without TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <future>

#include "api/db.h"
#include "chunk/chunk.h"
#include "chunk/chunk_store.h"
#include "chunk/group_commit.h"
#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "kvstore/lsm_chunk_store.h"
#include "replication/group.h"
#include "replication/replicated_store.h"
#include "rpc/remote_service.h"
#include "rpc/server.h"
#include "util/random.h"

namespace fb {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kChunksPerThread = 400;
// Threads deliberately overlap on a shared key space so dedup races are
// exercised: payloads are generated as (global id % kDistinctPayloads),
// so with kThreads * kChunksPerThread > kDistinctPayloads distinct ids,
// different threads put identical chunks concurrently.
constexpr size_t kDistinctPayloads = 900;

Chunk PayloadChunk(size_t id) {
  std::string s = "payload-" + std::to_string(id % kDistinctPayloads) + "-";
  s.append(id % 37, 'x');  // vary sizes
  return Chunk(ChunkType::kBlob, ToBytes(s));
}

// Runs `fn(thread_index)` on kThreads threads and joins them.
void RunThreads(const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

// Checks the stats invariants given the exact multiset of puts performed.
void CheckStatsInvariants(const ChunkStoreStats& st, uint64_t total_puts,
                          uint64_t distinct_chunks, uint64_t distinct_bytes,
                          uint64_t logical_bytes) {
  EXPECT_EQ(st.puts, total_puts);
  EXPECT_EQ(st.chunks, distinct_chunks);
  EXPECT_EQ(st.dedup_hits, total_puts - distinct_chunks);
  EXPECT_EQ(st.stored_bytes, distinct_bytes);
  EXPECT_EQ(st.logical_bytes, logical_bytes);
}

struct Expected {
  uint64_t total_puts = 0;
  uint64_t distinct_chunks = 0;
  uint64_t distinct_bytes = 0;
  uint64_t logical_bytes = 0;
};

// The deterministic workload: every thread puts chunks [0, kChunksPerThread)
// of its own id stream, which overlap across threads via kDistinctPayloads.
Expected ComputeExpected() {
  Expected e;
  std::unordered_map<Hash, uint64_t, HashHasher> seen;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kChunksPerThread; ++i) {
      const Chunk c = PayloadChunk(t * kChunksPerThread + i);
      ++e.total_puts;
      e.logical_bytes += c.serialized_size();
      if (seen.emplace(c.ComputeCid(), c.serialized_size()).second) {
        ++e.distinct_chunks;
        e.distinct_bytes += c.serialized_size();
      }
    }
  }
  return e;
}

TEST(ConcurrencyTest, MemChunkStoreParallelPutGet) {
  MemChunkStore store;
  std::atomic<uint64_t> get_failures{0};
  RunThreads([&](size_t t) {
    Rng rng(7 * t + 1);
    for (size_t i = 0; i < kChunksPerThread; ++i) {
      const size_t id = t * kChunksPerThread + i;
      const Chunk c = PayloadChunk(id);
      ASSERT_TRUE(store.Put(c.ComputeCid(), c).ok());
      // Interleave reads of chunks this thread already wrote.
      if (i > 0 && rng.Uniform(2) == 0) {
        const Chunk back =
            PayloadChunk(t * kChunksPerThread + rng.Uniform(i));
        Chunk got;
        if (!store.Get(back.ComputeCid(), &got).ok() ||
            got.payload() != back.payload()) {
          ++get_failures;
        }
      }
    }
  });
  EXPECT_EQ(get_failures.load(), 0u);

  const Expected e = ComputeExpected();
  const ChunkStoreStats st = store.stats();
  CheckStatsInvariants(st, e.total_puts, e.distinct_chunks, e.distinct_bytes,
                       e.logical_bytes);

  // No lost chunks: every distinct cid is retrievable with intact bytes.
  for (size_t id = 0; id < kThreads * kChunksPerThread; ++id) {
    const Chunk c = PayloadChunk(id);
    Chunk got;
    ASSERT_TRUE(store.Get(c.ComputeCid(), &got).ok());
    ASSERT_EQ(got.payload().ToBytes(), c.payload().ToBytes());
  }
}

TEST(ConcurrencyTest, GroupCommitterCommitsEveryRecordExactlyOnce) {
  // 8 writers mixing single commits and batches: every record reaches
  // the callback exactly once, and no writer returns before the group
  // holding its records has been committed.
  std::vector<std::atomic<int>> commits(kThreads * kChunksPerThread);
  std::atomic<size_t> groups{0};
  std::atomic<bool> in_commit{false};
  std::atomic<bool> overlapping_commits{false};
  std::vector<Chunk> chunks;
  for (size_t id = 0; id < commits.size(); ++id) {
    // Unique per record (no payload aliasing), so the cid names it.
    chunks.emplace_back(ChunkType::kBlob,
                        ToBytes("rec-" + std::to_string(id)));
  }
  std::unordered_map<Hash, size_t, HashHasher> id_of;
  for (size_t id = 0; id < chunks.size(); ++id) {
    id_of.emplace(chunks[id].ComputeCid(), id);
  }
  GroupCommitter gc("test-gc", [&](const GroupCommitter::Group& g) {
    if (in_commit.exchange(true)) overlapping_commits = true;
    groups.fetch_add(1, std::memory_order_relaxed);
    // Stand-in for an fsync: keeps the combiner busy long enough that
    // other writers queue behind it instead of running one by one.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    for (const auto& r : g) commits[id_of.at(*r.cid)].fetch_add(1);
    in_commit = false;
    return Status::OK();
  });

  std::atomic<uint64_t> returned_early{0};
  std::atomic<size_t> calls{0};
  RunThreads([&](size_t t) {
    Rng rng(17 * t + 3);
    ChunkBatch batch;
    std::vector<size_t> batch_ids;
    auto check = [&](const std::vector<size_t>& ids) {
      for (size_t id : ids) {
        if (commits[id].load() != 1) ++returned_early;
      }
    };
    for (size_t i = 0; i < kChunksPerThread; ++i) {
      const size_t id = t * kChunksPerThread + i;
      if (rng.Uniform(2) == 0) {
        ++calls;
        ASSERT_TRUE(gc.Commit(chunks[id].ComputeCid(), chunks[id]).ok());
        check({id});
      } else {
        batch.emplace_back(chunks[id].ComputeCid(), chunks[id]);
        batch_ids.push_back(id);
      }
      const bool last = i + 1 == kChunksPerThread;
      if (batch.size() == 16 || (last && !batch.empty())) {
        ++calls;
        ASSERT_TRUE(gc.Commit(batch).ok());
        check(batch_ids);
        batch.clear();
        batch_ids.clear();
      }
    }
  });

  EXPECT_EQ(returned_early.load(), 0u);
  EXPECT_FALSE(overlapping_commits.load()) << "two combiners ran at once";
  for (size_t id = 0; id < commits.size(); ++id) {
    ASSERT_EQ(commits[id].load(), 1) << "record " << id;
  }
  // Writers did pile up: fewer groups than commit calls.
  EXPECT_LT(groups.load(), calls.load());
}

TEST(ConcurrencyTest, MemChunkStoreParallelBatches) {
  // Single Puts take a stripe directly while PutBatch goes through the
  // combiner: the two paths race on the same shards (and, via payload
  // aliasing, on the same cids) under the exact stats invariants.
  MemChunkStore store;
  RunThreads([&](size_t t) {
    Rng rng(13 * t + 5);
    ChunkBatch batch;
    for (size_t i = 0; i < kChunksPerThread; ++i) {
      const Chunk c = PayloadChunk(t * kChunksPerThread + i);
      if (rng.Uniform(2) == 0) {
        ASSERT_TRUE(store.Put(c.ComputeCid(), c).ok());
      } else {
        batch.emplace_back(c.ComputeCid(), c);
      }
      const bool last = i + 1 == kChunksPerThread;
      if (batch.size() == 25 || (last && !batch.empty())) {
        ASSERT_TRUE(store.PutBatch(batch).ok());
        // Read the batch straight back through the batched path.
        std::vector<Hash> cids;
        for (const auto& [cid, chunk] : batch) cids.push_back(cid);
        std::vector<Chunk> got;
        ASSERT_TRUE(store.GetBatch(cids, &got).ok());
        ASSERT_EQ(got.size(), batch.size());
        for (size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(got[j].payload().ToBytes(),
                    batch[j].second.payload().ToBytes());
        }
        batch.clear();
      }
    }
  });

  const Expected e = ComputeExpected();
  CheckStatsInvariants(store.stats(), e.total_puts, e.distinct_chunks,
                       e.distinct_bytes, e.logical_bytes);

  // Every distinct cid resolves through the batched read path.
  std::vector<Hash> all_cids;
  for (size_t id = 0; id < kDistinctPayloads; ++id) {
    all_cids.push_back(PayloadChunk(id).ComputeCid());
  }
  std::vector<Chunk> got;
  ASSERT_TRUE(store.GetBatch(all_cids, &got).ok());
  for (size_t i = 0; i < all_cids.size(); ++i) {
    ASSERT_EQ(got[i].ComputeCid(), all_cids[i]);
  }
}

TEST(ConcurrencyTest, LogChunkStoreParallelPutGet) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fb_conc_log_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto open = LogChunkStore::Open(dir.string(), /*segment_size=*/16 << 10);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    LogChunkStore* store = open->get();
    std::atomic<uint64_t> get_failures{0};
    RunThreads([&](size_t t) {
      Rng rng(29 * t + 3);
      for (size_t i = 0; i < kChunksPerThread / 4; ++i) {
        const size_t id = t * kChunksPerThread + i;
        const Chunk c = PayloadChunk(id);
        ASSERT_TRUE(store->Put(c.ComputeCid(), c).ok());
        if (i > 0 && rng.Uniform(2) == 0) {
          const Chunk back =
              PayloadChunk(t * kChunksPerThread + rng.Uniform(i));
          Chunk got;
          if (!store->Get(back.ComputeCid(), &got).ok() ||
              got.payload() != back.payload()) {
            ++get_failures;
          }
        }
      }
    });
    EXPECT_EQ(get_failures.load(), 0u);
    const ChunkStoreStats st = store->stats();
    EXPECT_EQ(st.puts, kThreads * (kChunksPerThread / 4));
    EXPECT_EQ(st.dedup_hits, st.puts - st.chunks);
  }
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, LsmChunkStoreParallelPutGet) {
  // Same contract as the LogChunkStore stress, against the LSM backend
  // with a tiny memtable so concurrent writers race group commit, WAL
  // rotation, memtable flushes AND size-tiered compaction — readers
  // must keep resolving chunks that migrate memtable -> run -> merged
  // run mid-flight (the shared_ptr<Run> unlink-safety path).
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fb_conc_lsm_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    LsmChunkStoreOptions opts;
    opts.memtable_bytes = 8 << 10;
    opts.fanout = 2;
    auto open = LsmChunkStore::Open(dir.string(), opts);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    LsmChunkStore* store = open->get();
    std::atomic<uint64_t> get_failures{0};
    RunThreads([&](size_t t) {
      Rng rng(31 * t + 7);
      for (size_t i = 0; i < kChunksPerThread / 4; ++i) {
        const size_t id = t * kChunksPerThread + i;
        const Chunk c = PayloadChunk(id);
        ASSERT_TRUE(store->Put(c.ComputeCid(), c).ok());
        if (i > 0 && rng.Uniform(2) == 0) {
          const Chunk back =
              PayloadChunk(t * kChunksPerThread + rng.Uniform(i));
          Chunk got;
          if (!store->Get(back.ComputeCid(), &got).ok() ||
              got.payload() != back.payload()) {
            ++get_failures;
          }
        }
      }
    });
    EXPECT_EQ(get_failures.load(), 0u);
    const ChunkStoreStats st = store->stats();
    EXPECT_EQ(st.puts, kThreads * (kChunksPerThread / 4));
    EXPECT_EQ(st.dedup_hits, st.puts - st.chunks);
    EXPECT_GT(store->backend_stats().flushes, 0u)
        << "memtable never flushed; the stress missed the on-disk path";
  }
  // Everything written under contention recovers from disk.
  auto reopened = LsmChunkStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (size_t id = 0; id < kThreads * kChunksPerThread; ++id) {
    if (id % kChunksPerThread >= kChunksPerThread / 4) continue;
    const Chunk c = PayloadChunk(id);
    Chunk got;
    ASSERT_TRUE((*reopened)->Get(c.ComputeCid(), &got).ok());
    EXPECT_EQ(got.payload().ToString(), c.payload().ToString());
  }
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, BranchManagerGuardedPutsDisjointKeys) {
  // Each thread owns one key and chains guarded Puts on it: with striping,
  // no thread should ever observe another's head, and every chain must be
  // fully linear afterwards (no lost heads).
  constexpr size_t kPutsPerKey = 30;
  ForkBase db;
  std::vector<Hash> final_uid(kThreads);
  RunThreads([&](size_t t) {
    const std::string key = "own-" + std::to_string(t);
    Hash guard = Hash::Null();
    for (size_t i = 0; i < kPutsPerKey; ++i) {
      auto uid = db.PutGuarded(key, kDefaultBranch,
                               Value::OfString("v" + std::to_string(i)),
                               guard);
      ASSERT_TRUE(uid.ok()) << uid.status().ToString();
      guard = *uid;
    }
    final_uid[t] = guard;
  });
  for (size_t t = 0; t < kThreads; ++t) {
    const std::string key = "own-" + std::to_string(t);
    auto head = db.Head(key, kDefaultBranch);
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(*head, final_uid[t]);
    // The history from the head is the thread's full chain.
    auto history = db.Track(key, kDefaultBranch, 0, kPutsPerKey + 1);
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), kPutsPerKey);
  }
}

TEST(ConcurrencyTest, BranchManagerGuardedPutsCollidingKey) {
  // All threads CAS-loop guarded Puts against ONE key/branch. Every
  // successful Put must appear in the final linear history exactly once:
  // stale guards are rejected, successes are never lost.
  constexpr size_t kSuccessesPerThread = 12;
  ForkBase db;
  const std::string key = "contended";
  std::atomic<uint64_t> stale_rejections{0};
  RunThreads([&](size_t t) {
    (void)t;
    for (size_t i = 0; i < kSuccessesPerThread;) {
      const Hash guard = [&] {
        auto head = db.Head(key, kDefaultBranch);
        return head.ok() ? *head : Hash::Null();
      }();
      auto uid = db.PutGuarded(key, kDefaultBranch,
                               Value::OfString(std::to_string(t * 1000 + i)),
                               guard);
      if (uid.ok()) {
        ++i;
      } else {
        ASSERT_TRUE(uid.status().IsPreconditionFailed())
            << uid.status().ToString();
        ++stale_rejections;
      }
    }
  });
  auto head = db.Head(key, kDefaultBranch);
  ASSERT_TRUE(head.ok());
  auto history = db.TrackFromUid(
      *head, 0, kThreads * kSuccessesPerThread + 1);
  ASSERT_TRUE(history.ok());
  // Linear chain: one commit per successful guarded Put, no losses.
  EXPECT_EQ(history->size(), kThreads * kSuccessesPerThread);
  for (const FObject& obj : *history) {
    EXPECT_LE(obj.bases().size(), 1u);
  }
}

TEST(ConcurrencyTest, BranchManagerForkOnConflictLeafSets) {
  // Threads race fork-on-conflict Puts: on shared keys, all 8 derive from
  // the same base and then chain privately; on private keys each thread
  // chains alone. The UB-table must end up holding exactly the leaves of
  // the derivation graph — every thread's final uid, nothing else.
  constexpr size_t kSharedKeys = 4;
  constexpr size_t kChain = 10;
  ForkBase db;

  // Seed each shared key with a common base version.
  std::vector<Hash> base(kSharedKeys);
  for (size_t k = 0; k < kSharedKeys; ++k) {
    auto uid = db.PutByBase("shared-" + std::to_string(k), Hash::Null(),
                            Value::OfString("base"));
    ASSERT_TRUE(uid.ok());
    base[k] = *uid;
  }

  // tips[k][t] = thread t's final uid on shared key k.
  std::vector<std::vector<Hash>> tips(kSharedKeys,
                                      std::vector<Hash>(kThreads));
  std::vector<Hash> own_tip(kThreads);
  RunThreads([&](size_t t) {
    const size_t k = t % kSharedKeys;
    const std::string shared_key = "shared-" + std::to_string(k);
    Hash cur = base[k];
    for (size_t i = 0; i < kChain; ++i) {
      auto uid = db.PutByBase(
          shared_key, cur,
          Value::OfString("t" + std::to_string(t) + "-" + std::to_string(i)));
      ASSERT_TRUE(uid.ok()) << uid.status().ToString();
      cur = *uid;
    }
    tips[k][t] = cur;

    const std::string own_key = "foc-own-" + std::to_string(t);
    Hash own = Hash::Null();
    for (size_t i = 0; i < kChain; ++i) {
      auto uid = db.PutByBase(own_key, own, Value::OfInt(int64_t(i)));
      ASSERT_TRUE(uid.ok());
      own = *uid;
    }
    own_tip[t] = own;
  });

  for (size_t k = 0; k < kSharedKeys; ++k) {
    auto leaves = db.ListUntaggedBranches("shared-" + std::to_string(k));
    ASSERT_TRUE(leaves.ok());
    std::set<Hash> expected;
    for (size_t t = 0; t < kThreads; ++t) {
      if (t % kSharedKeys == k) expected.insert(tips[k][t]);
    }
    const std::set<Hash> got(leaves->begin(), leaves->end());
    EXPECT_EQ(got, expected) << "shared key " << k;
  }
  for (size_t t = 0; t < kThreads; ++t) {
    auto leaves = db.ListUntaggedBranches("foc-own-" + std::to_string(t));
    ASSERT_TRUE(leaves.ok());
    ASSERT_EQ(leaves->size(), 1u);
    EXPECT_EQ((*leaves)[0], own_tip[t]);
  }
}

TEST(ConcurrencyTest, BranchManagerMixedOpsSingleStripe) {
  // branch_stripes = 1 degenerates to the paper's fully-serialized
  // servlet; the same workload must stay correct (striping is a pure
  // performance knob, never a semantic one).
  DBOptions opts;
  opts.branch_stripes = 1;
  ForkBase db(opts);
  RunThreads([&](size_t t) {
    const std::string key = "k" + std::to_string(t % 3);
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.Put(key, Value::OfInt(int64_t(t * 100 + i))).ok());
    }
  });
  for (size_t k = 0; k < 3; ++k) {
    auto obj = db.Get("k" + std::to_string(k));
    ASSERT_TRUE(obj.ok());
  }
}

TEST(ConcurrencyTest, ForkBasePutManyFromManyThreads) {
  // Threads bulk-load disjoint key ranges through the DB's batched path;
  // every key must resolve afterwards and chunk accounting must balance.
  ForkBase db;
  RunThreads([&](size_t t) {
    std::vector<std::pair<std::string, Value>> kvs;
    for (size_t i = 0; i < 50; ++i) {
      kvs.emplace_back("key-" + std::to_string(t) + "-" + std::to_string(i),
                       Value::OfString(Slice("v" + std::to_string(i))));
    }
    auto uids = db.PutMany(kvs);
    ASSERT_TRUE(uids.ok()) << uids.status().ToString();
    ASSERT_EQ(uids->size(), kvs.size());
  });
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < 50; ++i) {
      auto obj = db.Get("key-" + std::to_string(t) + "-" + std::to_string(i));
      ASSERT_TRUE(obj.ok());
      EXPECT_EQ(obj->value().bytes().ToString(), "v" + std::to_string(i));
    }
  }
  const ChunkStoreStats st = db.store()->stats();
  EXPECT_EQ(st.dedup_hits, st.puts - st.chunks);
}

TEST(ConcurrencyTest, HotHeadCacheReadersRaceHeadMoves) {
  // 4 writer threads move the heads of 4 keys (Put on master, plus
  // fork/remove churn to rattle the HeadObserver), while 4 reader
  // threads serve the same keys through GetValue — the hot-head value
  // cache path. The uid-guard invariant under test: a reader may be
  // served from the cache only for the head it just resolved, so the
  // per-key counter each reader observes must be monotone (a stale
  // cached value surfacing after a newer one is a correctness bug, not
  // a performance blip). Designed for TSan.
  ForkBase db;
  constexpr size_t kKeys = 4;
  constexpr int kWrites = 200;
  auto key_of = [](size_t k) { return "hot-" + std::to_string(k); };

  RunThreads([&](size_t t) {
    if (t < kKeys) {
      // Writer: owns one key, so its counter values are strictly
      // increasing along the master branch.
      const std::string key = key_of(t);
      for (int i = 0; i < kWrites; ++i) {
        ASSERT_TRUE(db.Put(key, Value::OfInt(i)).ok());
        if (i % 16 == 0) {
          const std::string side = "side-" + std::to_string(i);
          if (db.Fork(key, kDefaultBranch, side).ok()) {
            ASSERT_TRUE(db.Remove(key, side).ok());
          }
        }
      }
    } else {
      // Reader: cycles over every key through the hot path.
      int64_t last_seen[kKeys];
      for (size_t k = 0; k < kKeys; ++k) last_seen[k] = -1;
      for (int i = 0; i < 4 * kWrites; ++i) {
        const size_t k = i % kKeys;
        auto readout = db.GetValue(key_of(k));
        if (readout.status().IsNotFound()) continue;  // writer not started
        ASSERT_TRUE(readout.ok()) << readout.status().ToString();
        ASSERT_TRUE(readout->has_value);
        const int64_t counter = readout->object.value().AsInt();
        EXPECT_GE(counter, last_seen[k]) << "stale cached value served";
        last_seen[k] = counter;
      }
    }
  });

  // Quiesced: the latest write is what every path serves.
  for (size_t k = 0; k < kKeys; ++k) {
    auto readout = db.GetValue(key_of(k));
    ASSERT_TRUE(readout.ok());
    EXPECT_EQ(readout->object.value().AsInt(), kWrites - 1);
  }
  const HotHeadCacheStats st = db.hot_head_stats();
  EXPECT_GT(st.inserts, 0u);
  EXPECT_GT(st.hits + st.misses, 0u);

  // Deterministic observer check (the race above may interleave so that
  // every head move lands before the first insert): a cached read
  // followed by a head move must drop the entry, and the next read must
  // re-load and serve the new value.
  ASSERT_TRUE(db.GetValue(key_of(0)).ok());  // (re)inserts hot-0
  ASSERT_TRUE(db.Put(key_of(0), Value::OfInt(kWrites)).ok());
  EXPECT_GT(db.hot_head_stats().invalidations, st.invalidations)
      << "head move never reached the observer";
  auto fresh = db.GetValue(key_of(0));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->object.value().AsInt(), kWrites);
}

TEST(ConcurrencyTest, ClusterClientSubmitStress) {
  // 8 threads pushing mixed async commands through one shared
  // ClusterClient: plain Puts (coalescible into PutMany groups), guarded
  // Puts and reads, racing against the per-servlet workers. Every future
  // must resolve, every committed uid must be readable afterwards, and
  // the run must be TSan-clean.
  ClusterOptions opts;
  opts.num_servlets = 4;
  Cluster cluster(opts);
  ClusterClient client(&cluster);

  constexpr size_t kOpsPerThread = 120;
  std::vector<std::vector<Hash>> committed(kThreads);
  RunThreads([&](size_t t) {
    std::vector<std::future<Reply>> futures;
    futures.reserve(kOpsPerThread);
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      Command cmd;
      if (i % 10 == 9) {
        // Interleave reads: they flush put runs inside the worker.
        cmd.op = CommandOp::kGet;
        cmd.key = "t" + std::to_string(t) + "-k" + std::to_string(i / 2);
        cmd.branch = kDefaultBranch;
      } else {
        cmd.op = CommandOp::kPut;
        cmd.key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        cmd.branch = kDefaultBranch;
        cmd.value = Value::OfInt(int64_t(t * 1000 + i));
      }
      futures.push_back(client.Submit(std::move(cmd)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      Reply r = futures[i].get();
      if (i % 10 == 9) continue;  // reads may race ahead of their put
      ASSERT_TRUE(r.ok()) << r.ToStatus().ToString();
      committed[t].push_back(r.uid);
    }
  });
  client.Flush();

  for (size_t t = 0; t < kThreads; ++t) {
    for (const Hash& uid : committed[t]) {
      ASSERT_TRUE(client.GetByUid(uid).ok());
    }
  }
  const auto stats = client.submit_stats();
  EXPECT_EQ(stats.submitted, uint64_t{kThreads * kOpsPerThread});
  EXPECT_EQ(stats.coalesced_puts == 0, stats.put_groups == 0);
}

TEST(ConcurrencyTest, RemoteServiceSubmitStress) {
  // 8 threads pipelining async commands through one shared RemoteService
  // over a real loopback socket: the per-connection demux, the server's
  // worker pool and the connection pool all race. Every future must
  // resolve, every committed uid must be readable afterwards, and the
  // run must be TSan-clean.
  ForkBase engine;
  auto server = rpc::ForkBaseServer::Start(&engine, {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 4;
  auto client = rpc::RemoteService::Connect((*server)->endpoint(), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr size_t kOpsPerThread = 60;
  std::vector<std::vector<Hash>> committed(kThreads);
  RunThreads([&](size_t t) {
    std::vector<std::future<Reply>> futures;
    futures.reserve(kOpsPerThread);
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      Command cmd;
      if (i % 8 == 7) {
        cmd.op = CommandOp::kGet;
        cmd.key = "r" + std::to_string(t) + "-k" + std::to_string(i / 2);
        cmd.branch = kDefaultBranch;
      } else {
        cmd.op = CommandOp::kPut;
        cmd.key = "r" + std::to_string(t) + "-k" + std::to_string(i);
        cmd.branch = kDefaultBranch;
        cmd.value = Value::OfInt(int64_t(t * 1000 + i));
      }
      futures.push_back((*client)->Submit(std::move(cmd)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      Reply r = futures[i].get();
      if (i % 8 == 7) continue;  // reads may race ahead of their put
      ASSERT_TRUE(r.ok()) << r.ToStatus().ToString();
      committed[t].push_back(r.uid);
    }
  });

  for (size_t t = 0; t < kThreads; ++t) {
    for (const Hash& uid : committed[t]) {
      ASSERT_TRUE((*client)->GetByUid(uid).ok());
    }
  }
  const auto sstats = (*server)->stats();
  EXPECT_EQ(sstats.protocol_errors, 0u);
  EXPECT_GE(sstats.requests, uint64_t{kThreads * kOpsPerThread});
}

// Quorum replication under concurrent commits: a 3-member replica group
// over loopback, many writer threads on the leader with
// DurabilityPolicy::kQuorum, so every Put crosses the observer (inside
// the branch stripes), the replication log, the per-follower sender
// threads, the quorum barrier and the followers' apply path at once —
// the lock ladder's full replication slice, under TSan when enabled.
// After the threads quiesce the three branch tables must be
// byte-identical.
TEST(ConcurrencyTest, ReplicaGroupQuorumCommitStress) {
  constexpr size_t kWriters = 4;
  constexpr size_t kPutsPerWriter = 25;

  struct Node {
    MemChunkStore* raw = nullptr;
    std::unique_ptr<PeerChunkResolver> resolver;
    repl::ReplicatingChunkStore* rstore = nullptr;
    std::unique_ptr<ForkBase> engine;
    std::unique_ptr<rpc::ForkBaseServer> server;
    std::unique_ptr<repl::ReplicaGroup> group;
    ~Node() {
      if (server != nullptr) server->Stop();
      if (group != nullptr) group->Stop();
    }
  };
  Node nodes[3];
  for (Node& n : nodes) {
    auto local = std::make_unique<MemChunkStore>();
    n.raw = local.get();
    n.resolver = std::make_unique<PeerChunkResolver>();
    auto servlet = std::make_unique<ServletChunkStore>(std::move(local),
                                                       n.resolver.get());
    auto wrapped =
        std::make_unique<repl::ReplicatingChunkStore>(std::move(servlet));
    n.rstore = wrapped.get();
    DBOptions dbo;
    dbo.tree.leaf_pattern_bits = 7;
    dbo.tree.index_pattern_bits = 3;
    dbo.durability = DurabilityPolicy::kQuorum;
    n.engine = std::make_unique<ForkBase>(dbo, std::move(wrapped));
    rpc::ServerOptions so;
    so.listen = "127.0.0.1:0";
    so.local_chunk_store = n.raw;
    so.peer_count = 2;
    auto server = rpc::ForkBaseServer::Start(n.engine.get(), so);
    ASSERT_TRUE(server.ok());
    n.server = std::move(*server);
  }
  std::vector<std::string> members;
  for (const Node& n : nodes) members.push_back(n.server->endpoint());
  for (size_t i = 0; i < 3; ++i) {
    std::vector<std::string> peers;
    for (size_t j = 0; j < 3; ++j) {
      if (j != i) peers.push_back(members[j]);
    }
    nodes[i].resolver->SetPeers(peers);
    repl::ReplicaGroupOptions ro;
    ro.members = members;
    ro.self = members[i];
    ro.heartbeat_ms = 10;
    ro.election_timeout_ms = 60000;  // no elections behind the test's back
    nodes[i].group = std::make_unique<repl::ReplicaGroup>(
        nodes[i].engine.get(), nodes[i].rstore, ro);
    ASSERT_TRUE(nodes[i].group->Start().ok());
    nodes[i].server->set_replication(nodes[i].group.get());
  }
  // Quorum writes block until a majority acks, so wait for both
  // followers to register before the hammering starts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (nodes[0].group->Snapshot().follower_count < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "followers never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Writers overlap on a shared key ("hot") and write private keys, so
  // both the colliding and the disjoint stripe paths replicate.
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPutsPerWriter; ++i) {
        const std::string v =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        if (!nodes[0].engine->Put("hot", "master", Value::OfString(v)).ok() ||
            !nodes[0]
                 .engine
                 ->Put("key-" + std::to_string(t), "master",
                       Value::OfString(v))
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const auto stats = nodes[0].group->stats();
  EXPECT_GE(stats.quorum_commits, uint64_t{kWriters * kPutsPerWriter * 2});
  EXPECT_EQ(stats.quorum_timeouts, 0u);

  // Followers converge to the leader's exact branch tables.
  const uint64_t end = nodes[0].group->durable_offset();
  for (size_t i = 1; i < 3; ++i) {
    while (nodes[i].group->durable_offset() < end) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "follower " << i << " never caught up";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  auto leader_state = nodes[0].engine->ExportBranchState();
  ASSERT_TRUE(leader_state.ok());
  for (size_t i = 1; i < 3; ++i) {
    auto state = nodes[i].engine->ExportBranchState();
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, *leader_state);
    EXPECT_EQ(nodes[i].group->stats().apply_errors, 0u);
    auto head = nodes[i].engine->Get("hot", "master");
    EXPECT_TRUE(head.ok());
  }
}

}  // namespace
}  // namespace fb
