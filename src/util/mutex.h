#pragma once

// Annotated mutex wrappers with a debug lock-rank registry.
//
// `fb::Mutex` / `fb::SharedMutex` carry the thread-safety capability
// attributes (so clang's -Wthread-safety proves which fields each lock
// guards), and in debug builds every ranked mutex participates in a
// deadlock detector: a thread-local stack of held locks asserts that
// ranks are only ever acquired in increasing order. The documented
// acquisition order of the system —
//
//   service (rpc server queue / client workers)
//     -> per-connection state
//     -> ForkBase snapshot serialization
//     -> branch stripes (all-stripe export walks them in index order)
//     -> store group-commit combiner queues
//     -> store shards / memtables
//     -> caches (chunk / block / hot-head)
//     -> store leaves (backend stats, SST read handles)
//     -> peer resolver (invoked from inside a store miss)
//     -> remote-service client pool -> remote-service connection
//
// — becomes an abort-with-diagnostic instead of a comment. Mutexes
// acquired in index order across a set of siblings (branch stripes,
// store shards) are constructed with `kSameRankOk` so the walk is
// legal; everything else must strictly increase. In release builds
// (NDEBUG) all checking compiles away and the wrappers forward
// straight to std::mutex / std::shared_mutex.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace fb {

// Lock ranks, outermost (acquired first) to innermost. Gaps leave room
// for new subsystems. kRankUnranked opts a mutex out of rank checking
// (it still participates in AssertHeld bookkeeping).
enum LockRank : int {
  kRankUnranked = 0,
  kRankService = 100,        // rpc server dispatch queue, client workers
  kRankServerConn = 150,     // per-connection server state
  kRankSnapshot = 200,       // ForkBase branch-snapshot serialization
  kRankReplApply = 250,      // replication follower apply serialization
  kRankBranchStripe = 300,   // BranchManager stripes (same-rank walk)
  kRankReplLog = 340,        // replication log (appended under a stripe)
  kRankReplState = 360,      // replication group role/membership/acks
  kRankStoreCombiner = 400,  // group-commit combiner queues
  kRankStore = 500,          // store shards / log index / LSM memtable
  kRankCache = 600,          // chunk / block / hot-head caches
  kRankStoreLeaf = 700,      // backend stats, SST read handles
  kRankPeerResolver = 800,   // peer set / health (under a store miss)
  kRankPeerFlight = 820,     // single-flight rendezvous
  kRankRemoteClient = 900,   // RemoteService connection pool
  kRankRemoteConn = 1000,    // RemoteService per-connection state
};

// Whether sibling mutexes of one rank may be held together (index-order
// walks over stripes/shards).
enum SameRank : bool { kSameRankNo = false, kSameRankOk = true };

#ifndef NDEBUG
namespace lock_rank_internal {

struct Held {
  const void* mu;
  int rank;
  const char* name;
  bool same_rank_ok;
};

struct HeldStack {
  static constexpr int kMax = 64;
  Held held[kMax];
  int depth = 0;
};

inline HeldStack& Stack() {
  thread_local HeldStack stack;
  return stack;
}

[[noreturn]] inline void Die(const char* what, int rank, const char* name,
                             int held_rank, const char* held_name) {
  std::fprintf(stderr,
               "lock rank violation: %s rank %d (%s) while holding rank %d "
               "(%s)\n",
               what, rank, name, held_rank, held_name);
  std::fflush(stderr);
  std::abort();
}

inline void OnAcquire(const void* mu, int rank, const char* name,
                      bool same_rank_ok) {
  HeldStack& s = Stack();
  if (rank != kRankUnranked) {
    // Find the highest-ranked lock already held; ranks must strictly
    // increase, except sibling walks flagged kSameRankOk on both sides.
    // Only the first kMax entries are recorded; deeper ones go unchecked.
    const int tracked = s.depth < HeldStack::kMax ? s.depth : HeldStack::kMax;
    for (int i = 0; i < tracked; ++i) {
      const Held& h = s.held[i];
      if (h.rank == kRankUnranked) continue;
      if (rank < h.rank) {
        Die("acquiring", rank, name, h.rank, h.name);
      }
      if (rank == h.rank && !(same_rank_ok && h.same_rank_ok)) {
        Die("re-acquiring same rank", rank, name, h.rank, h.name);
      }
    }
  }
  if (s.depth < HeldStack::kMax) {
    s.held[s.depth] = Held{mu, rank, name, same_rank_ok};
  }
  ++s.depth;
}

inline void OnRelease(const void* mu) {
  HeldStack& s = Stack();
  // Releases need not be LIFO (hand-over-hand walks); drop the newest
  // matching entry.
  const int tracked = s.depth < HeldStack::kMax ? s.depth : HeldStack::kMax;
  for (int i = tracked - 1; i >= 0; --i) {
    if (s.held[i].mu == mu) {
      for (int j = i; j + 1 < tracked; ++j) s.held[j] = s.held[j + 1];
      --s.depth;
      return;
    }
  }
  --s.depth;  // overflow slot: depth bookkeeping only
}

inline bool IsHeld(const void* mu) {
  HeldStack& s = Stack();
  const int tracked = s.depth < HeldStack::kMax ? s.depth : HeldStack::kMax;
  for (int i = 0; i < tracked; ++i) {
    if (s.held[i].mu == mu) return true;
  }
  return false;
}

}  // namespace lock_rank_internal
#endif  // !NDEBUG

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank, const char* name = "",
                 SameRank same_rank = kSameRankNo)
#ifndef NDEBUG
      : rank_(rank), name_(name), same_rank_(same_rank == kSameRankOk)
#endif
  {
    (void)rank;
    (void)name;
    (void)same_rank;
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#ifndef NDEBUG
    lock_rank_internal::OnAcquire(this, rank_, name_, same_rank_);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
    mu_.unlock();
#ifndef NDEBUG
    lock_rank_internal::OnRelease(this);
#endif
  }

  // Debug assertion that this thread holds (or does not hold) the lock.
  // The positive form doubles as a static assertion for the analysis.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    if (!lock_rank_internal::IsHeld(this)) {
      std::fprintf(stderr, "AssertHeld failed: %s not held\n", name_);
      std::fflush(stderr);
      std::abort();
    }
#endif
  }

  void AssertNotHeld() const {
#ifndef NDEBUG
    if (lock_rank_internal::IsHeld(this)) {
      std::fprintf(stderr, "AssertNotHeld failed: %s held\n", name_);
      std::fflush(stderr);
      std::abort();
    }
#endif
  }

  // Escape hatch for interop (condition variables adopt this).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
#ifndef NDEBUG
  const int rank_ = kRankUnranked;
  const char* const name_ = "";
  const bool same_rank_ = false;
#endif
};

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank, const char* name = "",
                       SameRank same_rank = kSameRankNo)
#ifndef NDEBUG
      : rank_(rank), name_(name), same_rank_(same_rank == kSameRankOk)
#endif
  {
    (void)rank;
    (void)name;
    (void)same_rank;
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#ifndef NDEBUG
    lock_rank_internal::OnAcquire(this, rank_, name_, same_rank_);
#endif
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
#ifndef NDEBUG
    lock_rank_internal::OnRelease(this);
#endif
  }
  void ReaderLock() ACQUIRE_SHARED() {
#ifndef NDEBUG
    lock_rank_internal::OnAcquire(this, rank_, name_, same_rank_);
#endif
    mu_.lock_shared();
  }
  void ReaderUnlock() RELEASE_SHARED() {
    mu_.unlock_shared();
#ifndef NDEBUG
    lock_rank_internal::OnRelease(this);
#endif
  }

 private:
  std::shared_mutex mu_;
#ifndef NDEBUG
  const int rank_ = kRankUnranked;
  const char* const name_ = "";
  const bool same_rank_ = false;
#endif
};

// RAII exclusive hold. Exposes Unlock()/Lock() so combiner loops can
// drop the queue lock around a group commit and re-take it, with the
// analysis checking that the lock state is consistent at loop edges.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.Lock();
  }
  ~MutexLock() RELEASE() {
    if (owned_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_.Unlock();
    owned_ = false;
  }
  void Lock() ACQUIRE() {
    mu_.Lock();
    owned_ = true;
  }

 private:
  Mutex& mu_;
  bool owned_;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_.ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable against fb::Mutex. Wait() requires the mutex held;
// the held-stack entry is deliberately left in place across the wait
// (the caller still owns the critical section when Wait returns).
class CondVar {
 public:
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.native(), std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }
  // Timed wait; returns false on timeout (spurious wakeups possible, so
  // callers re-check their predicate either way).
  bool WaitFor(Mutex& mu, int64_t timeout_ms) REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.native(), std::adopt_lock);
    const auto verdict =
        cv_.wait_for(adopted, std::chrono::milliseconds(timeout_ms));
    adopted.release();
    return verdict == std::cv_status::no_timeout;
  }
  // Timed predicate wait against an absolute deadline; returns the
  // predicate's value at exit (true = condition met, false = deadline).
  template <typename Pred>
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline,
                 Pred pred) REQUIRES(mu) {
    while (!pred()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return pred();
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now)
                          .count();
      WaitFor(mu, ms > 0 ? ms : 1);
    }
    return true;
  }
  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fb
