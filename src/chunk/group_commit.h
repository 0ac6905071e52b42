// GroupCommitter: the one group-commit primitive of the chunk layer.
//
// Concurrent writers enqueue references to their (cid, chunk) records
// and block. One of them is elected combiner: it drains the whole
// queue — its own records plus everything other writers enqueued
// meanwhile — and hands the drained group to the owning store's commit
// callback with the queue lock released, repeating until the queue is
// empty. A writer returns only once every record it enqueued has been
// through a commit, so one fwrite / fsync / pass over the shard locks
// is amortized over every writer that was waiting.
//
// The first failed commit is sticky: it is returned to the writers of
// that group, to every writer still waiting, and to every later call,
// which fails at once without reaching the callback (a store that lost
// an I/O write stays failed rather than diverging from its log).
//
// Thread-safe. The queue mutex ranks kRankStoreCombiner, outside every
// store lock, and is never held while the callback runs — so the
// callback may take store locks (and, for the LSM backend, flush).

#ifndef FORKBASE_CHUNK_GROUP_COMMIT_H_
#define FORKBASE_CHUNK_GROUP_COMMIT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "chunk/chunk.h"
#include "util/mutex.h"
#include "util/status.h"

namespace fb {

class GroupCommitter {
 public:
  // A queued record. The pointers refer into the caller's arguments,
  // which outlive the group: the caller blocks until it is committed.
  struct Record {
    const Hash* cid;
    const Chunk* chunk;
  };
  using Group = std::vector<Record>;
  // Commits one drained group, in enqueue order. Runs on the combiner's
  // thread with no GroupCommitter lock held.
  using CommitFn = std::function<Status(const Group&)>;

  GroupCommitter(const char* name, CommitFn commit)
      : mu_(kRankStoreCombiner, name), commit_(std::move(commit)) {}

  // Commits one record / every record of `batch`; blocks until done.
  Status Commit(const Hash& cid, const Chunk& chunk) EXCLUDES(mu_);
  Status Commit(const ChunkBatch& batch) EXCLUDES(mu_);

 private:
  Status CommitRecords(const Record* records, size_t n) EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  const CommitFn commit_;
  Group queue_ GUARDED_BY(mu_);
  uint64_t enqueued_ GUARDED_BY(mu_) = 0;   // records ever enqueued
  uint64_t committed_ GUARDED_BY(mu_) = 0;  // records through a commit
  bool combining_ GUARDED_BY(mu_) = false;
  Status error_ GUARDED_BY(mu_);  // sticky first commit failure
};

}  // namespace fb

#endif  // FORKBASE_CHUNK_GROUP_COMMIT_H_
