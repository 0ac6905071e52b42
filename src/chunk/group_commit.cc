#include "chunk/group_commit.h"

namespace fb {

Status GroupCommitter::Commit(const Hash& cid, const Chunk& chunk) {
  const Record one{&cid, &chunk};
  return CommitRecords(&one, 1);
}

Status GroupCommitter::Commit(const ChunkBatch& batch) {
  Group records;
  records.reserve(batch.size());
  for (const auto& [cid, chunk] : batch) {
    records.push_back(Record{&cid, &chunk});
  }
  return CommitRecords(records.data(), records.size());
}

Status GroupCommitter::CommitRecords(const Record* records, size_t n) {
  if (n == 0) return Status::OK();
  MutexLock lock(mu_);
  if (!error_.ok()) return error_;
  queue_.insert(queue_.end(), records, records + n);
  enqueued_ += n;
  const uint64_t target = enqueued_;

  while (committed_ < target) {
    if (combining_) {
      // Another writer is combining; it will cover our records or hand
      // the role back before they are reached.
      cv_.Wait(mu_);
      continue;
    }
    combining_ = true;
    while (!queue_.empty()) {
      const Group group = std::move(queue_);
      queue_.clear();
      lock.Unlock();
      const Status s = commit_(group);
      lock.Lock();
      committed_ += group.size();
      if (!s.ok() && error_.ok()) error_ = s;
      cv_.SignalAll();
    }
    combining_ = false;
    cv_.SignalAll();
  }
  return error_;
}

}  // namespace fb
