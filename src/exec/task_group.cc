#include "exec/task_group.h"

namespace fastofd {

void TaskGroup::Submit(std::function<void(int)> fn) {
  if (pool_->num_threads() <= 1) {
    // Serial pool: run inline immediately (worker 0), preserving the pool's
    // inline-in-order contract. Nested submissions recurse, depth-bounded by
    // the nesting structure of the algorithm.
    fn(0);
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_->Enqueue(this, std::move(fn));
}

void TaskGroup::OnTaskDone() {
  // Read pool_ before the decrement: once pending_ can reach zero, Wait()
  // may return and the group (often a stack object) be destroyed.
  ThreadPool* pool = pool_;
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  // Every completion bumps the epoch and wakes sleepers, so a Wait() that
  // snapshotted the epoch before its last probe re-checks the count. Tasks
  // are coarse, so one notify per completion is cheap.
  pool->NotifyStateChange();
}

void TaskGroup::Wait() {
  if (pool_->num_threads() <= 1) return;  // Everything already ran inline.
  while (pending_.load(std::memory_order_acquire) > 0) {
    const uint64_t seen = pool_->StateEpoch();
    if (pool_->HelpExecuteOne(this)) continue;
    pool_->WaitEpochChangeOr(seen, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
}

}  // namespace fastofd
