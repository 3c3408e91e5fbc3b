// Structured task submission on top of the work-stealing ThreadPool
// (exec/thread_pool.h).
//
// TaskGroup is a fork/join scope: submit any number of tasks (from any
// thread, including from inside a running task) and Wait() for all of them.
// A worker that waits help-executes tasks *of the same group* while
// blocked, so nested submission composes without deadlock and without
// unbounded recursion into unrelated work.

#ifndef FASTOFD_EXEC_TASK_GROUP_H_
#define FASTOFD_EXEC_TASK_GROUP_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/check.h"
#include "exec/thread_pool.h"

namespace fastofd {

/// A set of tasks with a shared completion count. Submission is allowed
/// from any thread at any time before Wait() returns, including from inside
/// one of the group's own tasks (nested submission). On a serial pool
/// (num_threads() == 1) Submit runs the task inline immediately, preserving
/// the pool's inline-in-order contract.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) { FASTOFD_CHECK(pool != nullptr); }
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules fn(worker) to run on the pool. `worker` is the executing
  /// worker's id in [0, pool->num_threads()), unique per OS thread.
  void Submit(std::function<void(int worker)> fn);

  /// Blocks until every submitted task has finished. On a worker thread of
  /// the pool this help-executes queued tasks of this group (so a task
  /// waiting on its own subtasks makes progress instead of deadlocking);
  /// external threads sleep until the count drains.
  void Wait();

 private:
  friend class ThreadPool;
  void OnTaskDone();

  ThreadPool* pool_;
  std::atomic<int64_t> pending_{0};
};

}  // namespace fastofd

#endif  // FASTOFD_EXEC_TASK_GROUP_H_
