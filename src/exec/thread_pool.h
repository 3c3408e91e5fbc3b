// Shared execution substrate: a persistent work-stealing task scheduler.
//
// Every compute-heavy phase (candidate validation, lattice children, beam
// expansion, sense assignment, EMD edge weights, conflict-graph
// construction) runs on one ThreadPool created once per Discover()/Clean()
// invocation — or shared across invocations by the caller — instead of
// spawning and joining fresh std::threads per lattice level.
//
// The pool is a task scheduler, so concurrent callers (the cleaning
// service's requests) share it and a parallel stage may run from inside a
// task:
//
//   * every worker owns a deque of tasks: newly submitted work is pushed to
//     the back and popped from the back by the owner (LIFO, for cache
//     locality), while idle workers steal from the *front* of a victim's
//     deque (FIFO, so the oldest — typically largest — task migrates);
//   * tasks belong to TaskGroups (exec/task_group.h) which support nested
//     submission: a task may open its own group, submit subtasks, and
//     help-execute them while waiting, which is how a Discover() or Clean()
//     running as one service task still fans its stages out over the pool;
//   * there is no per-job mutex: tasks from concurrent callers interleave
//     at task granularity instead of whole jobs queueing behind each other.
//
// Worker identity: construction spawns exactly `num_threads` OS threads
// (named fastofd-w<N>) when num_threads >= 2; external caller threads
// submit and wait but never execute task bodies, so a worker id uniquely
// identifies an OS thread and per-worker scratch is collision-free even
// with concurrent callers. With num_threads <= 1 no threads are spawned
// and everything runs inline and serially on the caller (worker 0).
//
// The house determinism contract: parallel stages *compute* into pre-sized
// slots, one per index, and results are *applied* sequentially in index
// order, so output is byte-identical for any thread count or steal
// schedule.

#ifndef FASTOFD_EXEC_THREAD_POOL_H_
#define FASTOFD_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace fastofd {

class MetricsRegistry;
class TaskGroup;

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Concurrency level of the pool, always >= 1. For num_threads() >= 2 this
  /// is the number of spawned worker threads; 1 means inline serial.
  int num_threads() const { return num_threads_; }

  /// Worker index of the calling thread on *this* pool, in
  /// [0, num_threads()), or -1 when the caller is not one of its workers.
  int current_worker() const;

  /// Runs body(index, worker) for every index in [0, n); blocks until all
  /// indices complete. Indices are dispatched in contiguous blocks of
  /// `grain` (grain == 0 picks an automatic size of ~8 blocks per worker).
  /// `worker` is in [0, num_threads()) and is unique per OS thread — use it
  /// to index per-thread scratch. The body must not touch shared mutable
  /// state without synchronization; writing to a distinct slot per index is
  /// the intended pattern. Nested calls (from inside a task body on this
  /// pool) parallelize too: the inner blocks become stealable subtasks.
  void ParallelForGrained(size_t n, size_t grain,
                          const std::function<void(size_t index, int worker)>& body);

  /// ParallelForGrained with the automatic grain.
  void ParallelFor(size_t n, const std::function<void(size_t index, int worker)>& body);

  /// Per-worker scheduler counters: tasks executed, and the subset that was
  /// taken from somewhere other than the worker's own deque (a steal from a
  /// victim's deque or a grab from the external-submission queue).
  struct WorkerStats {
    int64_t executed = 0;
    int64_t stolen = 0;
  };
  std::vector<WorkerStats> Stats() const;

  /// Publishes scheduler gauges (exec.workers, exec.tasks_executed,
  /// exec.tasks_stolen, exec.worker<NN>.executed/.stolen) into `metrics`.
  /// Gauges overwrite, so republishing after each phase is safe. No-op when
  /// metrics is null.
  void PublishMetrics(MetricsRegistry* metrics) const;

  /// A reasonable default worker count for this machine.
  static int DefaultThreads() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

 private:
  // TaskGroup is the only caller of the submit and wait protocol below.
  friend class TaskGroup;

  // Monotonic counter bumped on every submission and task completion.
  // Snapshot it *before* probing queue state, then sleep on the snapshot:
  // any concurrent state change invalidates it, so no wakeup is missed.
  uint64_t StateEpoch() const { return epoch_.load(std::memory_order_acquire); }

  // Blocks until the epoch differs from `seen` or `ready()` holds (ready
  // is re-evaluated under the scheduler's wake lock, so it must only read
  // atomics — it must not take locks or touch guarded state).
  void WaitEpochChangeOr(uint64_t seen, const std::function<bool()>& ready)
      EXCLUDES(wake_mu_);

  // If the calling thread is a worker of this pool and a task belonging to
  // `group` is available (own deque first, then steal), executes it and
  // returns true. Returns false otherwise. The group filter keeps nested
  // waits from recursing into unrelated coarse tasks.
  bool HelpExecuteOne(TaskGroup* group);

  struct Task {
    TaskGroup* group = nullptr;
    std::function<void(int worker)> fn;
  };
  // One deque per worker plus the inject queue for submissions from threads
  // the pool does not own. Each shard has its own mutex: the striping keeps
  // submission and stealing lock-cheap. Lock-order contract: a thread holds
  // at most ONE shard mutex at a time (TSA cannot order the elements of a
  // mutex array, so TryGetTask/Enqueue enforce this structurally — every
  // shard lock is a self-contained scope), and never a shard mutex under
  // wake_mu_ (see wake_mu_'s ACQUIRED_AFTER below).
  struct Shard {
    Mutex mu;
    std::deque<Task> tasks GUARDED_BY(mu);
  };

  // Enqueues a task (own deque for workers, inject queue otherwise) and
  // wakes sleepers. Called by TaskGroup::Submit after bumping its pending
  // count.
  void Enqueue(TaskGroup* group, std::function<void(int)> fn)
      EXCLUDES(wake_mu_);
  // Pops a task: `self`'s own deque back first, then round-robin steals from
  // other shards' fronts (the inject queue last-but-one in rotation). With
  // `only_group` set, skips tasks from other groups. Returns false when
  // nothing eligible is queued.
  bool TryGetTask(int self, const TaskGroup* only_group, Task* out);
  // Runs the task, destroys its closure, then credits the owning group.
  // The body may submit more work, so the wake lock must not be held.
  void ExecuteTask(Task& task, int worker) EXCLUDES(wake_mu_);
  void NotifyStateChange() EXCLUDES(wake_mu_);
  void WorkerLoop(int worker) EXCLUDES(wake_mu_);
  // The shard `self` submits to and pops from: its own deque for workers,
  // the inject queue for external threads.
  Shard& HomeShard(int self) {
    return self >= 0 ? deques_[static_cast<size_t>(self)] : inject_;
  }
  // Victim rotation for stealing: indexes [0, num_threads_) are worker
  // deques, index num_threads_ is the inject queue.
  Shard& ShardAt(size_t index) {
    return index == static_cast<size_t>(num_threads_)
               ? inject_
               : deques_[index];
  }

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::unique_ptr<Shard[]> deques_;  // num_threads_ worker deques.
  Shard inject_;                     // Submissions from external threads.
  std::unique_ptr<std::atomic<int64_t>[]> executed_;
  std::unique_ptr<std::atomic<int64_t>[]> stolen_;

  // The sleep/wake protocol's lock. Innermost: taken only after every shard
  // lock has been released (declared for the named inject_ shard; the array
  // shards follow the same order by the structural rule above), and nothing
  // blocks under it — WaitEpochChangeOr predicates read atomics only.
  Mutex wake_mu_ ACQUIRED_AFTER(inject_.mu);
  CondVar wake_cv_;
  std::atomic<uint64_t> epoch_{0};  // Written under wake_mu_; read lock-free.
  bool stop_ GUARDED_BY(wake_mu_) = false;
};

}  // namespace fastofd

#endif  // FASTOFD_EXEC_THREAD_POOL_H_
