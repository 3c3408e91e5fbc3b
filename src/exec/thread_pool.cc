#include "exec/thread_pool.h"

#include <algorithm>
#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/check.h"
#include "common/metrics.h"
#include "exec/task_group.h"

namespace fastofd {

namespace {
// Identity of the worker thread: which pool owns it and its id there. Set
// once at WorkerLoop entry; threads the pool does not own keep the default.
thread_local const ThreadPool* tls_worker_pool = nullptr;
thread_local int tls_worker_id = -1;
}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  deques_ = std::make_unique<Shard[]>(static_cast<size_t>(num_threads_));
  executed_ = std::make_unique<std::atomic<int64_t>[]>(static_cast<size_t>(num_threads_));
  stolen_ = std::make_unique<std::atomic<int64_t>[]>(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    executed_[static_cast<size_t>(w)].store(0, std::memory_order_relaxed);
    stolen_[static_cast<size_t>(w)].store(0, std::memory_order_relaxed);
  }
  if (num_threads_ >= 2) {
    workers_.reserve(static_cast<size_t>(num_threads_));
    for (int w = 0; w < num_threads_; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  wake_cv_.NotifyAll();
  for (auto& t : workers_) t.join();
}

int ThreadPool::current_worker() const {
  return tls_worker_pool == this ? tls_worker_id : -1;
}

void ThreadPool::NotifyStateChange() {
  {
    MutexLock lock(wake_mu_);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  wake_cv_.NotifyAll();
}

void ThreadPool::WaitEpochChangeOr(uint64_t seen, const std::function<bool()>& ready) {
  MutexLock lock(wake_mu_);
  // Explicit loop (not a predicate lambda) so the guarded read of stop_ is
  // in analysis-checked scope; ready() reads atomics only, per the header.
  while (!stop_ && epoch_.load(std::memory_order_acquire) == seen && !ready()) {
    wake_cv_.Wait(wake_mu_);
  }
}

void ThreadPool::Enqueue(TaskGroup* group, std::function<void(int)> fn) {
  {
    Shard& home = HomeShard(current_worker());
    MutexLock lock(home.mu);
    home.tasks.push_back(Task{group, std::move(fn)});
  }
  NotifyStateChange();
}

bool ThreadPool::TryGetTask(int self, const TaskGroup* only_group, Task* out) {
  FASTOFD_CHECK(self >= 0 && self < num_threads_);
  const size_t num_shards = static_cast<size_t>(num_threads_) + 1;
  // Own deque first, newest task first (LIFO): a nested wait finds the
  // subtasks it just pushed while they are still hot in cache.
  {
    Shard& own = deques_[static_cast<size_t>(self)];
    MutexLock lock(own.mu);
    for (auto it = own.tasks.rbegin(); it != own.tasks.rend(); ++it) {
      if (only_group == nullptr || it->group == only_group) {
        *out = std::move(*it);
        own.tasks.erase(std::next(it).base());
        return true;
      }
    }
  }
  // Then steal round-robin starting past self, oldest task first (FIFO): the
  // front of a victim's deque is the task it queued earliest, typically the
  // coarsest remaining work. Taking from the inject shard is normal dispatch
  // of externally submitted work, not a steal — only tasks lifted from
  // another worker's deque count, so the stolen/executed ratio measures how
  // much the scheduler actually rebalanced.
  for (size_t off = 1; off < num_shards; ++off) {
    const size_t victim_index = (static_cast<size_t>(self) + off) % num_shards;
    Shard& victim = ShardAt(victim_index);
    MutexLock lock(victim.mu);
    for (auto it = victim.tasks.begin(); it != victim.tasks.end(); ++it) {
      if (only_group == nullptr || it->group == only_group) {
        *out = std::move(*it);
        victim.tasks.erase(it);
        if (victim_index != static_cast<size_t>(num_threads_)) {
          stolen_[static_cast<size_t>(self)].fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::ExecuteTask(Task& task, int worker) {
  task.fn(worker);
  executed_[static_cast<size_t>(worker)].fetch_add(1, std::memory_order_relaxed);
  TaskGroup* group = task.group;
  // Destroy the closure (and anything it captured by value) *before*
  // crediting the group: once Wait() returns, the caller may free state the
  // closure referenced.
  task.fn = nullptr;
  group->OnTaskDone();
}

bool ThreadPool::HelpExecuteOne(TaskGroup* group) {
  const int self = current_worker();
  if (self < 0) return false;
  Task task;
  if (!TryGetTask(self, group, &task)) return false;
  ExecuteTask(task, self);
  return true;
}

void ThreadPool::WorkerLoop(int worker) {
  tls_worker_pool = this;
  tls_worker_id = worker;
#if defined(__linux__)
  char name[16];
  std::snprintf(name, sizeof(name), "fastofd-w%d", worker);
  pthread_setname_np(pthread_self(), name);
#endif
  for (;;) {
    // Epoch snapshot precedes the probe: a submission landing after a failed
    // probe bumps the epoch, so the wait below returns immediately.
    const uint64_t seen = epoch_.load(std::memory_order_acquire);
    Task task;
    if (TryGetTask(worker, /*only_group=*/nullptr, &task)) {
      ExecuteTask(task, worker);
      continue;
    }
    MutexLock lock(wake_mu_);
    while (!stop_ && epoch_.load(std::memory_order_acquire) == seen) {
      wake_cv_.Wait(wake_mu_);
    }
    if (stop_) return;
  }
}

void ThreadPool::ParallelForGrained(size_t n, size_t grain,
                                    const std::function<void(size_t, int)>& body) {
  if (n == 0) return;
  if (grain == 0) {
    // ~8 blocks per worker: enough slack for stealing to balance uneven
    // bodies without swamping the deques.
    grain = std::max<size_t>(1, n / (static_cast<size_t>(num_threads_) * 8));
  }
  const int self = current_worker();
  if (num_threads_ <= 1 || (self >= 0 && n <= grain)) {
    // Serial pools run inline on the caller (in order, as worker 0); a
    // nested single-block call runs inline under the worker's own id. An
    // *external* caller never runs bodies inline — its thread has no
    // reserved worker id, and borrowing one could collide with that
    // worker's scratch while other jobs are in flight.
    const int w = self >= 0 ? self : 0;
    for (size_t i = 0; i < n; ++i) body(i, w);
    return;
  }
  TaskGroup group(this);
  for (size_t begin = 0; begin < n; begin += grain) {
    const size_t end = std::min(n, begin + grain);
    group.Submit([&body, begin, end](int worker) {
      for (size_t i = begin; i < end; ++i) body(i, worker);
    });
  }
  group.Wait();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t, int)>& body) {
  ParallelForGrained(n, /*grain=*/0, body);
}

std::vector<ThreadPool::WorkerStats> ThreadPool::Stats() const {
  std::vector<WorkerStats> stats(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    stats[static_cast<size_t>(w)].executed =
        executed_[static_cast<size_t>(w)].load(std::memory_order_relaxed);
    stats[static_cast<size_t>(w)].stolen =
        stolen_[static_cast<size_t>(w)].load(std::memory_order_relaxed);
  }
  return stats;
}

void ThreadPool::PublishMetrics(MetricsRegistry* metrics) const {
  // Safe to call while workers are executing: the per-worker counters are
  // atomics (each worker is the sole writer of its slot), so the relaxed
  // loads here are race-free snapshots — tested under TSan by
  // PublishMetricsDuringExecution in tests/exec_test.cc.
  if (metrics == nullptr) return;
  metrics->Set("exec.workers", static_cast<double>(num_threads_));
  int64_t total_executed = 0;
  int64_t total_stolen = 0;
  char name[64];
  for (int w = 0; w < num_threads_; ++w) {
    const int64_t ex = executed_[static_cast<size_t>(w)].load(std::memory_order_relaxed);
    const int64_t st = stolen_[static_cast<size_t>(w)].load(std::memory_order_relaxed);
    total_executed += ex;
    total_stolen += st;
    std::snprintf(name, sizeof(name), "exec.worker%02d.executed", w);
    metrics->Set(name, static_cast<double>(ex));
    std::snprintf(name, sizeof(name), "exec.worker%02d.stolen", w);
    metrics->Set(name, static_cast<double>(st));
  }
  metrics->Set("exec.tasks_executed", static_cast<double>(total_executed));
  metrics->Set("exec.tasks_stolen", static_cast<double>(total_stolen));
}

}  // namespace fastofd
