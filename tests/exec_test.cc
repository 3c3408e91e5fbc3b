// Tests for the shared execution & instrumentation substrate: ThreadPool
// dispatch semantics, the MetricsRegistry, and end-to-end determinism of
// discovery and cleaning across thread counts.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "clean/repair.h"
#include "common/metrics.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"

namespace fastofd {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i, int) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsInRangeAndWorkConserved) {
  ThreadPool pool(3);
  std::vector<std::atomic<int64_t>> per_worker(3);
  std::atomic<bool> bad_worker{false};
  pool.ParallelFor(5000, [&](size_t, int worker) {
    if (worker < 0 || worker >= 3) {
      bad_worker.store(true);
      return;
    }
    per_worker[static_cast<size_t>(worker)].fetch_add(1);
  });
  EXPECT_FALSE(bad_worker.load());
  int64_t total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 5000);
}

TEST(ThreadPoolTest, ReusedAcrossManyJobs) {
  // The same pool serves many ParallelFor calls (this is the whole point:
  // one pool per run, not one thread-spawn per lattice level).
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  int64_t expected = 0;
  for (int job = 0; job < 200; ++job) {
    size_t n = static_cast<size_t>(job % 7);
    expected += static_cast<int64_t>(n * (n + 1) / 2);
    pool.ParallelFor(n, [&](size_t i, int) {
      sum.fetch_add(static_cast<int64_t>(i) + 1);
    });
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, SerialPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(64, [&](size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // Safe: inline serial execution.
  });
  ASSERT_EQ(order.size(), 64u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, EmptyJobAndClampedThreadCount) {
  ThreadPool clamped(0);  // Nonpositive counts clamp to 1.
  EXPECT_EQ(clamped.num_threads(), 1);
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t, int) { ++calls; });
  clamped.ParallelFor(0, [&](size_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, ParallelForGrainedEveryIndexOnceAtAnyGrain) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (size_t grain : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{1000}}) {
      const size_t n = 777;
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelForGrained(n, grain, [&](size_t i, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, threads);
        hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads " << threads << " grain " << grain << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersBothComplete) {
  // Two external threads drive the same pool at once. The old pool queued
  // whole jobs behind a job mutex; the scheduler interleaves their tasks.
  // Either way every index of both jobs must run exactly once.
  ThreadPool pool(4);
  const size_t n = 20000;
  std::vector<std::atomic<int>> hits_a(n), hits_b(n);
  std::thread other([&] {
    pool.ParallelFor(n, [&](size_t i, int) { hits_b[i].fetch_add(1); });
  });
  pool.ParallelFor(n, [&](size_t i, int) { hits_a[i].fetch_add(1); });
  other.join();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits_a[i].load(), 1) << i;
    ASSERT_EQ(hits_b[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, StatsCountExecutedTasksAndPublishGauges) {
  ThreadPool pool(3);
  pool.ParallelForGrained(96, /*grain=*/4, [](size_t, int) {});
  int64_t executed = 0;
  int64_t stolen = 0;
  for (const ThreadPool::WorkerStats& w : pool.Stats()) {
    executed += w.executed;
    stolen += w.stolen;
  }
  EXPECT_EQ(executed, 96 / 4);  // One task per grain block.
  EXPECT_GE(stolen, 0);
  EXPECT_LE(stolen, executed);
  MetricsRegistry reg;
  pool.PublishMetrics(&reg);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_DOUBLE_EQ(s.gauges.at("exec.workers"), 3.0);
  EXPECT_DOUBLE_EQ(s.gauges.at("exec.tasks_executed"),
                   static_cast<double>(executed));
  EXPECT_DOUBLE_EQ(s.gauges.at("exec.tasks_stolen"), static_cast<double>(stolen));
  EXPECT_EQ(s.gauges.count("exec.worker00.executed"), 1u);
  EXPECT_EQ(s.gauges.count("exec.worker02.stolen"), 1u);
  pool.PublishMetrics(nullptr);  // No-op, no crash.
}

TEST(ThreadPoolTest, PublishMetricsDuringExecution) {
  // PublishMetrics and Stats read the per-worker counters while workers are
  // actively bumping them. The counters are relaxed atomics (monotonic, no
  // cross-counter invariant), so concurrent snapshots must be race-free —
  // this is the TSan regression for that contract.
  ThreadPool pool(4);
  MetricsRegistry reg;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      pool.PublishMetrics(&reg);
      int64_t executed = 0;
      for (const ThreadPool::WorkerStats& w : pool.Stats()) {
        executed += w.executed;
        EXPECT_GE(w.executed, 0);
        EXPECT_GE(w.stolen, 0);
      }
      EXPECT_GE(executed, 0);
      std::this_thread::yield();
    }
  });
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelForGrained(256, /*grain=*/8,
                            [&](size_t i, int) { sum.fetch_add(i); });
  }
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_EQ(sum.load(), 50 * (256 * 255 / 2));
  // A final quiescent snapshot agrees with itself.
  pool.PublishMetrics(&reg);
  MetricsSnapshot s = reg.Snapshot();
  int64_t executed = 0;
  for (const ThreadPool::WorkerStats& w : pool.Stats()) executed += w.executed;
  EXPECT_DOUBLE_EQ(s.gauges.at("exec.tasks_executed"),
                   static_cast<double>(executed));
}

TEST(TaskGroupTest, WaitWithZeroPendingTasks) {
  // Wait on a group that never received a task must return immediately (no
  // lost-wakeup hang) at every pool width, and stay idempotent.
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    group.Wait();
    group.Wait();  // Double Wait on an empty group.
    // The group is still usable after the empty Waits.
    std::atomic<int> ran{0};
    group.Submit([&ran](int) { ran.fetch_add(1); });
    group.Wait();
    EXPECT_EQ(ran.load(), 1) << "threads " << threads;
    group.Wait();  // And idempotent again once drained.
    EXPECT_EQ(ran.load(), 1);
  }
}

TEST(TaskGroupTest, SubmitFromExternalThreadRunsEverything) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    std::atomic<int64_t> sum{0};
    for (int t = 0; t < 64; ++t) {
      group.Submit([&sum, t](int worker) {
        EXPECT_GE(worker, 0);
        sum.fetch_add(t);
      });
    }
    group.Wait();
    EXPECT_EQ(sum.load(), 64 * 63 / 2) << "threads " << threads;
    group.Wait();  // Idempotent after completion.
  }
}

TEST(TaskGroupTest, NestedSubmissionFromInsideTasks) {
  // Each outer task forks its own child group — the shape a large partition
  // product takes when it splits itself mid-level. The outer Wait must see
  // all 8 * 16 leaf increments, at any thread count including serial.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::atomic<int64_t> leaves{0};
    TaskGroup outer(&pool);
    for (int t = 0; t < 8; ++t) {
      outer.Submit([&pool, &leaves](int) {
        TaskGroup inner(&pool);
        for (int u = 0; u < 16; ++u) {
          inner.Submit([&leaves](int) { leaves.fetch_add(1); });
        }
        inner.Wait();
        // The child work is visibly complete before the parent task ends.
        EXPECT_GE(leaves.load(), 16);
      });
    }
    outer.Wait();
    EXPECT_EQ(leaves.load(), 8 * 16) << "threads " << threads;
  }
}

TEST(TaskGroupTest, NestedParallelForInsideTasksCoversAllIndices) {
  // ParallelFor from inside a task parallelizes (the old pool degraded it to
  // an inline serial loop); either way indices run exactly once.
  ThreadPool pool(4);
  const size_t inner_n = 500;
  std::vector<std::atomic<int>> hits(4 * inner_n);
  TaskGroup group(&pool);
  for (size_t t = 0; t < 4; ++t) {
    group.Submit([&pool, &hits, t, inner_n](int) {
      pool.ParallelForGrained(inner_n, /*grain=*/16, [&hits, t, inner_n](size_t i, int) {
        hits[t * inner_n + i].fetch_add(1);
      });
    });
  }
  group.Wait();
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(MetricsTest, CountersGaugesTimers) {
  MetricsRegistry reg;
  reg.Add("a.count", 0);  // Registers the counter at zero.
  reg.Add("a.count", 5);
  reg.Add("a.count", 2);
  reg.Set("g.val", 3.5);
  reg.Set("g.val", 4.5);  // Gauges overwrite.
  reg.AddTime("t.seconds", 0.25);
  reg.AddTime("t.seconds", 0.75);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Counter("a.count"), 7);
  EXPECT_EQ(s.Counter("absent"), 0);
  EXPECT_DOUBLE_EQ(s.gauges.at("g.val"), 4.5);
  EXPECT_DOUBLE_EQ(s.TimerSeconds("t.seconds"), 1.0);
  EXPECT_EQ(s.timers.at("t.seconds").count, 2);
  reg.Clear();
  EXPECT_TRUE(reg.Snapshot().counters.empty());
}

TEST(MetricsTest, SnapshotDiffBracketsOnePhase) {
  MetricsRegistry reg;
  reg.Add("c", 3);
  reg.AddTime("t", 1.0);
  reg.Set("g", 1.0);
  MetricsSnapshot before = reg.Snapshot();
  reg.Add("c", 4);
  reg.Add("fresh", 2);  // Appears only after `before`.
  reg.AddTime("t", 0.5);
  reg.Set("g", 9.0);
  MetricsSnapshot delta = reg.Snapshot().Diff(before);
  EXPECT_EQ(delta.Counter("c"), 4);
  EXPECT_EQ(delta.Counter("fresh"), 2);
  EXPECT_DOUBLE_EQ(delta.TimerSeconds("t"), 0.5);
  EXPECT_EQ(delta.timers.at("t").count, 1);
  EXPECT_DOUBLE_EQ(delta.gauges.at("g"), 9.0);  // Gauges keep latest value.
}

TEST(MetricsTest, TextAndJsonDumps) {
  MetricsRegistry reg;
  reg.Add("x.count", 2);
  reg.Set("x.gauge", 1.5);
  reg.AddTime("x.seconds", 0.5);
  std::string text = reg.ToText();
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("gauge"), std::string::npos);
  EXPECT_NE(text.find("timer"), std::string::npos);
  EXPECT_NE(text.find("x.count"), std::string::npos);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, HistogramQuantilesTrackObservations) {
  MetricsRegistry reg;
  // 1..1000 ms uniformly: quantiles must land near the true values, within
  // one log bucket (×1.35 relative error).
  for (int i = 1; i <= 1000; ++i) reg.Observe("h.lat", i * 1e-3);
  MetricsSnapshot s = reg.Snapshot();
  const HistogramStat& h = s.histograms.at("h.lat");
  EXPECT_EQ(h.count, 1000);
  EXPECT_DOUBLE_EQ(h.min, 1e-3);
  EXPECT_DOUBLE_EQ(h.max, 1.0);
  EXPECT_NEAR(h.Quantile(0.50), 0.5, 0.5 * 0.35);
  EXPECT_NEAR(h.Quantile(0.95), 0.95, 0.95 * 0.35);
  EXPECT_GE(h.Quantile(0.99), h.Quantile(0.50));
  EXPECT_LE(h.Quantile(1.0), h.max);
  EXPECT_GE(h.Quantile(0.0), h.min);

  // Diff isolates one phase's observations.
  MetricsSnapshot before = reg.Snapshot();
  for (int i = 0; i < 10; ++i) reg.Observe("h.lat", 2.0);
  HistogramStat delta = reg.Snapshot().histograms.at("h.lat").Diff(
      before.histograms.at("h.lat"));
  EXPECT_EQ(delta.count, 10);
  EXPECT_NEAR(delta.Quantile(0.5), 2.0, 2.0 * 0.35);

  // Out-of-range values clamp into the edge buckets instead of dropping.
  reg.Observe("h.edge", 0.0);
  reg.Observe("h.edge", 1e12);
  EXPECT_EQ(reg.Snapshot().histograms.at("h.edge").count, 2);

  // Histograms appear in both dump formats.
  EXPECT_NE(reg.ToText().find("hist"), std::string::npos);
  EXPECT_NE(reg.ToJson().find("\"histograms\""), std::string::npos);
}

TEST(MetricsTest, ScopedTimerRecordsOnceAndTakesNull) {
  MetricsRegistry reg;
  { ScopedTimer t(&reg, "s.seconds"); }
  EXPECT_EQ(reg.Snapshot().timers.at("s.seconds").count, 1);
  {
    ScopedTimer t(&reg, "s.seconds");
    t.Stop();  // Explicit stop; the destructor must not record again.
  }
  EXPECT_EQ(reg.Snapshot().timers.at("s.seconds").count, 2);
  ScopedTimer null_timer(nullptr, "ignored");  // No-op, no crash.
  null_timer.Stop();
}

GeneratedData MakeInstance(uint64_t seed, double error_rate,
                           double incompleteness_rate) {
  DataGenConfig cfg;
  cfg.num_rows = 400;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 3;
  cfg.num_noise_attrs = 2;
  cfg.num_senses = 4;
  cfg.error_rate = error_rate;
  cfg.incompleteness_rate = incompleteness_rate;
  cfg.seed = seed;
  return GenerateData(cfg);
}

TEST(ExecDeterminismTest, DiscoverIdenticalAcrossThreadCounts) {
  GeneratedData data = MakeInstance(/*seed=*/99, /*error_rate=*/0.02,
                                    /*incompleteness_rate=*/0.0);
  SynonymIndex index(data.ontology, data.rel.dict());
  // Exact discovery, and approximate discovery's early-exit support check.
  for (double kappa : {1.0, 0.9}) {
    FastOfdConfig serial;
    serial.num_threads = 1;
    serial.min_support = kappa;
    FastOfdResult a = FastOfd(data.rel, index, serial).Discover();
    // Both paths count the rows they tally.
    EXPECT_GT(a.values_scanned, 0) << "kappa " << kappa;
    for (int threads : {2, 8}) {
      FastOfdConfig pcfg;
      pcfg.num_threads = threads;
      pcfg.min_support = kappa;
      MetricsRegistry metrics;
      pcfg.metrics = &metrics;
      FastOfdResult b = FastOfd(data.rel, index, pcfg).Discover();
      EXPECT_EQ(a.ofds, b.ofds) << "threads " << threads << " kappa " << kappa;
      EXPECT_EQ(a.candidates_checked, b.candidates_checked);
      EXPECT_EQ(a.values_scanned, b.values_scanned);
      // The registry agrees with the result-struct convenience copies.
      MetricsSnapshot s = metrics.Snapshot();
      EXPECT_EQ(s.Counter("discover.candidates_checked"), a.candidates_checked);
      EXPECT_EQ(s.Counter("discover.values_scanned"), a.values_scanned);
      EXPECT_GT(s.TimerSeconds("discover.seconds"), 0.0);
    }
  }
}

TEST(ExecDeterminismTest, OfdCleanIdenticalAcrossThreadCounts) {
  GeneratedData data = MakeInstance(/*seed=*/21, /*error_rate=*/0.05,
                                    /*incompleteness_rate=*/0.1);
  OfdCleanConfig serial;
  serial.num_threads = 1;
  OfdCleanResult a =
      OfdClean(data.rel, data.ontology, data.sigma, serial).Run();
  for (int threads : {2, 8}) {
    OfdCleanConfig pcfg;
    pcfg.num_threads = threads;
    OfdCleanResult b =
        OfdClean(data.rel, data.ontology, data.sigma, pcfg).Run();
    EXPECT_EQ(b.best.repaired.CellDistance(a.best.repaired), 0)
        << "threads " << threads;
    EXPECT_EQ(a.best.ontology_additions, b.best.ontology_additions);
    EXPECT_EQ(a.best.data_changes, b.best.data_changes);
    EXPECT_EQ(a.best.consistent, b.best.consistent);
    EXPECT_EQ(a.num_candidates, b.num_candidates);
    EXPECT_EQ(a.nodes_evaluated, b.nodes_evaluated);
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (size_t i = 0; i < a.pareto.size(); ++i) {
      EXPECT_EQ(a.pareto[i].ontology_changes, b.pareto[i].ontology_changes);
      EXPECT_EQ(a.pareto[i].data_changes, b.pareto[i].data_changes);
    }
  }
}

TEST(ExecDeterminismTest, SharedSubstrateAcrossPhases) {
  // One pool + one cache + one registry wired through discovery, the way the
  // CLI shares them across subphases of a command.
  GeneratedData data = MakeInstance(/*seed=*/5, /*error_rate=*/0.01,
                                    /*incompleteness_rate=*/0.0);
  SynonymIndex index(data.ontology, data.rel.dict());
  ThreadPool pool(2);
  MetricsRegistry metrics;
  PartitionCache cache(data.rel, PartitionCache::kUnbounded, &metrics);
  FastOfdConfig cfg;
  cfg.pool = &pool;
  cfg.metrics = &metrics;
  cfg.partitions = &cache;
  FastOfdResult r = FastOfd(data.rel, index, cfg).Discover();
  EXPECT_FALSE(r.ofds.empty());
  MetricsSnapshot s = metrics.Snapshot();
  EXPECT_GT(s.Counter("discover.candidates_checked"), 0);
  EXPECT_GT(s.TimerSeconds("discover.seconds"), 0.0);
  // The cache counters are registered even before traffic, and discovery's
  // base partitions route through the shared cache.
  EXPECT_EQ(s.counters.count("partition_cache.hits"), 1u);
  EXPECT_EQ(s.counters.count("partition_cache.evictions"), 1u);
  EXPECT_GT(s.Counter("partition_cache.misses"), 0);
  EXPECT_GT(cache.size(), 0u);

  // The clean phase reuses the same substrate without interference.
  OfdCleanConfig ccfg;
  ccfg.pool = &pool;
  ccfg.metrics = &metrics;
  ccfg.partitions = &cache;
  OfdCleanResult cr = OfdClean(data.rel, data.ontology, data.sigma, ccfg).Run();
  EXPECT_TRUE(cr.best.consistent);
  s = metrics.Snapshot();
  EXPECT_GT(s.TimerSeconds("clean.seconds"), 0.0);
  EXPECT_GT(s.Counter("partition_cache.hits") + s.Counter("partition_cache.misses"),
            0);
}

}  // namespace
}  // namespace fastofd
