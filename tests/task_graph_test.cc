#include "mr/task_graph.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

namespace antimr {
namespace {

TEST(TaskPool, RunsEveryTaskExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> ran(100);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&ran, i]() {
      ran[i].fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(pool.RunWave(tasks).ok());
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(TaskPool, EmptyWave) {
  TaskPool pool(4);
  EXPECT_TRUE(pool.RunWave({}).ok());
}

TEST(TaskPool, SingleWorker) {
  TaskPool pool(1);
  int counter = 0;
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&counter]() {
      ++counter;  // single worker: no synchronization needed
      return Status::OK();
    });
  }
  ASSERT_TRUE(pool.RunWave(tasks).ok());
  EXPECT_EQ(counter, 10);
}

TEST(TaskPool, ReportsFirstFailureByIndex) {
  TaskPool pool(8);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back([i]() {
      if (i == 7) return Status::IOError("failure-7");
      if (i == 30) return Status::Internal("failure-30");
      return Status::OK();
    });
  }
  Status st = pool.RunWave(tasks);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.message(), "failure-7");
}

TEST(TaskPool, FailureDoesNotPreventOtherTasks) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([&ran, i]() {
      ran.fetch_add(1);
      return i == 0 ? Status::Internal("boom") : Status::OK();
    });
  }
  EXPECT_FALSE(pool.RunWave(tasks).ok());
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskPool, ParallelismActuallyHappens) {
  TaskPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected &&
             !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      concurrent.fetch_sub(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(pool.RunWave(tasks).ok());
  EXPECT_GT(peak.load(), 1);
  EXPECT_LE(peak.load(), 4);
}

TEST(TaskPool, DefaultsToHardwareConcurrency) {
  TaskPool pool(0);
  EXPECT_GT(pool.num_workers(), 0);
}

TEST(TaskPool, ReusesWorkerThreadsAcrossWaves) {
  TaskPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  auto record = [&]() {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
    return Status::OK();
  };
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<std::function<Status()>> tasks(16, record);
    ASSERT_TRUE(pool.RunWave(tasks).ok());
  }
  // A persistent pool never runs work on more threads than it owns, no
  // matter how many waves pass through it.
  EXPECT_LE(seen.size(), 4u);
  EXPECT_GE(seen.size(), 1u);
}

TEST(TaskPool, SubmitRunsDetachedWork) {
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  {
    TaskPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&]() {
        std::lock_guard<std::mutex> lock(mu);
        if (++done == 10) cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done == 10; });
  }
  EXPECT_EQ(done, 10);
}

TEST(TaskPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&ran]() { ran.fetch_add(1); });
    }
  }  // destructor must run everything already submitted
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskGraph, RunsDependenciesBeforeDependents) {
  TaskPool pool(4);
  TaskGraph graph(&pool);
  std::atomic<bool> a_done{false};
  std::atomic<bool> b_saw_a{false};
  const int a = graph.AddTask([&]() {
    a_done.store(true);
    return Status::OK();
  });
  graph.AddTask([&]() {
    b_saw_a.store(a_done.load());
    return Status::OK();
  },
                {a});
  ASSERT_TRUE(graph.Wait().ok());
  EXPECT_TRUE(b_saw_a.load());
}

TEST(TaskGraph, DependentsRunWithoutAWaveBarrier) {
  // `slow` (no deps) blocks until `fetch` — which depends on `map` — has
  // run. A barrier scheduler would deadlock here: fetch would wait for the
  // whole first wave (including slow) to finish.
  TaskPool pool(4);
  TaskGraph graph(&pool);
  std::atomic<bool> fetch_ran{false};
  graph.AddTask([&]() {
    while (!fetch_ran.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });
  const int map_task = graph.AddTask([]() { return Status::OK(); });
  graph.AddTask([&]() {
    fetch_ran.store(true);
    return Status::OK();
  },
                {map_task});
  ASSERT_TRUE(graph.Wait().ok());
  EXPECT_TRUE(fetch_ran.load());
}

TEST(TaskGraph, SkipsTransitiveDependentsOfFailure) {
  TaskPool pool(4);
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  const int bad = graph.AddTask([]() { return Status::IOError("map died"); });
  const int skipped = graph.AddTask([&]() {
    ran.fetch_add(1);
    return Status::OK();
  },
                                    {bad});
  graph.AddTask([&]() {
    ran.fetch_add(1);
    return Status::OK();
  },
                {skipped});
  std::atomic<bool> independent{false};
  graph.AddTask([&]() {
    independent.store(true);
    return Status::OK();
  });
  Status st = graph.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.message(), "map died");
  EXPECT_EQ(ran.load(), 0) << "dependents of a failed task must not run";
  EXPECT_TRUE(independent.load()) << "unrelated tasks still run";
}

TEST(TaskGraph, ReportsFirstFailureById) {
  TaskPool pool(4);
  TaskGraph graph(&pool);
  graph.AddTask([]() { return Status::IOError("first"); });
  for (int i = 0; i < 10; ++i) {
    graph.AddTask([]() { return Status::OK(); });
  }
  graph.AddTask([]() { return Status::Internal("later"); });
  Status st = graph.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "first");
}

TEST(TaskGraph, RoutesTasksToOverridePool) {
  TaskPool pool(1);
  TaskPool fetch_pool(2);
  TaskGraph graph(&pool);
  std::mutex mu;
  std::set<std::thread::id> default_threads;
  std::set<std::thread::id> fetch_threads;
  for (int i = 0; i < 4; ++i) {
    graph.AddTask([&]() {
      std::lock_guard<std::mutex> lock(mu);
      default_threads.insert(std::this_thread::get_id());
      return Status::OK();
    });
    graph.AddTask(
        [&]() {
          std::lock_guard<std::mutex> lock(mu);
          fetch_threads.insert(std::this_thread::get_id());
          return Status::OK();
        },
        {}, &fetch_pool);
  }
  ASSERT_TRUE(graph.Wait().ok());
  EXPECT_EQ(default_threads.size(), 1u);
  EXPECT_LE(fetch_threads.size(), 2u);
  for (const auto& id : fetch_threads) {
    EXPECT_EQ(default_threads.count(id), 0u)
        << "override-pool tasks must not run on the default pool";
  }
}

TEST(TaskGraph, DependencyOnAlreadyFinishedTask) {
  TaskPool pool(2);
  TaskGraph graph(&pool);
  const int a = graph.AddTask([]() { return Status::OK(); });
  ASSERT_TRUE(graph.Wait().ok());
  // Growing the graph after Wait: the dependency is already satisfied.
  std::atomic<bool> ran{false};
  graph.AddTask([&]() {
    ran.store(true);
    return Status::OK();
  },
                {a});
  ASSERT_TRUE(graph.Wait().ok());
  EXPECT_TRUE(ran.load());
}

// ---- Retry policy ----------------------------------------------------------

TEST(TaskGraph, RetriesTransientFailureUntilSuccess) {
  TaskPool pool(2);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_nanos = 1000;  // keep the test fast
  TaskGraph graph(&pool, retry);
  std::atomic<int> calls{0};
  std::atomic<int> dependent_ran{0};
  const int flaky = graph.AddTask(
      [&](int attempt) {
        EXPECT_EQ(attempt, calls.load()) << "attempt number out of step";
        if (calls.fetch_add(1) < 2) return Status::IOError("flake");
        return Status::OK();
      },
      {}, TaskGraph::TaskOptions{});
  graph.AddTask([&]() {
    dependent_ran.fetch_add(1);
    return Status::OK();
  },
                {flaky});
  ASSERT_TRUE(graph.Wait().ok());
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(dependent_ran.load(), 1)
      << "dependent must run exactly once, after the successful attempt";
}

TEST(TaskGraph, DoesNotRetryPermanentFailures) {
  TaskPool pool(2);
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.backoff_nanos = 1000;
  TaskGraph graph(&pool, retry);
  std::atomic<int> calls{0};
  graph.AddTask(
      [&](int) {
        calls.fetch_add(1);
        return Status::Corruption("bad block");
      },
      {}, TaskGraph::TaskOptions{});
  Status st = graph.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(calls.load(), 1) << "permanent failures must not be retried";
}

TEST(TaskGraph, ExhaustedRetryBudgetSurfacesLastError) {
  TaskPool pool(2);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_nanos = 1000;
  TaskGraph graph(&pool, retry);
  std::atomic<int> calls{0};
  std::atomic<int> dependent_ran{0};
  const int doomed = graph.AddTask(
      [&](int) {
        calls.fetch_add(1);
        return Status::IOError("still down");
      },
      {}, TaskGraph::TaskOptions{});
  graph.AddTask([&]() {
    dependent_ran.fetch_add(1);
    return Status::OK();
  },
                {doomed});
  Status st = graph.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(calls.load(), 3) << "budget is total attempts, not retries";
  EXPECT_EQ(dependent_ran.load(), 0);
}

TEST(TaskGraph, PerTaskPolicyOverridesGraphDefault) {
  TaskPool pool(2);
  TaskGraph graph(&pool);  // graph default: no retries
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_nanos = 1000;
  std::atomic<int> calls{0};
  TaskGraph::TaskOptions options;
  options.retry = &retry;
  graph.AddTask(
      [&](int) {
        if (calls.fetch_add(1) == 0) return Status::IOError("flake");
        return Status::OK();
      },
      {}, options);
  ASSERT_TRUE(graph.Wait().ok());
  EXPECT_EQ(calls.load(), 2);
}

TEST(TaskGraph, AlwaysRunTaskExecutesAfterDependencyFailure) {
  TaskPool pool(2);
  TaskGraph graph(&pool);
  std::atomic<bool> cleanup_ran{false};
  const int bad = graph.AddTask([]() { return Status::IOError("map died"); });
  TaskGraph::TaskOptions cleanup_options;
  cleanup_options.always_run = true;
  graph.AddTask(
      [&](int) {
        cleanup_ran.store(true);
        return Status::OK();
      },
      {bad}, cleanup_options);
  Status st = graph.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(cleanup_ran.load())
      << "always_run tasks must survive the skip cascade";
}

TEST(TaskGraph, AlwaysRunTaskOnAlreadyFailedDependency) {
  TaskPool pool(2);
  TaskGraph graph(&pool);
  const int bad = graph.AddTask([]() { return Status::IOError("dead"); });
  EXPECT_FALSE(graph.Wait().ok());
  // The dependency is already terminal-failed when the task is added.
  std::atomic<bool> cleanup_ran{false};
  TaskGraph::TaskOptions cleanup_options;
  cleanup_options.always_run = true;
  graph.AddTask(
      [&](int) {
        cleanup_ran.store(true);
        return Status::OK();
      },
      {bad}, cleanup_options);
  EXPECT_FALSE(graph.Wait().ok()) << "first failure is still reported";
  EXPECT_TRUE(cleanup_ran.load());
}

TEST(TaskGraph, DeterministicBackoffScheduleIsReproducible) {
  // Two graphs with the same policy retry the same task id on the same
  // schedule: assert indirectly by timing nothing — just that both runs
  // take the same number of attempts and succeed. (The jitter itself is a
  // pure function of {seed, id, attempt}; see RetryBackoffNanos.)
  for (int round = 0; round < 2; ++round) {
    TaskPool pool(2);
    RetryPolicy retry;
    retry.max_attempts = 4;
    retry.backoff_nanos = 1000;
    retry.seed = 42;
    TaskGraph graph(&pool, retry);
    std::atomic<int> calls{0};
    graph.AddTask(
        [&](int) {
          if (calls.fetch_add(1) < 3) return Status::IOError("flake");
          return Status::OK();
        },
        {}, TaskGraph::TaskOptions{});
    ASSERT_TRUE(graph.Wait().ok());
    EXPECT_EQ(calls.load(), 4);
  }
}

}  // namespace
}  // namespace antimr
