#include "mr/task_graph.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "obs/trace.h"

namespace antimr {

TaskPool::TaskPool(int num_workers, std::string name) : name_(std::move(name)) {
  if (num_workers <= 0) {
    num_workers = static_cast<int>(std::thread::hardware_concurrency());
    if (num_workers <= 0) num_workers = 4;
  }
  num_workers_ = num_workers;
  auto& registry = obs::MetricsRegistry::Global();
  queue_depth_gauge_ = registry.GetGauge(
      "antimr_pool_queue_depth", "Tasks queued and not yet claimed, all pools");
  active_workers_gauge_ = registry.GetGauge(
      "antimr_pool_active_workers", "Workers currently running a task");
  workers_total_gauge_ = registry.GetGauge(
      "antimr_pool_workers_total",
      "Worker threads across live pools (utilization denominator)");
  workers_total_gauge_->Add(num_workers_);
  threads_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  workers_total_gauge_->Sub(num_workers_);
}

void TaskPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  queue_depth_gauge_->Add(1);
  cv_.notify_one();
}

void TaskPool::WorkerLoop(int worker_index) {
  obs::Tracer::Global().SetCurrentThreadName(
      name_ + "-" + std::to_string(worker_index));
  while (true) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: submitted work always runs.
      if (queue_.empty()) return;
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    // Sample queue depth + utilization on task boundaries; the counter
    // tracks render next to the task lanes in a trace.
    queue_depth_gauge_->Sub(1);
    active_workers_gauge_->Add(1);
    ANTIMR_TRACE_COUNTER("queue_depth", queue_depth_gauge_->value());
    ANTIMR_TRACE_COUNTER("busy_workers", active_workers_gauge_->value());
    fn();
    active_workers_gauge_->Sub(1);
    ANTIMR_TRACE_COUNTER("busy_workers", active_workers_gauge_->value());
  }
}

Status TaskPool::RunWave(const std::vector<std::function<Status()>>& tasks) {
  if (tasks.empty()) return Status::OK();
  struct WaveState {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    Status first_failure;
    size_t first_failure_index;
  };
  WaveState wave;
  wave.remaining = tasks.size();
  wave.first_failure_index = tasks.size();

  for (size_t i = 0; i < tasks.size(); ++i) {
    Submit([&wave, &tasks, i]() {
      Status st = tasks[i]();
      std::lock_guard<std::mutex> lock(wave.mu);
      if (!st.ok() && i < wave.first_failure_index) {
        wave.first_failure = std::move(st);
        wave.first_failure_index = i;
      }
      if (--wave.remaining == 0) wave.cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(wave.mu);
  wave.cv.wait(lock, [&wave]() { return wave.remaining == 0; });
  return wave.first_failure;
}

namespace {

/// Backoff before retry `next_attempt` (1-based) of task `id`: exponential
/// doubling capped at max_backoff_nanos, with deterministic jitter drawn
/// from {policy.seed, id, next_attempt} into [base/2, base]. Determinism
/// keeps fault-injection sweeps and the paper's repeated-measurement runs
/// exactly reproducible.
uint64_t RetryBackoffNanos(const RetryPolicy& policy, int id,
                           int next_attempt) {
  if (policy.backoff_nanos == 0) return 0;
  const int shift = std::min(next_attempt - 1, 20);
  uint64_t base = policy.backoff_nanos << shift;
  // Detect shift overflow as well as a plain over-cap value.
  if ((base >> shift) != policy.backoff_nanos ||
      base > policy.max_backoff_nanos) {
    base = policy.max_backoff_nanos;
  }
  Random rng(policy.seed ^ (static_cast<uint64_t>(id) << 32) ^
             static_cast<uint64_t>(next_attempt));
  return base / 2 + rng.Uniform(base / 2 + 1);
}

}  // namespace

TaskGraph::TaskGraph(TaskPool* pool, RetryPolicy retry)
    : default_pool_(pool), default_retry_(retry) {
  if (default_retry_.max_attempts < 1) default_retry_.max_attempts = 1;
}

int TaskGraph::AddTask(std::function<Status()> fn,
                       const std::vector<int>& deps,
                       TaskPool* pool_override) {
  TaskOptions options;
  options.pool = pool_override;
  return AddTask([fn = std::move(fn)](int) { return fn(); }, deps, options);
}

int TaskGraph::AddTask(TaskFn fn, const std::vector<int>& deps,
                       const TaskOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.fn = std::move(fn);
  node.pool = options.pool != nullptr ? options.pool : default_pool_;
  node.retry = options.retry != nullptr ? *options.retry : default_retry_;
  if (node.retry.max_attempts < 1) node.retry.max_attempts = 1;
  node.always_run = options.always_run;
  for (int dep_id : deps) {
    Node& dep = nodes_[static_cast<size_t>(dep_id)];
    if (dep.done) {
      if (!dep.ok) node.dep_failed = true;
    } else {
      ++node.pending;
      dep.dependents.push_back(id);
    }
  }
  if (node.pending == 0) {
    if (node.dep_failed && !node.always_run) {
      FinishLocked(id, /*ran_ok=*/false);
      cv_.notify_all();
    } else {
      ScheduleLocked(id);
    }
  }
  return id;
}

void TaskGraph::ScheduleLocked(int id) {
  // Capture the node pointer (and current attempt) under the lock: deque
  // element addresses are stable, while operator[] during a concurrent
  // AddTask would race.
  Node* node = &nodes_[static_cast<size_t>(id)];
  const int attempt = node->attempt;
  node->pool->Submit([this, id, node, attempt]() {
    Status st = node->fn(attempt);
    OnDone(id, std::move(st));
  });
}

void TaskGraph::OnDone(int id, Status st) {
  if (!st.ok()) {
    // Transient failure with attempts left: re-submit after a backoff
    // instead of finishing the node. Dependents stay pending, so from the
    // graph's point of view a retried task is just a slow task.
    bool retrying = false;
    int next_attempt = 0;
    uint64_t backoff = 0;
    TaskPool* pool = nullptr;
    Node* node_ptr = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Node& node = nodes_[static_cast<size_t>(id)];
      if (st.IsTransient() && node.attempt + 1 < node.retry.max_attempts) {
        next_attempt = ++node.attempt;
        backoff = RetryBackoffNanos(node.retry, id, next_attempt);
        pool = node.pool;
        node_ptr = &node;
        retrying = true;
      }
    }
    if (retrying) {
      static obs::Counter* const retries =
          obs::MetricsRegistry::Global().GetCounter(
              "antimr_task_retries_total",
              "Transient task failures answered with a re-execution");
      retries->Inc();
      ANTIMR_LOG(kWarn) << "task " << id << " attempt " << next_attempt - 1
                        << " failed transiently (" << st.ToString()
                        << "); retrying as attempt " << next_attempt
                        << " after " << backoff << "ns";
      ANTIMR_TRACE_INSTANT("engine", "task_retry",
                           obs::TraceArgs()
                               .Add("task", id)
                               .Add("attempt", next_attempt)
                               .Add("backoff_nanos", backoff)
                               .Add("status", st.ToString()));
      pool->Submit([this, id, node_ptr, next_attempt, backoff]() {
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
        }
        OnDone(id, node_ptr->fn(next_attempt));
      });
      return;
    }
    static obs::Counter* const failures =
        obs::MetricsRegistry::Global().GetCounter(
            "antimr_task_failures_total", "Graph tasks that returned an error");
    failures->Inc();
    ANTIMR_LOG(kWarn) << "task " << id << " failed: " << st.ToString();
    ANTIMR_TRACE_INSTANT("engine", "task_failed",
                         obs::TraceArgs()
                             .Add("task", id)
                             .Add("status", st.ToString()));
  }
  static obs::Histogram* const attempts_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "antimr_task_attempts", "Executions needed per finished graph task");
  // Notify under the lock: Wait may return and the graph be destroyed the
  // moment done_ reaches nodes_.size(), so the cv must not be touched after
  // mu_ is released.
  std::lock_guard<std::mutex> lock(mu_);
  attempts_hist->Observe(
      static_cast<uint64_t>(nodes_[static_cast<size_t>(id)].attempt + 1));
  if (!st.ok() &&
      (!have_failure_ || static_cast<size_t>(id) < first_failure_id_)) {
    first_failure_ = std::move(st);
    first_failure_id_ = static_cast<size_t>(id);
    have_failure_ = true;
  }
  FinishLocked(id, st.ok());
  cv_.notify_all();
}

void TaskGraph::FinishLocked(int id, bool ran_ok) {
  // Iterative cascade: finishing a node may skip a chain of dependents.
  std::vector<int> worklist = {id};
  std::vector<bool> outcomes = {ran_ok};
  while (!worklist.empty()) {
    const int cur = worklist.back();
    const bool cur_ok = outcomes.back();
    worklist.pop_back();
    outcomes.pop_back();
    Node& node = nodes_[static_cast<size_t>(cur)];
    node.done = true;
    node.ok = cur_ok;
    ++done_;
    for (int dep_id : node.dependents) {
      Node& dependent = nodes_[static_cast<size_t>(dep_id)];
      if (!cur_ok) dependent.dep_failed = true;
      if (--dependent.pending == 0) {
        if (dependent.dep_failed && !dependent.always_run) {
          // Skipped: never runs, counts as not-ok for its own dependents.
          worklist.push_back(dep_id);
          outcomes.push_back(false);
        } else {
          // always_run tasks (cleanup) execute even after a dependency
          // failure; by this point every dependency is terminal.
          ScheduleLocked(dep_id);
        }
      }
    }
  }
}

Status TaskGraph::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this]() { return done_ == nodes_.size(); });
  return first_failure_;
}

}  // namespace antimr
