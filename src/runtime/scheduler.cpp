#include "runtime/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"

namespace mch::runtime {

namespace {

/// Which scheduler (if any) the calling thread is a worker of. Decides
/// where a nested submission's tickets land: the worker's own deque
/// (stealable children) vs. the global injection queue.
struct WorkerIdentity {
  Scheduler* owner = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity t_worker;

/// True while the calling thread executes a chunk body. Saved/restored by
/// ExecuteScope rather than cleared, because nested jobs re-enter
/// execute_chunk on the same thread.
thread_local bool t_in_task = false;

struct ExecuteScope {
  bool previous;
  ExecuteScope() : previous(t_in_task) { t_in_task = true; }
  ~ExecuteScope() { t_in_task = previous; }
};

/// Pool ids and log worker ids are process-wide counters so two pools in
/// one process (the global Runtime's plus ad-hoc test pools) never hand
/// out colliding worker identities.
std::atomic<unsigned> g_next_pool_id{0};
std::atomic<int> g_next_log_worker_id{1};

bool env_flag(const char* name, bool default_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return default_value;
  return !(value[0] == '0' && value[1] == '\0');
}

/// Knob cell: -1 = unresolved (read the environment on first use),
/// otherwise 0/1. The setter overwrites, so tests can flip it after start.
std::atomic<int> g_steal_first{-1};

bool resolve_flag(std::atomic<int>& cell, const char* env_name,
                  bool default_value) {
  int value = cell.load(std::memory_order_relaxed);
  if (value < 0) {
    value = env_flag(env_name, default_value) ? 1 : 0;
    cell.store(value, std::memory_order_relaxed);
  }
  return value != 0;
}

}  // namespace

/// One top-level or nested submission. Stack-allocated in run(); the
/// combined `remaining` count (chunks + issued tickets) guarantees a
/// unique zeroing thread, which marks `done` under `mu` — so nobody can
/// touch a Job after the submitter's wait returns and the frame dies.
struct Scheduler::Job {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t chunks = 0;
  /// Claim cursor: every executor (submitter, ticket holders) fetch_adds
  /// until it reads >= chunks. Assignment is dynamic; results don't
  /// depend on it (see the determinism contract in scheduler.h).
  std::atomic<std::size_t> cursor{0};
  /// chunks + issued tickets. Each finished chunk and each retired ticket
  /// (drained or cancelled) subtracts one; the thread that zeroes it is
  /// unique and completes the job. An executor's own outstanding ticket
  /// keeps the count positive while it runs, so its chunk-finishes can
  /// never free the job out from under it.
  std::atomic<std::size_t> remaining{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;             ///< guarded by mu
  std::exception_ptr error;      ///< guarded by mu; first chunk failure
};

bool Scheduler::in_task() { return t_in_task; }

int Scheduler::current_worker_index() const {
  return t_worker.owner == this ? static_cast<int>(t_worker.index) : -1;
}

bool Scheduler::steal_first() {
  return resolve_flag(g_steal_first, "MCH_SCHED_STEAL_FIRST", false);
}

void Scheduler::set_steal_first(bool enabled) {
  g_steal_first.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void Scheduler::reset_knobs() {
  g_steal_first.store(-1, std::memory_order_relaxed);
}

Scheduler::Scheduler(unsigned thread_count)
    : pool_id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)) {
  MCH_CHECK_MSG(thread_count >= 1, "scheduler needs at least one thread");
  const unsigned worker_count = thread_count - 1;
  queues_.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    shutdown_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Scheduler::execute_chunk(Job& job, std::size_t chunk) {
  ExecuteScope scope;
  try {
    (*job.task)(chunk);
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.error) job.error = std::current_exception();
  }
}

void Scheduler::finish(Job& job, std::size_t n) {
  if (n == 0) return;
  // acq_rel chains every executor's writes into the zeroer, and the mutex
  // hands them on to the waiting submitter. Notify under the lock: the
  // submitter's frame owns the Job, so the cv must not be touched after
  // `done` becomes visible outside the critical section.
  if (job.remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lock(job.mu);
    job.done = true;
    job.cv.notify_all();
  }
}

std::size_t Scheduler::drain(Job& job) {
  std::size_t executed = 0;
  for (;;) {
    const std::size_t chunk =
        job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunks) break;
    execute_chunk(job, chunk);
    finish(job, 1);
    ++executed;
  }
  return executed;
}

void Scheduler::push_tickets(Job* job, std::size_t count, int home) {
  if (home >= 0) {
    WorkerQueue& queue = *queues_[static_cast<std::size_t>(home)];
    std::lock_guard<std::mutex> lock(queue.mutex);
    for (std::size_t i = 0; i < count; ++i) queue.tickets.push_back(job);
  } else {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    for (std::size_t i = 0; i < count; ++i) injection_.push_back(job);
  }
  wake_workers();
}

void Scheduler::cancel_tickets(Job* job) {
  std::size_t removed = 0;
  const auto strip = [&removed, job](std::deque<Job*>& tickets) {
    const auto keep_end = std::remove(tickets.begin(), tickets.end(), job);
    removed += static_cast<std::size_t>(tickets.end() - keep_end);
    tickets.erase(keep_end, tickets.end());
  };
  {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    strip(injection_);
  }
  for (const std::unique_ptr<WorkerQueue>& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mutex);
    strip(queue->tickets);
  }
  finish(*job, removed);
}

void Scheduler::wake_workers() {
  // seq_cst Dekker pairing with the sleep path: either the sleeper's
  // epoch re-check (after raising sleepers_) sees this bump, or this
  // sleepers_ load sees the sleeper and takes the lock to notify. Taking
  // sleep_mutex_ before notifying closes the window between a sleeper's
  // failed predicate check and its atomic release-and-block.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
}

bool Scheduler::acquire_ticket(unsigned self, Job*& job, bool& stolen) {
  stolen = false;
  const auto pop_own = [&]() {
    WorkerQueue& queue = *queues_[self];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.tickets.empty()) return false;
    job = queue.tickets.back();
    queue.tickets.pop_back();
    return true;
  };
  const auto pop_injected = [&]() {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    if (injection_.empty()) return false;
    job = injection_.front();
    injection_.pop_front();
    return true;
  };
  const auto steal = [&]() {
    const std::size_t n = queues_.size();
    for (std::size_t offset = 1; offset < n; ++offset) {
      WorkerQueue& queue = *queues_[(self + offset) % n];
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.tickets.empty()) continue;
      job = queue.tickets.front();
      queue.tickets.pop_front();
      stolen = true;
      return true;
    }
    return false;
  };
  if (steal_first()) return steal() || pop_injected() || pop_own();
  return pop_own() || pop_injected() || steal();
}

void Scheduler::worker_main(unsigned index) {
  set_log_worker_id(g_next_log_worker_id.fetch_add(
      1, std::memory_order_relaxed));
  obs::set_trace_thread_name("worker-" + std::to_string(pool_id_) + "." +
                             std::to_string(index));
  t_worker = WorkerIdentity{this, index};
  for (;;) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
    Job* job = nullptr;
    bool stolen = false;
    if (acquire_ticket(index, job, stolen)) {
      if (stolen) {
        static obs::Counter& steals = obs::counter("sched.steals");
        steals.add();
      }
      {
        // One busy span per ticket (not per chunk): bounded event volume
        // even when a job has thousands of fine-grained chunks.
        obs::TraceSpan busy("pool.worker.busy");
        busy.arg("chunks", drain(*job));
      }
      // Retire the ticket last; the Job may die the moment this lands.
      finish(*job, 1);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (shutdown_) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [&] {
      return shutdown_ || epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (shutdown_) return;
  }
}

void Scheduler::run(std::size_t chunks,
                    const std::function<void(std::size_t)>& task) {
  if (chunks == 0) return;

  const bool nested = t_in_task;
  const int home =
      t_worker.owner == this ? static_cast<int>(t_worker.index) : -1;

  Job job;
  job.task = &task;
  job.chunks = chunks;
  // One ticket per worker the job could use; the submitter participates
  // unticketed, so chunks-1 is the most company it can ever need.
  const std::size_t tickets =
      std::min<std::size_t>(chunks - 1, workers_.size());
  job.remaining.store(chunks + tickets, std::memory_order_relaxed);

  if (nested) {
    static obs::Counter& nested_jobs = obs::counter("sched.nested_jobs");
    nested_jobs.add();
  } else {
    static obs::Counter& jobs = obs::counter("sched.jobs");
    jobs.add();
    static obs::Histogram& queue_depth = obs::histogram("sched.queue_depth");
    queue_depth.observe(static_cast<double>(
        active_jobs_.fetch_add(1, std::memory_order_relaxed) + 1));
  }

  if (tickets > 0) push_tickets(&job, tickets, home);

  // The submitter is one of the job's threads: drain the cursor like any
  // ticket holder would.
  drain(job);

  // Every chunk is claimed; tickets no worker took yet are dead weight —
  // claw them back so the job completes without waiting on a busy pool.
  if (tickets > 0) cancel_tickets(&job);

  {
    std::unique_lock<std::mutex> lock(job.mu);
    job.cv.wait(lock, [&] { return job.done; });
  }
  if (!nested) active_jobs_.fetch_sub(1, std::memory_order_relaxed);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace mch::runtime
