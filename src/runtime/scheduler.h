// Two-level cross-design job scheduler over one shared worker pool.
//
// Level 1 is a global queue of *jobs* — one per top-level submission (a
// design legalization, a service request, a suite experiment). Level 2 is a
// set of per-worker deques holding job *tickets*: a ticket invites a worker
// to join a job and drain chunks from the job's atomic claim cursor. Any
// number of threads may submit jobs concurrently (the resident service's
// multi-client case); their component-solve chunks interleave on the same
// workers, replacing the old single-job ThreadPool::run barrier protocol
// that aborted on a second concurrent top-level submission.
//
// Ticket placement is what makes the two levels:
//
//   * top-level submissions from threads outside the pool enqueue tickets
//     on the global injection queue (FIFO across jobs, so a queue of many
//     designs drains fairly);
//   * nested submissions from inside a chunk body push their tickets onto
//     the submitting worker's own deque — the nested chunks become
//     *stealable children* instead of silently serializing inline.
//
// An idle worker pops its own deque first (newest first: children are
// cache-hot), then the injection queue (oldest job first), then *steals*
// from the other workers' deques (oldest first: coarse work travels,
// fine-grained work stays). The submitting thread always participates in
// its own job, so a lone submitter still runs on thread_count() threads
// exactly like the old pool.
//
// Determinism contract (unchanged from runtime/parallel.h): the chunk
// *layout* of every job is fixed by the caller, chunk bodies write disjoint
// state, and reductions fold in chunk-index order on the submitting thread.
// Chunk *assignment* — which worker claims which chunk, what gets stolen —
// only ever moves wall-clock time around; no observable result depends on
// it. A queue of legalization requests is therefore bitwise
// reproducible per request at any thread count and under any steal
// schedule (tests/service/scheduler_determinism_test.cpp holds the line).
//
// Exceptions thrown by chunk bodies — including stolen ones — are caught,
// the first is remembered on the job, the remaining chunks still run, and
// the stored exception is rethrown on the submitting thread once the job
// completes. The scheduler survives throwing jobs and stays usable.
//
// Knob (process-wide, resolved from the environment at first use,
// settable by tests):
//
//   MCH_SCHED_STEAL_FIRST=1  workers prefer stealing other workers' tickets
//                            over their own deque — a steal-heavy schedule
//                            for shaking out order dependence in tests (the
//                            determinism suites and the TSan job run under
//                            it).
//
// Metrics: `sched.jobs`, `sched.nested_jobs`, `sched.steals` counters and
// the `sched.queue_depth` histogram
// (jobs in flight, observed at every top-level submission); workers carry
// `pool.worker.busy` spans. Worker trace/log identities are pool-scoped
// unique ("worker-<pool>.<index>", globally unique log ids), so processes
// holding several pools — the global Runtime's plus ad-hoc test pools —
// never alias worker names.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mch::runtime {

class Scheduler {
 public:
  /// Creates a scheduler that runs every job on up to `thread_count`
  /// threads: the submitting thread plus `thread_count - 1` workers.
  /// Requires >= 1. With several concurrent submitters the pool is shared:
  /// each job still completes on at most thread_count threads, but
  /// distinct jobs' chunks interleave on the same workers.
  explicit Scheduler(unsigned thread_count);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Joins the workers. No job may be in flight (same contract as
  /// Runtime::configure: reconfiguration is quiescent-only).
  ~Scheduler();

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Pool-scoped unique id (process-wide counter), part of every worker's
  /// trace/log identity.
  unsigned pool_id() const { return pool_id_; }

  /// Runs task(c) for every c in [0, chunks) and blocks until every chunk
  /// has finished. Safe to call from any number of threads concurrently
  /// (each call is one job) and from inside a chunk body (the nested job's
  /// chunks become stealable children of the calling worker). Rethrows the
  /// first exception thrown by any chunk, wherever it ran.
  void run(std::size_t chunks, const std::function<void(std::size_t)>& task);

  /// True while the calling thread is executing a chunk body (worker or
  /// submitter helping out); run() uses it to place a nested job's tickets
  /// on the calling worker's own deque.
  static bool in_task();

  /// The calling thread's worker index within `this` pool, or -1 when the
  /// thread is not one of this scheduler's workers (external submitters,
  /// other pools' workers). Nested submissions from a worker land on that
  /// worker's own deque; tests use this to pin work onto a worker.
  int current_worker_index() const;

  /// Steal-heavy schedule knob; default from MCH_SCHED_STEAL_FIRST.
  static bool steal_first();
  static void set_steal_first(bool enabled);

  /// Forgets the set_steal_first override so the next query re-resolves
  /// from the environment; test teardowns call this instead of guessing
  /// the default (sanitizer jobs sweep MCH_SCHED_STEAL_FIRST across whole
  /// test binaries).
  static void reset_knobs();

 private:
  struct Job;

  /// One worker's ticket deque. Own pops take the back (newest: nested
  /// children), steals take the front (oldest: coarse top-level work).
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Job*> tickets;
  };

  void worker_main(unsigned index);
  /// Pops a ticket for worker `self` honoring the steal policy. `stolen`
  /// reports a take from another worker's deque.
  bool acquire_ticket(unsigned self, Job*& job, bool& stolen);
  /// Claims and executes chunks of `job` until its cursor is exhausted;
  /// returns how many chunks this thread executed.
  std::size_t drain(Job& job);
  void execute_chunk(Job& job, std::size_t chunk);
  /// Decrements the job's remaining count by `n`; the unique thread that
  /// zeroes it marks the job done and notifies the submitter.
  static void finish(Job& job, std::size_t n);
  /// Distributes `count` tickets: onto worker `home`'s deque when the
  /// submitter is one of this pool's workers (nested children), onto the
  /// global injection queue otherwise.
  void push_tickets(Job* job, std::size_t count, int home);
  /// Removes every not-yet-claimed ticket of `job` after its cursor
  /// drained, so a completed job never leaves dangling tickets behind.
  void cancel_tickets(Job* job);
  void wake_workers();

  const unsigned pool_id_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  ///< one per worker

  /// Level 1: tickets of jobs submitted from outside the pool.
  std::mutex injection_mutex_;
  std::deque<Job*> injection_;

  /// Sleep/wake protocol: pushes bump epoch_ and notify when sleepers
  /// exist; a worker re-checks the epoch under sleep_mutex_ before
  /// blocking, so a push between its failed scan and its wait cannot be
  /// lost (seq_cst Dekker pairing on epoch_/sleepers_).
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> sleepers_{0};
  bool shutdown_ = false;  ///< guarded by sleep_mutex_

  /// Jobs in flight (top-level submissions), for sched.queue_depth.
  std::atomic<std::size_t> active_jobs_{0};
};

}  // namespace mch::runtime
