// Scheduler mechanics: exact chunk coverage under adversarial grains,
// concurrent top-level submissions (the multi-client regression), nested
// parallel_for as stealable children with the inline-fallback metric,
// exception propagation — including from a stolen task — pool-scoped
// worker identities, and clean reconfiguration/shutdown cycles.
#include "runtime/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/runtime.h"

namespace mch::runtime {
namespace {

/// Every test leaves the global Runtime serial and the steal-first knob
/// re-armed from the environment, so suites sharing the binary start from
/// a known state and MCH_SCHED_STEAL_FIRST sweeps apply to the whole binary.
class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Runtime::configure(1);
    Scheduler::reset_knobs();
  }
};

TEST_F(RuntimeTest, ChunkCount) {
  EXPECT_EQ(chunk_count(0, 64), 0u);
  EXPECT_EQ(chunk_count(1, 64), 1u);
  EXPECT_EQ(chunk_count(64, 64), 1u);
  EXPECT_EQ(chunk_count(65, 64), 2u);
  EXPECT_EQ(chunk_count(10, 3), 4u);
  EXPECT_EQ(chunk_count(10, 0), 10u);  // grain 0 behaves as grain 1
}

TEST_F(RuntimeTest, ResolveThreadCount) {
  EXPECT_EQ(Runtime::resolve_thread_count(1), 1u);
  EXPECT_EQ(Runtime::resolve_thread_count(5), 5u);
  EXPECT_GE(Runtime::resolve_thread_count(0), 1u);  // auto is at least 1
}

TEST_F(RuntimeTest, CoversRangeExactlyOnceUnderAdversarialGrains) {
  const std::size_t grains[] = {1, 2, 3, 7, 64, 1000000};
  const std::size_t sizes[] = {0, 1, 5, 1023, 1024, 1025, 10000};
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    Runtime::configure(threads);
    for (const std::size_t grain : grains) {
      for (const std::size_t n : sizes) {
        std::vector<int> counts(n, 0);
        parallel_for(std::size_t{0}, n, grain,
                     [&](std::size_t lo, std::size_t hi) {
                       ASSERT_LT(lo, hi);
                       ASSERT_LE(hi, n);
                       ASSERT_LE(hi - lo, grain == 0 ? 1 : grain);
                       for (std::size_t i = lo; i < hi; ++i) ++counts[i];
                     });
        const long total =
            std::accumulate(counts.begin(), counts.end(), 0L);
        ASSERT_EQ(total, static_cast<long>(n))
            << "threads=" << threads << " grain=" << grain << " n=" << n;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(counts[i], 1) << "index " << i << " ran " << counts[i]
                                  << " times (threads=" << threads
                                  << " grain=" << grain << " n=" << n << ")";
      }
    }
  }
}

TEST_F(RuntimeTest, OffsetRangeCoversExactlyOnce) {
  Runtime::configure(4);
  constexpr std::size_t kBegin = 17, kEnd = 1042;
  std::vector<int> counts(kEnd, 0);
  parallel_for(kBegin, kEnd, 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++counts[i];
  });
  for (std::size_t i = 0; i < kEnd; ++i)
    ASSERT_EQ(counts[i], i >= kBegin ? 1 : 0) << "index " << i;
}

// Regression for the multi-client abort: the old pool fired MCH_CHECK
// ("concurrent top-level ThreadPool::run calls are not supported") and
// killed the process when two threads submitted jobs at once. The
// scheduler must interleave the jobs on the shared workers, run every
// chunk of every job exactly once, and return each submitter its own
// results.
TEST_F(RuntimeTest, ConcurrentTopLevelSubmissionsInterleave) {
  Runtime::configure(4);
  constexpr int kClients = 4;
  constexpr std::size_t kItems = 4096;
  std::atomic<int> ready{0};
  std::vector<std::vector<int>> counts(kClients,
                                       std::vector<int>(kItems, 0));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      // Rendezvous so the submissions genuinely overlap.
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (int round = 0; round < 8; ++round) {
        parallel_for(std::size_t{0}, kItems, 64,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i)
                         ++counts[client][i];
                     });
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int client = 0; client < kClients; ++client)
    for (std::size_t i = 0; i < kItems; ++i)
      ASSERT_EQ(counts[client][i], 8)
          << "client " << client << " index " << i;
}

// Nested parallel_for no longer serializes inline: the inner construct is
// a nested job whose chunks are stealable children, still covering every
// index exactly once, and the in_task flag survives the nesting.
TEST_F(RuntimeTest, NestedParallelForSchedulesStealableChildren) {
  Runtime::configure(4);
  EXPECT_FALSE(Scheduler::in_task());
  constexpr std::size_t kOuter = 8, kInner = 100;
  std::vector<std::vector<int>> hits(kOuter,
                                     std::vector<int>(kInner, 0));
  std::atomic<int> nested_in_task{0};
  const std::uint64_t nested_jobs_before =
      obs::counter("sched.nested_jobs").value();
  parallel_for(std::size_t{0}, kOuter, 1,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t o = lo; o < hi; ++o) {
                   if (Scheduler::in_task()) ++nested_in_task;
                   parallel_for(std::size_t{0}, kInner, 10,
                                [&, o](std::size_t ilo, std::size_t ihi) {
                                  EXPECT_TRUE(Scheduler::in_task());
                                  for (std::size_t i = ilo; i < ihi; ++i)
                                    ++hits[o][i];
                                });
                   // The outer body is still inside its chunk after the
                   // nested job completed (the in-task flag is restored,
                   // not cleared).
                   EXPECT_TRUE(Scheduler::in_task());
                 }
               });
  EXPECT_EQ(nested_in_task.load(), static_cast<int>(kOuter));
  for (std::size_t o = 0; o < kOuter; ++o)
    for (std::size_t i = 0; i < kInner; ++i)
      ASSERT_EQ(hits[o][i], 1) << "outer " << o << " inner " << i;
  EXPECT_FALSE(Scheduler::in_task());
  EXPECT_EQ(obs::counter("sched.nested_jobs").value() - nested_jobs_before,
            static_cast<std::uint64_t>(kOuter));
}

TEST_F(RuntimeTest, ExceptionPropagatesAndPoolSurvives) {
  Runtime::configure(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        parallel_for(std::size_t{0}, std::size_t{100}, 1,
                     [&](std::size_t lo, std::size_t) {
                       if (lo == 37)
                         throw std::runtime_error("chunk failure");
                     }),
        std::runtime_error);
    // The scheduler must stay usable after a throwing job.
    std::vector<int> counts(1000, 0);
    parallel_for(std::size_t{0}, counts.size(), 64,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) ++counts[i];
                 });
    for (std::size_t i = 0; i < counts.size(); ++i)
      ASSERT_EQ(counts[i], 1);
  }
}

// Exception propagation from a *stolen* task: a worker submits a nested
// job and blocks inside its first chunk until the remaining nested chunks
// have run. Those chunks sit on the worker's own deque, so they can only
// execute by being stolen — one of them throws, and the error must travel
// stolen chunk -> nested submitter -> outer job -> outer submitter.
TEST_F(RuntimeTest, ExceptionPropagatesFromStolenTask) {
  Runtime::configure(4);
  Scheduler* sched = Runtime::instance().scheduler();
  ASSERT_NE(sched, nullptr);
  std::atomic<bool> ran_nested{false};
  bool threw = false;
  const std::uint64_t steals_before = obs::counter("sched.steals").value();
  std::atomic<int> inside{0};
  std::atomic<bool> claimed{false};
  std::atomic<int> others_done{0};
  try {
    // Two outer chunks with a rendezvous: the submitter can hold only one
    // at a time, so the other is guaranteed to run on a pool worker — no
    // matter how a single-core machine schedules the wakeups.
    parallel_for(std::size_t{0}, std::size_t{2}, 1,
                 [&](std::size_t, std::size_t) {
                   inside.fetch_add(1);
                   while (inside.load() < 2) std::this_thread::yield();
                   // Only a pool worker's nested children land on a worker
                   // deque (an external submitter's go to the injection
                   // queue), so only a worker stages the bait.
                   if (sched->current_worker_index() < 0) return;
                   if (claimed.exchange(true)) return;
                   ran_nested.store(true);
                   parallel_for(
                       std::size_t{0}, std::size_t{4}, 1,
                       [&](std::size_t lo, std::size_t) {
                         if (lo == 0) {
                           // Pin the nested submitter here until the
                           // other chunks ran elsewhere (stolen).
                           while (others_done.load() < 3)
                             std::this_thread::yield();
                           return;
                         }
                         others_done.fetch_add(1);
                         if (lo == 1)
                           throw std::runtime_error("stolen chunk");
                       });
                 });
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stolen chunk");
    threw = true;
  }
  ASSERT_TRUE(ran_nested.load()) << "no outer chunk ever ran on a worker";
  EXPECT_TRUE(threw);
  EXPECT_GT(obs::counter("sched.steals").value(), steals_before);
}

TEST_F(RuntimeTest, SchedulerRunExecutesEveryChunkOnceAndIsReusable) {
  Scheduler sched(4);
  EXPECT_EQ(sched.thread_count(), 4u);
  for (const std::size_t chunks : {std::size_t{1}, std::size_t{257},
                                   std::size_t{13}}) {
    std::unique_ptr<std::atomic<int>[]> counts(new std::atomic<int>[chunks]);
    for (std::size_t c = 0; c < chunks; ++c) counts[c] = 0;
    sched.run(chunks, [&](std::size_t c) { ++counts[c]; });
    for (std::size_t c = 0; c < chunks; ++c)
      ASSERT_EQ(counts[c].load(), 1) << "chunk " << c << " of " << chunks;
  }
}

// Two pools in one process must hand out distinct worker identities — the
// old per-pool "worker-N" names collided between the global Runtime's pool
// and ad-hoc test pools, interleaving unrelated threads in trace output.
TEST_F(RuntimeTest, WorkerIdentitiesArePoolScopedUnique) {
  Scheduler a(2);
  Scheduler b(2);
  EXPECT_NE(a.pool_id(), b.pool_id());

  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  // A two-sided rendezvous per pool forces the single worker to claim a
  // chunk (and hence register its named trace buffer): neither side can
  // finish its own chunk until both are inside the job.
  const auto drive = [](Scheduler& sched) {
    std::atomic<int> inside{0};
    sched.run(2, [&](std::size_t) {
      inside.fetch_add(1);
      while (inside.load() < 2) std::this_thread::yield();
    });
  };
  drive(a);
  drive(b);
  const std::string json = obs::chrome_trace_json();
  obs::set_tracing_enabled(was_tracing);
  obs::clear_trace();

  const std::string name_a = "worker-" + std::to_string(a.pool_id()) + ".0";
  const std::string name_b = "worker-" + std::to_string(b.pool_id()) + ".0";
  EXPECT_NE(json.find(name_a), std::string::npos) << json;
  EXPECT_NE(json.find(name_b), std::string::npos) << json;
}

TEST_F(RuntimeTest, ReconfigureCyclesShutDownCleanly) {
  for (const unsigned threads : {1u, 2u, 4u, 8u, 3u, 1u, 4u}) {
    Runtime::configure(threads);
    EXPECT_EQ(Runtime::instance().threads(), threads);
    EXPECT_EQ(Runtime::instance().scheduler() == nullptr, threads == 1);
    long sum = parallel_reduce(
        std::size_t{0}, std::size_t{1000}, 16, 0L,
        [](std::size_t lo, std::size_t hi) {
          long s = 0;
          for (std::size_t i = lo; i < hi; ++i) s += static_cast<long>(i);
          return s;
        },
        [](long a, long b) { return a + b; });
    EXPECT_EQ(sum, 999L * 1000L / 2);
  }
}

}  // namespace
}  // namespace mch::runtime
