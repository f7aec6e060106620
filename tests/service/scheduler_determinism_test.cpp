// Scheduler determinism across designs: the same queue of mixed-size
// full-solve requests on the default (tiered) path must produce
// bitwise-identical positions per request
// at 1/4/16 threads, under forced steal-heavy scheduling, and when the
// requests are submitted by concurrent clients sharing the worker pool.
// Work stealing and cross-job interleaving may only move wall-clock time
// around — never results (the contract documented in runtime/scheduler.h).
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "db/design.h"
#include "gen/generator.h"
#include "legal/flow.h"
#include "runtime/runtime.h"
#include "runtime/scheduler.h"
#include "service/session.h"

namespace mch::service {
namespace {

/// Heterogeneous request mix: small components-heavy designs next to
/// larger ones, so jobs of very different lengths share the pool.
struct RequestSpec {
  std::size_t cells;
  std::uint64_t seed;
};
const std::vector<RequestSpec>& request_mix() {
  static const std::vector<RequestSpec> specs = {
      {400, 101}, {1600, 102}, {700, 103},
      {2400, 104}, {500, 105}, {1100, 106}};
  return specs;
}

db::Design make_design(const RequestSpec& spec) {
  gen::GeneratorOptions options;
  options.seed = spec.seed;
  return gen::generate_random_design(spec.cells - spec.cells / 10,
                                     spec.cells / 10, 0.7, options);
}

struct Positions {
  std::vector<double> x, y;
};

Positions snapshot(const db::Design& design) {
  Positions p;
  p.x.reserve(design.num_cells());
  p.y.reserve(design.num_cells());
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    p.x.push_back(design.cells()[c].x);
    p.y.push_back(design.cells()[c].y);
  }
  return p;
}

void expect_bitwise_equal(const Positions& got, const Positions& want,
                          const char* label, std::size_t request) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t c = 0; c < got.x.size(); ++c) {
    ASSERT_EQ(got.x[c], want.x[c])
        << label << ": request " << request << " cell " << c;
    ASSERT_EQ(got.y[c], want.y[c])
        << label << ": request " << request << " cell " << c;
  }
}

Positions serve_one(const RequestSpec& spec) {
  LegalizationSession session(make_design(spec));
  const SessionResult result = session.full_legalize(SolveMode::kFull);
  EXPECT_TRUE(result.legal) << result.legality_summary;
  return snapshot(session.design());
}

class SchedulerDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The one-shot reference for every request, computed serially once per
    // process: the session's full-solve answer is contracted bitwise to
    // the one-shot legal::legalize with default options.
    static const std::vector<Positions> reference = [] {
      runtime::Runtime::configure(1);
      std::vector<Positions> snapshots;
      for (const RequestSpec& spec : request_mix()) {
        db::Design design = make_design(spec);
        const legal::FlowResult result = legal::legalize(design);
        EXPECT_TRUE(result.legal);
        snapshots.push_back(snapshot(design));
      }
      return snapshots;
    }();
    reference_ = reference;
  }

  void TearDown() override {
    runtime::Runtime::configure(1);
    runtime::Scheduler::reset_knobs();
  }

  std::vector<Positions> reference_;
};

TEST_F(SchedulerDeterminismTest, QueueBitwiseStableAcrossThreadCounts) {
  for (const unsigned threads : {1u, 4u, 16u}) {
    runtime::Runtime::configure(threads);
    for (std::size_t r = 0; r < request_mix().size(); ++r) {
      const Positions got = serve_one(request_mix()[r]);
      expect_bitwise_equal(got, reference_[r], "threads", r);
    }
  }
}

TEST_F(SchedulerDeterminismTest, QueueBitwiseStableUnderStealHeavySchedule) {
  runtime::Runtime::configure(4);
  runtime::Scheduler::set_steal_first(true);
  for (std::size_t r = 0; r < request_mix().size(); ++r) {
    const Positions got = serve_one(request_mix()[r]);
    expect_bitwise_equal(got, reference_[r], "steal-first", r);
  }
}

// The multi-client case: several threads submit their requests at once, so
// component solves from different designs interleave on the shared workers
// (the exact situation the old pool aborted on). Every client must still
// get the serial reference answer, bitwise.
TEST_F(SchedulerDeterminismTest, ConcurrentClientsBitwiseStable) {
  runtime::Runtime::configure(4);
  const std::size_t num = request_mix().size();
  std::vector<Positions> got(num);
  std::atomic<int> ready{0};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      // Client c serves requests c, c+kClients, ... — all clients overlap.
      for (std::size_t r = static_cast<std::size_t>(client); r < num;
           r += kClients)
        got[r] = serve_one(request_mix()[r]);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t r = 0; r < num; ++r)
    expect_bitwise_equal(got[r], reference_[r], "concurrent", r);
}

}  // namespace
}  // namespace mch::service
