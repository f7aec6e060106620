// Tracing/metrics must be pure observers: a legalization run with the
// whole obs subsystem enabled must produce bitwise-identical placements,
// iteration counts, and convergence flags to the same run with it
// disabled, on the default (tiered) solve path. This is the determinism
// contract ALGORITHM.md ¶14 states, and it is what lets the `.trace` ctest
// variants re-run the eval/service suites with MCH_TRACE=1 and still rely
// on every numeric assertion.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "db/design.h"
#include "gen/generator.h"
#include "legal/flow.h"
#include "obs/obs.h"

namespace mch {
namespace {

struct ObsState {
  bool tracing;
  bool metrics;
};

ObsState snapshot_obs() {
  return {obs::tracing_enabled(), obs::metrics_enabled()};
}

void restore_obs(const ObsState& state) {
  obs::set_tracing_enabled(state.tracing);
  obs::set_metrics_enabled(state.metrics);
}

/// Legalizes a fresh copy of `design` with the obs subsystem forced to
/// `enabled`, returning the flattened (x, y) result bits.
std::vector<double> legalize_with_obs(const db::Design& design, bool enabled,
                                      const legal::FlowOptions& options,
                                      legal::FlowResult* result_out) {
  obs::set_tracing_enabled(enabled);
  obs::set_metrics_enabled(enabled);
  db::Design copy = design;
  const legal::FlowResult result = legal::legalize(copy, options);
  if (result_out != nullptr) *result_out = result;
  std::vector<double> coords;
  coords.reserve(copy.num_cells() * 2);
  for (const db::Cell& cell : copy.cells()) {
    coords.push_back(cell.x);
    coords.push_back(cell.y);
  }
  if (enabled) obs::clear_trace();
  return coords;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(ObsIdentityTest, LegalizationIsBitwiseIdenticalWithTracingOnOrOff) {
  const ObsState saved = snapshot_obs();
  gen::GeneratorOptions gen_options;
  gen_options.seed = 7;
  db::Design design = gen::generate_random_design(600, 120, 0.7, gen_options);

  legal::FlowOptions options;
  legal::FlowResult off_result;
  legal::FlowResult on_result;
  const std::vector<double> off =
      legalize_with_obs(design, false, options, &off_result);
  const std::vector<double> on =
      legalize_with_obs(design, true, options, &on_result);
  restore_obs(saved);

  expect_bitwise_equal(off, on);
  EXPECT_EQ(off_result.legal, on_result.legal);
  EXPECT_EQ(off_result.solver.iterations, on_result.solver.iterations);
  EXPECT_EQ(off_result.solver.component_iterations,
            on_result.solver.component_iterations);
  EXPECT_EQ(off_result.solver.converged, on_result.solver.converged);
  EXPECT_EQ(off_result.solver.num_components, on_result.solver.num_components);
}

TEST(ObsIdentityTest, IdentityHoldsAcrossRepeatedTracedRuns) {
  // A traced run must also equal another traced run (no hidden state from
  // the first drain leaking into the second solve).
  const ObsState saved = snapshot_obs();
  gen::GeneratorOptions gen_options;
  gen_options.seed = 11;
  db::Design design = gen::generate_random_design(400, 80, 0.6, gen_options);

  legal::FlowOptions options;
  const std::vector<double> first =
      legalize_with_obs(design, true, options, nullptr);
  const std::vector<double> second =
      legalize_with_obs(design, true, options, nullptr);
  restore_obs(saved);

  expect_bitwise_equal(first, second);
}

}  // namespace
}  // namespace mch
