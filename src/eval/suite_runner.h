// Uniform driver running any legalizer on a design and collecting the
// metrics the paper's tables report. Shared by the benches, the examples,
// and the integration tests so every experiment measures identically.
//
// SuiteRunner adds the coarse-grained layer on top: a whole experiment —
// (benchmark spec, legalizer) jobs — fans out one design per runtime task,
// so the Table 1–3 benches use every core the global Runtime is configured
// with (--threads / MCH_THREADS; see src/runtime/runtime.h). Every job
// generates its own design from its spec, so jobs share no mutable state
// and the reported metrics are identical at any thread count; only the
// wall-clock fields vary with machine load.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "db/design.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "gen/spec.h"
#include "lcp/mmsim.h"
#include "legal/flow.h"
#include "linalg/simd.h"

namespace mch::eval {

enum class Legalizer {
  kMmsim,          ///< the paper's algorithm ("Ours")
  kTetris,         ///< greedy Tetris baseline
  kLocalBase,      ///< DAC'16-style local legalizer
  kLocalImproved,  ///< DAC'16-Imp-style local legalizer
  kMixedAbacus,    ///< ASP-DAC'17-style mixed-height Abacus
};

const char* to_string(Legalizer legalizer);

struct RunResult {
  std::string benchmark;
  Legalizer legalizer = Legalizer::kMmsim;
  bool legal = false;
  std::string legality_summary;
  double seconds = 0.0;  ///< legalization wall time (metrics excluded)

  DisplacementStats disp;
  double gp_hpwl = 0.0;
  double hpwl = 0.0;
  double delta_hpwl = 0.0;  ///< fraction, e.g. 0.0012 = 0.12%

  // Design characteristics (Table 1 columns).
  std::size_t num_cells = 0;
  std::size_t num_single = 0;
  std::size_t num_double = 0;
  double density = 0.0;

  // MMSIM-specific (Table 1 "#I. Cell" and solver diagnostics).
  std::size_t illegal_after_solver = 0;
  std::size_t solver_iterations = 0;
  bool solver_converged = false;

  // Solver wall time and its per-phase breakdown (kernel sweeps, SpMV,
  // Thomas solves, stopping-rule reductions; see lcp::MmsimPhaseTimes).
  // The phase fields stay zero for systems small enough that per-phase
  // profiling is disabled.
  double solver_solve_seconds = 0.0;
  lcp::MmsimPhaseTimes solver_phase;

  // Constraint-graph decomposition diagnostics (zero when the solver ran
  // monolithically; see legal::PartitionMode).
  std::size_t solver_components = 0;
  std::size_t solver_max_component = 0;        ///< largest component n + m
  double solver_mean_component = 0.0;          ///< mean component n + m
  std::size_t solver_component_iterations = 0; ///< summed over components
  /// MMSIM systems that stopped on an active-set polish
  /// (legal::MmsimLegalizerStats::components_polished).
  std::size_t solver_components_polished = 0;

  /// The active SIMD dispatch level.
  linalg::SimdLevel solver_simd = linalg::SimdLevel::kScalar;

  /// Escalation-ladder activity (legal::RecoveryStats): all-zero on the
  /// happy path; failures carries the structured SolveFailure records when
  /// the ladder was exhausted and cells were clamped to snap positions.
  legal::RecoveryStats solver_recovery;

  // Session/incremental diagnostics, filled when the MMSIM run was served
  // by a service::LegalizationSession (MCH_SESSION=1 routes the suite
  // through the resident-session path; incremental requests also report
  // these). Zero for one-shot runs.
  bool via_session = false;
  std::size_t session_dirty_components = 0;
  std::size_t session_reused_components = 0;
  std::size_t session_warm_hits = 0;
  double session_warm_rate = 0.0;  ///< warm hits / dirty components

  /// Process-wide peak RSS (getrusage high-water mark) sampled when this
  /// run finished. Monotone across a suite: later runs inherit earlier
  /// peaks, so per-design attribution needs one process per design (see
  /// bench/scaling_memory.cpp).
  double peak_rss_mb = 0.0;
};

/// Resets the design to its GP positions, runs the legalizer, validates the
/// result and fills in all metrics.
RunResult run_legalizer(db::Design& design, Legalizer which,
                        const legal::FlowOptions& mmsim_options = {});

/// One unit of suite work: generate the spec'd design, run the legalizer.
struct SuiteJob {
  gen::BenchmarkSpec spec;
  Legalizer legalizer = Legalizer::kMmsim;
  legal::FlowOptions options;
};

/// Runs experiment suites with per-design fan-out over the global Runtime.
class SuiteRunner {
 public:
  explicit SuiteRunner(gen::GeneratorOptions generator_options = {})
      : gen_options_(generator_options) {}

  /// Runs every job (concurrently when the Runtime has threads to spare)
  /// and returns the results in job order. When `progress` is non-null one
  /// '.' is written per finished job. Metric fields are independent of the
  /// thread count; the seconds fields are wall-clock and are not.
  std::vector<RunResult> run(const std::vector<SuiteJob>& jobs,
                             std::ostream* progress = nullptr) const;

  /// Cross-product convenience: every spec × every method, in row-major
  /// order (result index = spec_index * methods.size() + method_index).
  std::vector<RunResult> run_cross(
      const std::vector<gen::BenchmarkSpec>& specs,
      const std::vector<Legalizer>& methods,
      const legal::FlowOptions& mmsim_options = {},
      std::ostream* progress = nullptr) const;

 private:
  gen::GeneratorOptions gen_options_;
};

}  // namespace mch::eval
