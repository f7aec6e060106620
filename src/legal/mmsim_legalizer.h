// MMSIM legalization step: model build + Algorithm 1 + subcell restore.
//
// Produces the continuous, row-aligned placement that is optimal for the
// relaxed problem (13); the Tetris-like allocation then snaps it to sites
// and repairs right-boundary spills. Split from the flow driver so the
// optimality experiments (§5.3) can run the solver in isolation.
//
// The solve decomposes over the connected components of the constraint
// graph (legal/partition.h): obstacles break the row chains, and rows that
// share no tall cell are independent, so real designs fall apart into many
// small sub-problems. One solver, one production path and one oracle:
// every system, whatever its size or shape, is solved by the paper's MMSIM
// (Theorem 2 gives each a unique optimum), through the two-rung recovery
// ladder of lcp/solver.h.
//
//   * kTiered — the default: one MMSIM solve per component with
//               independent termination — each component stops as soon as
//               *it* converges, which is where the decomposition's
//               iteration savings come from. Every component runs through
//               solve_components, the one component driver the session's
//               ECO path uses too: a plain parallel_for over the jobs,
//               largest first, each extracting, solving (through the
//               per-component recovery ladder) and releasing its own
//               sub-problem. Every solve starts cold, so the result is a
//               pure function of (design, options): bitwise identical at
//               any thread count, schedule or caller.
//   * kOff    — the paper-literal monolithic solve, kept as the oracle the
//               tiered result is checked against (to solver tolerance). When
//               it fails, it partitions and hands every component to the
//               same solve_components ladder.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "db/design.h"
#include "lcp/mmsim.h"
#include "lcp/solver.h"
#include "lcp/workspace.h"
#include "linalg/simd.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"

namespace mch::legal {

/// How the legalizer decomposes (or not) the relaxed LCP.
enum class PartitionMode {
  kTiered,  ///< per-component MMSIM solves, independent termination
  kOff,     ///< monolithic solve — the oracle
};

const char* to_string(PartitionMode mode);

/// Machine-readable record of one component that exhausted both rungs of
/// its recovery ladder. The affected cells were clamped to their
/// row-assigned snap positions instead of receiving an unconverged iterate;
/// downstream consumers decide whether to re-run, reject, or ship with the
/// documented degradation.
struct SolveFailure {
  std::size_t component = 0;  ///< component index within the partition
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  std::size_t attempts = 0;    ///< ladder attempts before giving up
  std::size_t iterations = 0;  ///< iterations burned across those attempts
  std::vector<std::size_t> cells;  ///< cells clamped to snap positions

  /// One-line human-readable form (cells listed by count, not id).
  std::string summary() const;
};

/// What the escalation ladder did during one legalization solve. All-zero
/// (attempted() == false) on the happy path: recovery only engages after a
/// failure, so converged runs stay bitwise identical to a recovery-free
/// build.
struct RecoveryStats {
  /// Ladders that went past their primary rung: components whose primary
  /// solve failed, plus (under kOff) the monolithic system when its failure
  /// sent the solve down to the per-component ladders.
  std::size_t component_ladders = 0;
  std::size_t ladder_attempts = 0;  ///< total attempts across those ladders
  std::size_t recovered_components = 0;  ///< ladder successes past the
                                         ///< primary rung (same ladders)
  std::size_t clamped_components = 0;    ///< ladders exhausted → snap-clamped
  std::size_t clamped_cells = 0;
  std::size_t extra_iterations = 0;  ///< iterations burned by failed attempts
  /// Post-write-back legality audit (pre-snap tolerances: sites not yet
  /// required). Runs whenever recovery engaged or the solve stayed
  /// unconverged, so no failure leaves the legalizer unverified.
  bool audit_ran = false;
  bool audit_legal = false;
  std::string audit_summary;
  /// Structured record per clamped component.
  std::vector<SolveFailure> failures;

  bool attempted() const { return component_ladders > 0; }
};

struct MmsimLegalizerOptions {
  ModelOptions model;        ///< λ penalty (paper: 1000)
  lcp::MmsimOptions mmsim;   ///< β*, θ*, γ, tolerance (paper: 0.5/0.5)
  /// When true, θ* is re-derived from the Theorem-2 bound via power
  /// iteration instead of using options.mmsim.theta. The probe runs on the
  /// monolithic system, so the derived θ* is identical in both modes.
  bool auto_theta = false;
  PartitionMode partition = PartitionMode::kTiered;
  /// Solver scratch arena reused across components and across calls (see
  /// lcp/workspace.h). Not owned; must outlive the call. When null the
  /// legalizer uses a thread-local default arena, so repeated calls from
  /// the same thread still reuse buffers. Either way the call drops the
  /// arena's warm-start payloads on entry: the arena is for buffer reuse,
  /// and every solve of a call starts cold.
  lcp::SolverWorkspace* workspace = nullptr;
  /// Fault injection into the per-component recovery ladder (see
  /// lcp/solver.h). forced_failures is additionally resolved from
  /// MCH_FORCE_SOLVER_FAILURE for the fault-injection ctest variant.
  lcp::RecoveryOptions recovery;
  /// Absolute tolerance of the post-recovery legality audit. The audited
  /// result is continuous (pre-snap), so the tolerance must absorb solver
  /// tolerance and residual λ-mismatch; 1e-2 is far below a site width.
  double audit_tolerance = 1e-2;

  // Session hooks (src/service/): a resident session builds the model once
  // per request itself and keeps the solution/partition across requests.

  /// When set, the legalizer uses this model instead of building its own.
  /// Must have been built from the same design and the same base_rows
  /// (checked); not owned, must outlive the call.
  const LegalizationModel* prebuilt_model = nullptr;
  /// Optional partition of prebuilt_model (e.g. streamed out of
  /// build_model's partition_out). Lets the legalizer skip its own
  /// union-find pass; must match prebuilt_model. Not owned.
  const ConstraintPartition* prebuilt_partition = nullptr;
  /// When set, receives the continuous per-variable solution (the global x
  /// the restored cell positions are means of).
  lcp::Vector* solution_out = nullptr;
  /// When set, receives the constraint partition if the solve computed one
  /// (always under kTiered; under kOff only when recovery had to
  /// decompose). Left empty otherwise.
  ConstraintPartition* partition_out = nullptr;
};

struct MmsimLegalizerStats {
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  /// kOff: global MMSIM iterations. kTiered: the maximum over the
  /// components that did not exhaust their ladder — the parallel critical
  /// path.
  std::size_t iterations = 0;
  bool converged = false;
  double max_mismatch = 0.0;     ///< worst subcell disagreement before restore
  double theta_used = 0.0;
  double model_seconds = 0.0;
  /// Wall-clock time of the whole solve section, including solver setup
  /// and the auto-θ probe when enabled.
  double solve_seconds = 0.0;
  double objective = 0.0;        ///< relaxed QP objective at the solution

  // Decomposition stats (zero when the monolithic path ran).
  std::size_t num_components = 0;
  std::size_t max_component_size = 0;    ///< largest per-component n + m
  double mean_component_size = 0.0;
  std::size_t components_mmsim = 0;      ///< components solved (all MMSIM)
  /// Always 0: MMSIM is the only production solver. Kept because reports
  /// (the perfbench per-layer table) still read them.
  std::size_t components_psor = 0;
  std::size_t components_lemke = 0;
  /// MMSIM systems whose accepted solve stopped on an active-set polish
  /// (lcp::MmsimSolver::try_polish). Under kOff the monolithic system
  /// counts as one.
  std::size_t components_polished = 0;
  /// Total MMSIM iterations summed over components. Under
  /// kTiered this is the decomposition's headline saving: components stop
  /// independently instead of all running to the slowest one's count.
  std::size_t component_iterations = 0;
  /// Active SIMD dispatch level during the solve.
  linalg::SimdLevel simd_level = linalg::SimdLevel::kScalar;
  /// Per-phase MMSIM solve time summed over components in component order
  /// (deterministic). Only systems of ≥ 256 LCP variables contribute — see
  /// lcp::MmsimPhaseTimes — so the sum can be well below solve_seconds.
  lcp::MmsimPhaseTimes phase;

  /// Escalation-ladder activity. attempted() == false on the happy path;
  /// clamped_components > 0 (with per-failure records in failures) when the
  /// ladder was exhausted somewhere — in that case converged is false and
  /// the affected cells hold snap positions, never an unconverged iterate.
  RecoveryStats recovery;
};

/// Solves the relaxed problem for the given row assignment and writes the
/// restored positions (continuous x, row-aligned y) into the design.
MmsimLegalizerStats mmsim_legalize_continuous(
    db::Design& design, const RowAssignment& base_rows,
    const MmsimLegalizerOptions& options = {});

/// One component-solve job for solve_components: the component's sorted
/// variable and constraint index lists (typically pointers straight into a
/// ConstraintPartition — the sub-problem itself is extracted inside the
/// solve, one live extraction per worker), the workspace slot that backs
/// (and may warm-start) it, and the component's id in its partition for
/// failure records.
struct ComponentSolveJob {
  const std::vector<index_t>* variables = nullptr;
  const std::vector<index_t>* constraints = nullptr;
  lcp::SolverWorkspace::Slot* slot = nullptr;
  std::size_t component_id = 0;
};

/// What solve_components hands back beyond the figures it writes into
/// MmsimLegalizerStats.
struct ComponentSolveReport {
  /// Jobs whose accepted solve actually started from a matching warm-start
  /// payload in its slot.
  std::size_t warm_started = 0;
  /// Cells of exhausted components; their entries in x hold snap positions
  /// (gp_x clamped into the chip), and write_back clamps their restored
  /// positions the same way.
  std::vector<std::size_t> clamped_cells;
};

/// The one component driver: solves an explicit set of components of
/// `model` — each by MMSIM through the per-component recovery ladder — and
/// scatters every primal solution into the global vector `x` (entries of
/// other components are left untouched). Jobs run
/// as a plain parallel_for, largest first; each extracts, solves, scatters
/// and releases its sub-problem inside its worker, so at most one
/// extraction per pool thread is live at a time. Each slot warm-starts its
/// solve when it holds a matching-shape payload, and exhausted ladders
/// degrade to snap clamps. Distinct jobs must hold distinct slots and
/// disjoint variable sets.
///
/// Writes this call's figures into `stats` — iterations (the maximum over
/// jobs: the critical path), converged, the component counts,
/// components_polished and component_iterations — and adds its phase times
/// and ladder activity to what `stats.phase` / `stats.recovery` already
/// hold. The one-shot legalizer runs every component through it; the
/// session runs the dirty ones.
ComponentSolveReport solve_components(const db::Design& design,
                                      const LegalizationModel& model,
                                      const std::vector<ComponentSolveJob>& jobs,
                                      const MmsimLegalizerOptions& options,
                                      const lcp::RecoveryOptions& recovery,
                                      lcp::Vector& x,
                                      MmsimLegalizerStats& stats);

/// Writes the solution `x` of `model` back into the design: every live
/// movable cell takes its subcell mean as x — clamped into the chip for the
/// cells in `clamped_cells` — and the y of its assigned base row.
void write_back(db::Design& design, const LegalizationModel& model,
                const lcp::Vector& x,
                const std::vector<std::size_t>& clamped_cells);

}  // namespace mch::legal
