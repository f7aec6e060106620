// Pluggable per-component LCP solver layer.
//
// The legalization constraint graph decomposes into independent connected
// components (see legal/partition.h), and the best solver differs by
// component size: a handful of variables is solved exactly by Lemke
// pivoting in microseconds, a constraint-free component (a cell alone
// between two obstacles) is a bound-constrained QP that PSOR handles
// directly, and everything else runs the paper's MMSIM. This header gives
// the three solvers one interface behind a factory so the legalizer's
// SolverPolicy can pick per component.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "lcp/lemke.h"
#include "lcp/mmsim.h"
#include "lcp/psor.h"
#include "lcp/qp.h"
#include "lcp/workspace.h"

namespace mch::lcp {

enum class LcpSolverKind {
  kMmsim,  ///< structured modulus splitting — the production path
  kPsor,   ///< projected SOR on the bound-constrained QP (m = 0 only)
  kLemke,  ///< dense complementary pivoting — exact, small systems only
};

const char* to_string(LcpSolverKind kind);

struct LcpSolveResult {
  Vector x;     ///< primal variables (cell/subcell positions)
  Vector dual;  ///< multipliers of the spacing rows (empty for PSOR)
  /// MMSIM/PSOR iterations, or Lemke pivots.
  std::size_t iterations = 0;
  /// MMSIM scaled-residual checks of the stopping rule (0 for PSOR/Lemke).
  std::size_t residual_checks = 0;
  /// MMSIM active-set polish attempts, and whether one was accepted (see
  /// MmsimSolver::try_polish; 0/false for PSOR/Lemke).
  std::size_t polish_attempts = 0;
  bool polished = false;
  bool converged = false;
  /// True when the solve started from a matching warm-start payload in its
  /// workspace slot (MMSIM's s, PSOR's z). Always false for cold solves and
  /// for Lemke; session/ECO callers aggregate this into a hit rate.
  bool warm_started = false;
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;
  /// MMSIM per-phase timing (zero for PSOR/Lemke and for tiny systems —
  /// see MmsimPhaseTimes).
  MmsimPhaseTimes phase;
};

struct LcpSolverConfig {
  MmsimOptions mmsim;
  PsorOptions psor;
  std::size_t lemke_max_pivots = 20000;
  /// For MMSIM on a sub-problem extracted from a larger system: rows whose
  /// tridiagonal Schur coupling to the preceding row must be dropped
  /// because the rows were not adjacent in the parent ordering (keeps the
  /// sub-solve iterating exactly as the parent would). Not owned; must
  /// outlive the solver. nullptr = no breaks.
  const std::vector<bool>* schur_coupling_breaks = nullptr;
};

/// Uniform interface over the LCP solvers. Instances are bound to one QP
/// (setup happens at construction); the QP must outlive the solver.
class LcpSolver {
 public:
  virtual ~LcpSolver() = default;
  virtual LcpSolverKind kind() const = 0;
  /// Solves the QP's KKT LCP from the zero start.
  virtual LcpSolveResult solve() const = 0;
  /// Workspace-backed solve: iterates in the slot's buffers (no per-solve
  /// allocation once the slot has seen the shape) and stores the final
  /// iterate back as the slot's warm-start payload. When `warm_start` is
  /// true and the slot holds a payload of matching shape, iteration starts
  /// from it — same fixed point, fewer iterations; when false the solve is
  /// bitwise identical to solve(). A null slot forwards to solve(); the
  /// base implementation (Lemke) ignores the slot entirely.
  virtual LcpSolveResult solve(SolverWorkspace::Slot* slot,
                               bool warm_start) const;
};

/// Builds the requested solver for the QP. Throws CheckError when the kind
/// cannot handle the QP's structure (PSOR with m > 0: the saddle KKT matrix
/// has zero diagonal entries, see lcp/psor.h).
std::unique_ptr<LcpSolver> make_lcp_solver(LcpSolverKind kind,
                                           const StructuredQp& qp,
                                           const LcpSolverConfig& config = {});

// ---------------------------------------------------------------------------
// Non-convergence escalation ladder.
//
// A failed solve must never be shipped silently: solve_with_recovery walks
// a fixed ladder of retries until one converges or the ladder is exhausted,
// in which case the caller degrades explicitly (the legalizer clamps the
// component to its row-assigned snap positions and records a SolveFailure).
// The ladder only runs after a failure, so converged solves are untouched —
// their results stay bitwise identical to a recovery-free build.

/// Which ladder rung produced the accepted result.
enum class RecoveryRung {
  kPrimary,    ///< the requested solver converged on the first attempt
  kEscalated,  ///< retry with escalated parameters (θ re-probe, relaxed γ,
               ///< multiplied iteration budget)
  kReference,  ///< the retained stage-by-stage (unfused) MMSIM path
  kPsor,       ///< PSOR fallback (bound-constrained components only)
  kLemke,      ///< exact Lemke pivoting (small systems only)
  kExhausted,  ///< no rung converged — the caller must degrade explicitly
};

const char* to_string(RecoveryRung rung);

struct RecoveryOptions {
  /// Master switch. When false a failed primary solve is returned as
  /// kExhausted immediately (the pre-recovery surface-the-failure path).
  bool enabled = true;
  /// Rung kEscalated: re-derive θ* from the Theorem-2 bound for this
  /// specific system via MmsimSolver::suggest_theta (the probe can only
  /// shrink θ*, never enlarge it — see lcp/mmsim.h).
  bool reprobe_theta = true;
  /// Rung kEscalated: γ for the retries; ≤ 0 keeps the configured γ. The
  /// modulus fixed point is γ-invariant, so relaxing γ to the classic
  /// modulus choice 1.0 changes the iteration trajectory, not the solution.
  double relaxed_gamma = 1.0;
  /// Rung kEscalated: iteration/pivot budget multiplier for every retry.
  std::size_t budget_multiplier = 4;
  /// Rung kPsor applies only to bound-constrained QPs (m = 0) of at most
  /// this many variables — the PSOR adapter materializes K densely.
  std::size_t psor_fallback_max_variables = 1024;
  /// Rung kLemke applies only to systems whose KKT dimension n + m is at
  /// most this — Lemke is exact but dense and cubic.
  std::size_t lemke_fallback_max_size = 256;
  /// Fault injection: treat the first `forced_failures` attempts as failed
  /// even when they converge, forcing the ladder onto later rungs. Set by
  /// tests and by the MCH_FORCE_SOLVER_FAILURE environment variable (see
  /// resolve_recovery_options); 0 in production.
  std::size_t forced_failures = 0;
};

/// Overlays the MCH_FORCE_SOLVER_FAILURE environment variable (a forced-
/// failure count for fault-injection test runs) onto `base`. The env var
/// applies only when base.forced_failures is 0, so explicit test settings
/// win over the ambient ctest variant.
RecoveryOptions resolve_recovery_options(RecoveryOptions base = {});

struct RecoveredSolve {
  /// The accepted result; only meaningful when rung != kExhausted.
  LcpSolveResult result;
  RecoveryRung rung = RecoveryRung::kPrimary;
  std::size_t attempts = 0;           ///< solve attempts, failed + accepted
  std::size_t wasted_iterations = 0;  ///< iterations burned by failed attempts
};

/// Solves the QP with the requested solver and, on failure, walks the
/// escalation ladder: escalated-parameter retry of the primary solver, the
/// unfused MMSIM reference path, then PSOR (m = 0) and Lemke (small
/// systems) where applicable. The slot (optional) is used for buffer reuse
/// and warm starts exactly as LcpSolver::solve; escalated MMSIM retries
/// warm-start from the failed iterate when a slot is present, so a budget
/// exhaustion resumes instead of restarting.
RecoveredSolve solve_with_recovery(LcpSolverKind primary,
                                   const StructuredQp& qp,
                                   const LcpSolverConfig& config,
                                   const RecoveryOptions& recovery,
                                   SolverWorkspace::Slot* slot = nullptr,
                                   bool warm_start = false);

}  // namespace mch::lcp
