// Per-component solve with a non-convergence ladder.
//
// MMSIM is the one production solver: Theorem 2 gives the relaxed problem
// (and every connected component of it) a unique optimum, so no other
// method is needed to reach it. Lemke pivoting (lcp/lemke.h) and the
// unfused MMSIM path (MmsimOptions::fused = false) remain only as the
// oracles tests compare the production solve against.
//
// A failed solve must never be shipped silently: solve_with_recovery runs
// the primary MMSIM solve and, when it fails, one escalated retry; when
// that fails too the ladder is exhausted and the caller degrades explicitly
// (the legalizer clamps the component to its row-assigned snap positions
// and records a SolveFailure). The retry only runs after a failure, so
// converged solves are untouched — their results stay bitwise identical to
// a recovery-free build.
#pragma once

#include <cstddef>
#include <vector>

#include "lcp/mmsim.h"
#include "lcp/qp.h"
#include "lcp/workspace.h"

namespace mch::lcp {

struct LcpSolverConfig {
  MmsimOptions mmsim;
  /// For a sub-problem extracted from a larger system: rows whose
  /// tridiagonal Schur coupling to the preceding row must be dropped
  /// because the rows were not adjacent in the parent ordering (keeps the
  /// sub-solve iterating exactly as the parent would). Not owned; must
  /// outlive the solve. nullptr = no breaks.
  const std::vector<bool>* schur_coupling_breaks = nullptr;
};

/// Which ladder rung produced the accepted result.
enum class RecoveryRung {
  kPrimary,    ///< the configured MMSIM solve converged on the first attempt
  kEscalated,  ///< retry with θ* re-probed, γ = 1 and a ×4 iteration
               ///< budget, resumed warm from the failed iterate
  kExhausted,  ///< neither attempt converged — the caller must degrade
};

const char* to_string(RecoveryRung rung);

struct RecoveryOptions {
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
  /// The accepted result; only meaningful when rung != kExhausted. Its s
  /// has been moved into the slot as the warm-start payload.
  MmsimResult result;
  /// True when the accepted solve started from a matching warm-start
  /// payload in its slot. Session/ECO callers aggregate this into a hit
  /// rate.
  bool warm_started = false;
  RecoveryRung rung = RecoveryRung::kPrimary;
  std::size_t attempts = 0;           ///< solve attempts, failed + accepted
  std::size_t wasted_iterations = 0;  ///< iterations burned by failed attempts
};

/// Solves the QP's KKT LCP by MMSIM in the slot's buffers (no per-solve
/// allocation once the slot has seen the shape) and, on failure, runs the
/// escalated retry, which resumes from the failed iterate. When
/// `warm_start` is true and the slot holds a payload of matching shape, the
/// primary attempt starts from it — same fixed point, fewer iterations;
/// when false it is bitwise identical to MmsimSolver::solve(). Every
/// attempt stores its final iterate back as the slot's payload. A null slot
/// runs in a temporary one.
RecoveredSolve solve_with_recovery(const StructuredQp& qp,
                                   const LcpSolverConfig& config,
                                   const RecoveryOptions& recovery,
                                   SolverWorkspace::Slot* slot = nullptr,
                                   bool warm_start = false);

}  // namespace mch::lcp
