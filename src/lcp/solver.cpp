#include "lcp/solver.h"

#include <cstdlib>
#include <utility>

#include "obs/metrics.h"

namespace mch::lcp {

namespace {

/// Rung kEscalated: γ for the retry, the classic modulus choice. The
/// modulus fixed point is γ-invariant, and so is the trajectory in z once
/// the iterate s is scaled by the γ ratio.
constexpr double kEscalatedGamma = 1.0;
/// Rung kEscalated: iteration budget multiplier of the retry.
constexpr std::size_t kEscalatedBudgetMultiplier = 4;

/// The rung-kEscalated configuration: θ* re-derived from the Theorem-2
/// bound for this specific system (the probe is capped at the configured
/// θ*, so it can only shrink it — see lcp/mmsim.h), γ relaxed, and the
/// iteration budget multiplied.
LcpSolverConfig escalate_config(const StructuredQp& qp,
                                const LcpSolverConfig& config) {
  LcpSolverConfig escalated = config;
  if (qp.num_constraints() > 0) {
    const MmsimSolver probe(qp, config.mmsim, config.schur_coupling_breaks);
    escalated.mmsim.theta = probe.suggest_theta();
  }
  escalated.mmsim.gamma = kEscalatedGamma;
  escalated.mmsim.max_iterations =
      config.mmsim.max_iterations * kEscalatedBudgetMultiplier;
  return escalated;
}

}  // namespace

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kPrimary:
      return "primary";
    case RecoveryRung::kEscalated:
      return "escalated";
    case RecoveryRung::kExhausted:
      return "exhausted";
  }
  return "unknown";
}

RecoveryOptions resolve_recovery_options(RecoveryOptions base) {
  if (base.forced_failures == 0) {
    if (const char* env = std::getenv("MCH_FORCE_SOLVER_FAILURE")) {
      char* end = nullptr;
      const unsigned long long value = std::strtoull(env, &end, 10);
      if (end != env)
        base.forced_failures = static_cast<std::size_t>(value);
    }
  }
  return base;
}

RecoveredSolve solve_with_recovery(const StructuredQp& qp,
                                   const LcpSolverConfig& config,
                                   const RecoveryOptions& recovery,
                                   SolverWorkspace::Slot* slot,
                                   bool warm_start) {
  SolverWorkspace::Slot local;
  SolverWorkspace::Slot& buffers = slot != nullptr ? *slot : local;
  const std::size_t n = qp.num_variables();
  const std::size_t m = qp.num_constraints();
  RecoveredSolve out;
  const auto attempt = [&](const LcpSolverConfig& cfg, RecoveryRung rung,
                           bool warm) {
    obs::counter("recovery.attempts", "rung", to_string(rung)).add();
    const bool warm_started = warm && buffers.has_warm(n, m);
    const MmsimSolver solver(qp, cfg.mmsim, cfg.schur_coupling_breaks);
    MmsimResult result = solver.solve_in(
        buffers.state, warm_started ? &buffers.warm_s : nullptr);
    buffers.warm_s = std::move(result.s);
    buffers.warm_variables = n;
    buffers.warm_constraints = m;
    ++out.attempts;
    const bool forced_fail = out.attempts <= recovery.forced_failures;
    if (result.converged && !forced_fail) {
      if (warm_started) {
        static obs::Counter& warm_hits =
            obs::counter("solve.warm_start_hits");
        warm_hits.add();
      }
      obs::counter("recovery.solved", "rung", to_string(rung)).add();
      out.result = std::move(result);
      out.warm_started = warm_started;
      out.rung = rung;
      return true;
    }
    out.wasted_iterations += result.iterations;
    return false;
  };

  if (attempt(config, RecoveryRung::kPrimary, warm_start)) return out;
  // The escalated retry warm-starts from the failed iterate the primary
  // attempt left in the slot, so a pure budget exhaustion resumes where it
  // stopped. The modulus iterate s = γ(z − w)/2 scales with γ, so it is
  // rescaled to the retry's γ: unscaled, it would stand for a z scaled by
  // γ_primary/γ_retry, and the retry would restart from that wrong point.
  const LcpSolverConfig escalated = escalate_config(qp, config);
  const double rescale = escalated.mmsim.gamma / config.mmsim.gamma;
  for (double& v : buffers.warm_s) v *= rescale;
  if (attempt(escalated, RecoveryRung::kEscalated, /*warm=*/true)) return out;

  out.rung = RecoveryRung::kExhausted;
  {
    static obs::Counter& exhausted = obs::counter("recovery.exhausted");
    exhausted.add();
  }
  return out;
}

}  // namespace mch::lcp
