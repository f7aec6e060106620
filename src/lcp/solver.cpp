#include "lcp/solver.h"

#include <cstdlib>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace mch::lcp {

namespace {

class MmsimLcpSolver final : public LcpSolver {
 public:
  MmsimLcpSolver(const StructuredQp& qp, const LcpSolverConfig& config)
      : solver_(qp, config.mmsim, config.schur_coupling_breaks),
        num_variables_(qp.num_variables()),
        num_constraints_(qp.num_constraints()) {}

  LcpSolverKind kind() const override { return LcpSolverKind::kMmsim; }

  LcpSolveResult solve() const override { return pack(solver_.solve()); }

  LcpSolveResult solve(SolverWorkspace::Slot* slot,
                       bool warm_start) const override {
    if (slot == nullptr) return solve();
    const Vector* s0 = nullptr;
    if (warm_start && slot->warm_variables == num_variables_ &&
        slot->warm_constraints == num_constraints_ &&
        slot->warm_s.size() == num_variables_ + num_constraints_) {
      s0 = &slot->warm_s;
    }
    const bool warm = s0 != nullptr;
    MmsimResult mmsim = solver_.solve_in(slot->state, s0);
    slot->warm_s = std::move(mmsim.s);
    slot->warm_variables = num_variables_;
    slot->warm_constraints = num_constraints_;
    LcpSolveResult result = pack(std::move(mmsim));
    result.warm_started = warm;
    return result;
  }

 private:
  LcpSolveResult pack(MmsimResult mmsim) const {
    LcpSolveResult result;
    result.x = std::move(mmsim.x);
    result.dual = std::move(mmsim.dual);
    result.iterations = mmsim.iterations;
    result.residual_checks = mmsim.residual_checks;
    result.polish_attempts = mmsim.polish_attempts;
    result.polished = mmsim.polished;
    result.converged = mmsim.converged;
    result.setup_seconds = mmsim.setup_seconds;
    result.solve_seconds = mmsim.solve_seconds;
    result.phase = mmsim.phase;
    return result;
  }

  MmsimSolver solver_;
  std::size_t num_variables_ = 0;
  std::size_t num_constraints_ = 0;
};

class PsorLcpSolver final : public LcpSolver {
 public:
  PsorLcpSolver(const StructuredQp& qp, const LcpSolverConfig& config)
      : options_(config.psor) {
    MCH_CHECK_MSG(qp.num_constraints() == 0,
                  "PSOR requires a positive diagonal; the saddle KKT matrix "
                  "of a constrained QP has zero diagonal entries (m = "
                      << qp.num_constraints() << ")");
    Timer timer;
    // Bound-constrained QP: LCP(p, K) with K SPD — PSOR's home turf.
    const std::size_t n = qp.num_variables();
    problem_.A = linalg::DenseMatrix(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) problem_.A(i, j) = qp.K.entry(i, j);
    problem_.q = qp.p;
    setup_seconds_ = timer.seconds();
  }

  LcpSolverKind kind() const override { return LcpSolverKind::kPsor; }

  LcpSolveResult solve() const override {
    Timer timer;
    PsorResult psor = solve_psor(problem_, options_);
    LcpSolveResult result;
    result.x = std::move(psor.z);
    result.iterations = psor.iterations;
    result.converged = psor.converged;
    result.setup_seconds = setup_seconds_;
    result.solve_seconds = timer.seconds();
    return result;
  }

  LcpSolveResult solve(SolverWorkspace::Slot* slot,
                       bool warm_start) const override {
    if (slot == nullptr) return solve();
    Timer timer;
    const std::size_t n = problem_.size();
    const bool warm = warm_start && slot->warm_variables == n &&
                      slot->warm_constraints == 0 && slot->psor_z.size() == n;
    const PsorRunStats stats =
        solve_psor_in(problem_, options_, slot->psor_z, warm);
    slot->warm_variables = n;
    slot->warm_constraints = 0;
    LcpSolveResult result;
    result.x = slot->psor_z;  // buffer stays in the slot for the next solve
    result.iterations = stats.iterations;
    result.converged = stats.converged;
    result.warm_started = warm;
    result.setup_seconds = setup_seconds_;
    result.solve_seconds = timer.seconds();
    return result;
  }

 private:
  PsorOptions options_;
  DenseLcp problem_;
  double setup_seconds_ = 0.0;
};

class LemkeLcpSolver final : public LcpSolver {
 public:
  LemkeLcpSolver(const StructuredQp& qp, const LcpSolverConfig& config)
      : num_variables_(qp.num_variables()),
        max_pivots_(config.lemke_max_pivots) {
    Timer timer;
    problem_ = qp.to_dense_lcp();
    setup_seconds_ = timer.seconds();
  }

  LcpSolverKind kind() const override { return LcpSolverKind::kLemke; }

  LcpSolveResult solve() const override {
    Timer timer;
    LemkeResult lemke = solve_lemke(problem_, max_pivots_);
    LcpSolveResult result;
    const auto split =
        lemke.z.begin() + static_cast<std::ptrdiff_t>(num_variables_);
    result.x.assign(lemke.z.begin(), split);
    result.dual.assign(split, lemke.z.end());
    result.iterations = lemke.pivots;
    result.converged = lemke.status == LemkeStatus::kSolved;
    result.setup_seconds = setup_seconds_;
    result.solve_seconds = timer.seconds();
    return result;
  }

 private:
  std::size_t num_variables_;
  std::size_t max_pivots_;
  DenseLcp problem_;
  double setup_seconds_ = 0.0;
};

}  // namespace

LcpSolveResult LcpSolver::solve(SolverWorkspace::Slot* /*slot*/,
                                bool /*warm_start*/) const {
  return solve();
}

const char* to_string(LcpSolverKind kind) {
  switch (kind) {
    case LcpSolverKind::kMmsim:
      return "mmsim";
    case LcpSolverKind::kPsor:
      return "psor";
    case LcpSolverKind::kLemke:
      return "lemke";
  }
  return "unknown";
}

std::unique_ptr<LcpSolver> make_lcp_solver(LcpSolverKind kind,
                                           const StructuredQp& qp,
                                           const LcpSolverConfig& config) {
  switch (kind) {
    case LcpSolverKind::kMmsim:
      return std::make_unique<MmsimLcpSolver>(qp, config);
    case LcpSolverKind::kPsor:
      return std::make_unique<PsorLcpSolver>(qp, config);
    case LcpSolverKind::kLemke:
      return std::make_unique<LemkeLcpSolver>(qp, config);
  }
  MCH_CHECK_MSG(false, "unknown LcpSolverKind");
  return nullptr;
}

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kPrimary:
      return "primary";
    case RecoveryRung::kEscalated:
      return "escalated";
    case RecoveryRung::kReference:
      return "reference";
    case RecoveryRung::kPsor:
      return "psor";
    case RecoveryRung::kLemke:
      return "lemke";
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

namespace {

/// The rung-kEscalated parameter set: θ* re-probed for this system (the
/// probe is capped at the configured θ*, so it can only help), γ relaxed,
/// and every iteration/pivot budget multiplied.
LcpSolverConfig escalate_config(const StructuredQp& qp,
                                const LcpSolverConfig& config,
                                const RecoveryOptions& recovery) {
  LcpSolverConfig escalated = config;
  const std::size_t mult = std::max<std::size_t>(1, recovery.budget_multiplier);
  if (recovery.reprobe_theta && qp.num_constraints() > 0) {
    const MmsimSolver probe(qp, config.mmsim, config.schur_coupling_breaks);
    escalated.mmsim.theta = probe.suggest_theta();
  }
  if (recovery.relaxed_gamma > 0.0)
    escalated.mmsim.gamma = recovery.relaxed_gamma;
  escalated.mmsim.max_iterations = config.mmsim.max_iterations * mult;
  escalated.psor.max_iterations = config.psor.max_iterations * mult;
  escalated.lemke_max_pivots = config.lemke_max_pivots * mult;
  return escalated;
}

}  // namespace

RecoveredSolve solve_with_recovery(LcpSolverKind primary,
                                   const StructuredQp& qp,
                                   const LcpSolverConfig& config,
                                   const RecoveryOptions& recovery,
                                   SolverWorkspace::Slot* slot,
                                   bool warm_start) {
  RecoveredSolve out;
  const auto attempt = [&](LcpSolverKind kind, const LcpSolverConfig& cfg,
                           RecoveryRung rung, bool warm) {
    obs::counter("recovery.attempts", "rung", to_string(rung)).add();
    LcpSolveResult result = make_lcp_solver(kind, qp, cfg)->solve(slot, warm);
    ++out.attempts;
    const bool forced_fail = out.attempts <= recovery.forced_failures;
    if (result.converged && !forced_fail) {
      if (result.warm_started) {
        static obs::Counter& warm_hits =
            obs::counter("solve.warm_start_hits");
        warm_hits.add();
      }
      obs::counter("recovery.solved", "rung", to_string(rung)).add();
      out.result = std::move(result);
      out.rung = rung;
      return true;
    }
    out.wasted_iterations += result.iterations;
    return false;
  };

  if (attempt(primary, config, RecoveryRung::kPrimary, warm_start)) return out;
  if (!recovery.enabled) {
    out.rung = RecoveryRung::kExhausted;
    return out;
  }

  // Rung 1: the primary solver again with escalated parameters. An MMSIM
  // retry warm-starts from the failed iterate (kept in the slot), so a pure
  // budget exhaustion resumes where it stopped.
  const LcpSolverConfig escalated = escalate_config(qp, config, recovery);
  if (attempt(primary, escalated, RecoveryRung::kEscalated,
              /*warm=*/slot != nullptr))
    return out;

  // Rung 2: the retained stage-by-stage MMSIM reference path, cold-started.
  // The fused kernels are bitwise-contracted to it, so this rung is
  // insurance against the contract being violated, not expected to differ.
  if (primary != LcpSolverKind::kMmsim || escalated.mmsim.fused) {
    LcpSolverConfig reference = escalated;
    reference.mmsim.fused = false;
    if (attempt(LcpSolverKind::kMmsim, reference, RecoveryRung::kReference,
                /*warm=*/false))
      return out;
  }

  // Rung 3: PSOR, applicable to bound-constrained QPs the adapter can
  // afford to densify.
  if (primary != LcpSolverKind::kPsor && qp.num_constraints() == 0 &&
      qp.num_variables() <= recovery.psor_fallback_max_variables) {
    if (attempt(LcpSolverKind::kPsor, escalated, RecoveryRung::kPsor,
                /*warm=*/false))
      return out;
  }

  // Rung 4: exact Lemke pivoting for systems small enough to densify.
  if (primary != LcpSolverKind::kLemke &&
      qp.lcp_size() <= recovery.lemke_fallback_max_size) {
    if (attempt(LcpSolverKind::kLemke, escalated, RecoveryRung::kLemke,
                /*warm=*/false))
      return out;
  }

  out.rung = RecoveryRung::kExhausted;
  {
    static obs::Counter& exhausted = obs::counter("recovery.exhausted");
    exhausted.add();
  }
  return out;
}

}  // namespace mch::lcp
