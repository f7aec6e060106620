#include "legal/mmsim_legalizer.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "db/legality.h"
#include "lcp/solver.h"
#include "legal/partition.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "util/check.h"
#include "util/log.h"
#include "util/timer.h"

namespace mch::legal {

namespace {

using lcp::MmsimSolver;
using lcp::Vector;
using runtime::parallel_for;

/// Components are heterogeneous units of work; schedule them one at a time.
constexpr std::size_t kGrainComponents = 1;

/// Spacing rows held tight (positive multiplier) in a solution — the
/// active set an accepted polish solved on. Span telemetry only.
std::size_t active_rows(const Vector& dual) {
  return static_cast<std::size_t>(std::count_if(
      dual.begin(), dual.end(), [](double y) { return y > 0.0; }));
}

/// Monolithic oracle path (PartitionMode::kOff). Iterates in workspace
/// slot 0's buffers (always from the cold start, so results are unchanged)
/// to avoid reallocating the iteration state on every outer call.
lcp::MmsimResult solve_monolithic(const LegalizationModel& model,
                                  const lcp::MmsimOptions& mmsim_options,
                                  lcp::SolverWorkspace& workspace,
                                  MmsimLegalizerStats& stats) {
  obs::TraceSpan span("solve.monolithic");
  const MmsimSolver solver(model.qp, mmsim_options);
  workspace.prepare(1);
  lcp::MmsimResult result = solver.solve_in(workspace.slot(0).state);
  span.arg("iterations", result.iterations)
      .arg("checks", result.residual_checks)
      .arg("polish", result.polish_attempts)
      .arg("polished", result.polished)
      .arg("active", active_rows(result.dual))
      .arg("converged", result.converged);
  stats.components_polished = result.polished ? 1 : 0;
  if (!result.converged) {
    MCH_LOG(kWarn) << "MMSIM did not converge in " << result.iterations
                   << " iterations (delta " << result.final_delta << ")";
  }
  stats.phase.accumulate(result.phase);
  return result;
}

lcp::LcpSolverKind pick_solver(std::size_t num_variables,
                               std::size_t num_constraints,
                               const SolverPolicy& policy) {
  const std::size_t size = num_variables + num_constraints;
  if (policy.psor_for_unconstrained && num_constraints == 0)
    return lcp::LcpSolverKind::kPsor;
  if (policy.lemke_max_size > 0 && size <= policy.lemke_max_size)
    return lcp::LcpSolverKind::kLemke;
  return lcp::LcpSolverKind::kMmsim;
}

/// Solver configuration of one component: the MMSIM options, the
/// component's Schur coupling breaks, and a PSOR stopping rule matched to
/// MMSIM's so the tiers agree on accuracy.
lcp::LcpSolverConfig component_config(const lcp::MmsimOptions& mmsim_options,
                                      const ComponentProblem& component) {
  lcp::LcpSolverConfig config;
  config.mmsim = mmsim_options;
  config.schur_coupling_breaks = &component.schur_coupling_breaks;
  config.psor.tolerance = mmsim_options.tolerance;
  config.psor.max_iterations = mmsim_options.max_iterations;
  return config;
}

}  // namespace

ComponentSolveReport solve_components(const db::Design& design,
                                      const LegalizationModel& model,
                                      const std::vector<ComponentSolveJob>& jobs,
                                      const MmsimLegalizerOptions& options,
                                      const lcp::RecoveryOptions& recovery,
                                      Vector& x, MmsimLegalizerStats& stats) {
  const std::size_t num = jobs.size();
  const auto job_size = [&](std::size_t j) {
    return jobs[j].variables->size() + jobs[j].constraints->size();
  };
  // Largest first, so the big extractions never pile up concurrently behind
  // the tail. Each result is keyed by its job, so the order moves only
  // wall-clock time.
  std::vector<std::size_t> order(num);
  for (std::size_t j = 0; j < num; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t sa = job_size(a);
    const std::size_t sb = job_size(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });

  std::vector<lcp::LcpSolverKind> kinds(num);
  std::vector<lcp::RecoveredSolve> recovered(num);
  parallel_for(std::size_t{0}, num, kGrainComponents, [&](std::size_t lo,
                                                          std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t j = order[i];
      const std::vector<index_t>& vars = *jobs[j].variables;
      const std::vector<index_t>& rows = *jobs[j].constraints;
      const ComponentProblem component = [&] {
        obs::TraceSpan span("solve.extract");
        span.arg("component", jobs[j].component_id)
            .arg("vars", vars.size())
            .arg("rows", rows.size());
        return model.component_problem(vars, rows);
      }();
      kinds[j] = pick_solver(vars.size(), rows.size(), options.policy);
      obs::TraceSpan span("solve.component");
      span.arg("component", jobs[j].component_id)
          .arg("vars", vars.size())
          .arg("rows", rows.size())
          .arg("solver", lcp::to_string(kinds[j]));
      // Distinct jobs hold distinct slots (the caller's contract), so the
      // parallel solves never share one.
      recovered[j] = lcp::solve_with_recovery(
          kinds[j], component.qp, component_config(options.mmsim, component),
          recovery, jobs[j].slot, /*warm_start=*/true);
      const lcp::LcpSolveResult& result = recovered[j].result;
      span.arg("iterations", result.iterations)
          .arg("checks", result.residual_checks)
          .arg("polish", result.polish_attempts)
          .arg("polished", result.polished)
          .arg("active", active_rows(result.dual))
          .arg("warm", result.warm_started)
          .arg("rung", lcp::to_string(recovered[j].rung));
      if (recovered[j].rung != lcp::RecoveryRung::kExhausted) {
        // Scatter and drop the local solution before the next extraction.
        // Variable sets are disjoint across jobs (caller's contract), so
        // the shared writes are race-free.
        for (std::size_t v = 0; v < vars.size(); ++v)
          x[vars[v]] = result.x[v];
        recovered[j].result.x = Vector();
        recovered[j].result.dual = Vector();
      }
    }
  });

  // Fold in job order, whatever the schedule.
  ComponentSolveReport report;
  stats.iterations = 0;
  stats.converged = true;
  stats.components_mmsim = stats.components_psor = stats.components_lemke = 0;
  stats.components_polished = 0;
  stats.component_iterations = 0;
  RecoveryStats& rs = stats.recovery;
  const double chip_width = design.chip().width();
  for (std::size_t j = 0; j < num; ++j) {
    const std::vector<index_t>& vars = *jobs[j].variables;
    const lcp::RecoveredSolve& rec = recovered[j];
    switch (kinds[j]) {
      case lcp::LcpSolverKind::kMmsim:
        ++stats.components_mmsim;
        break;
      case lcp::LcpSolverKind::kPsor:
        ++stats.components_psor;
        break;
      case lcp::LcpSolverKind::kLemke:
        ++stats.components_lemke;
        break;
    }
    if (rec.rung != lcp::RecoveryRung::kPrimary) {
      ++rs.component_ladders;
      rs.ladder_attempts += rec.attempts;
      rs.extra_iterations += rec.wasted_iterations;
    }
    if (rec.rung == lcp::RecoveryRung::kExhausted) {
      stats.converged = false;
      SolveFailure failure;
      failure.component = jobs[j].component_id;
      failure.num_variables = vars.size();
      failure.num_constraints = jobs[j].constraints->size();
      failure.attempts = rec.attempts;
      failure.iterations = rec.wasted_iterations;
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const std::size_t g = vars[v];
        const std::size_t cell = model.variables[g].cell;
        const db::Cell& info = design.cells()[cell];
        x[g] = std::clamp(info.gp_x, 0.0,
                          std::max(0.0, chip_width - info.width));
        // Variable order groups a cell's subcells contiguously, so a
        // back()-check is a full dedup.
        if (failure.cells.empty() || failure.cells.back() != cell)
          failure.cells.push_back(cell);
      }
      report.clamped_cells.insert(report.clamped_cells.end(),
                                  failure.cells.begin(),
                                  failure.cells.end());
      rs.clamped_cells += failure.cells.size();
      ++rs.clamped_components;
      MCH_LOG(kWarn) << "solver recovery: " << failure.summary();
      rs.failures.push_back(std::move(failure));
    } else {
      if (rec.rung != lcp::RecoveryRung::kPrimary) ++rs.recovered_components;
      if (rec.result.warm_started) ++report.warm_started;
      stats.iterations = std::max(stats.iterations, rec.result.iterations);
      stats.component_iterations += rec.result.iterations;
      if (rec.result.polished) ++stats.components_polished;
      stats.phase.accumulate(rec.result.phase);
    }
  }
  return report;
}

void write_back(db::Design& design, const LegalizationModel& model,
                const Vector& x,
                const std::vector<std::size_t>& clamped_cells) {
  std::vector<char> clamped;
  if (!clamped_cells.empty()) {
    clamped.assign(design.num_cells(), 0);
    for (const std::size_t c : clamped_cells) clamped[c] = 1;
  }
  const db::Chip& chip = design.chip();
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    db::Cell& cell = design.cells()[c];
    if (cell.fixed || cell.erased) continue;
    double pos = model.cell_x(x, c);
    if (!clamped.empty() && clamped[c] != 0)
      pos = std::clamp(pos, 0.0, std::max(0.0, chip.width() - cell.width));
    cell.x = pos;
    cell.y = chip.row_y(model.base_rows[c]);
  }
}

std::string SolveFailure::summary() const {
  std::ostringstream os;
  os << "component " << component << " (" << num_variables << " variables, "
     << num_constraints << " constraints) exhausted the escalation ladder after " << attempts
     << " attempts / " << iterations << " iterations; " << cells.size()
     << " cell(s) clamped to snap positions";
  return os.str();
}

const char* to_string(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::kTiered:
      return "tiered";
    case PartitionMode::kOff:
      return "off";
  }
  return "unknown";
}

MmsimLegalizerStats mmsim_legalize_continuous(
    db::Design& design, const RowAssignment& base_rows,
    const MmsimLegalizerOptions& options) {
  MmsimLegalizerStats stats;
  const PartitionMode mode = options.partition;

  // Partition state, declared before the model so the streamed build can
  // deposit the partition as a by-product of constraint emission.
  ConstraintPartition partition;
  bool have_partition = false;

  Timer model_timer;
  LegalizationModel built_model;
  if (options.prebuilt_model == nullptr) {
    obs::TraceSpan span("legalize.model_build");
    // The tiered mode folds the union-find into the streaming build: the
    // edges are united as each constraint row is emitted, so the separate
    // whole-model partition walk disappears.
    const bool want_partition = mode != PartitionMode::kOff;
    built_model = build_model(design, base_rows, options.model,
                              want_partition ? &partition : nullptr);
    have_partition = want_partition;
    span.arg("variables", built_model.num_variables())
        .arg("constraints", built_model.qp.num_constraints());
  }
  const LegalizationModel& model =
      options.prebuilt_model != nullptr ? *options.prebuilt_model
                                        : built_model;
  if (options.prebuilt_model != nullptr) {
    // The prebuilt model must describe exactly this design state; the row
    // assignment is the cheapest complete witness of that.
    MCH_CHECK_MSG(model.base_rows == base_rows,
                  "prebuilt model was built for a different row assignment");
    MCH_CHECK(model.cell_first_var.size() == design.num_cells());
  }
  stats.model_seconds = model_timer.seconds();
  stats.num_variables = model.num_variables();
  stats.num_constraints = model.qp.num_constraints();
  obs::sample_rss("model_build");

  lcp::MmsimOptions mmsim_options = options.mmsim;
  stats.simd_level = linalg::simd_level();

  // Wall clock over the entire solve section — auto-θ probe, partitioning,
  // per-solver setup, and the iterations — so solve_seconds means the same
  // thing in every mode. The span mirrors the timer (optional so it can end
  // before the write-back without re-scoping the whole section).
  std::optional<obs::TraceSpan> solve_span;
  solve_span.emplace("legalize.solve");
  solve_span->arg("mode", to_string(mode))
      .arg("simd", linalg::simd_level_name(stats.simd_level));
  Timer solve_timer;
  if (options.auto_theta) {
    // Probe the monolithic system for the Theorem-2 bound. Running the
    // probe globally keeps θ* identical across partition modes (and equal
    // to the pre-decomposition behaviour).
    const MmsimSolver probe(model.qp, mmsim_options);
    mmsim_options.theta = probe.suggest_theta();
  }

  // The workspace arena the solve iterates in. The thread-local default
  // gives buffer reuse across outer calls with zero caller changes; it is
  // per-thread, so concurrent legalizer calls never share an arena: a
  // thread (client or pool worker) runs one legalize call at a time — a
  // nested job blocks its submitter until it completes, it never interleaves
  // other legalize calls onto this thread. The component jobs may execute
  // on any worker (stealable children), but each slot is only ever touched
  // under its component index, so slots stay disjoint.
  static thread_local lcp::SolverWorkspace default_workspace;
  lcp::SolverWorkspace& workspace =
      options.workspace != nullptr ? *options.workspace : default_workspace;
  // Cold start: payloads left by earlier calls describe unrelated problems
  // (component ids are renumbered per design), and warm-starting from them
  // would make the result depend on call history. Only a component's own
  // escalated retry reuses an iterate — its failed attempt of this call.
  workspace.forget_warm_starts();

  lcp::RecoveryOptions recovery =
      lcp::resolve_recovery_options(options.recovery);
  Vector x;
  bool decompose = mode == PartitionMode::kTiered;
  if (!decompose) {
    lcp::MmsimResult result =
        solve_monolithic(model, mmsim_options, workspace, stats);
    // Fault injection: the monolithic solve is the first attempt.
    const bool failed = !result.converged || recovery.forced_failures > 0;
    if (failed && recovery.enabled) {
      // The monolithic system's ladder continues on the decomposition:
      // every component walks its own ladder, degrading exhausted ones to
      // snap clamps.
      ++stats.recovery.component_ladders;
      ++stats.recovery.ladder_attempts;
      stats.recovery.extra_iterations += result.iterations;
      if (recovery.forced_failures > 0) --recovery.forced_failures;
      decompose = true;
    } else {
      stats.iterations = result.iterations;
      stats.converged = result.converged;
      x = std::move(result.x);
    }
  }

  // Partition: streamed out of the model build above under kTiered, handed
  // in by the session, or (kOff's failure path) computed here.
  const ConstraintPartition* used_partition = nullptr;
  ComponentSolveReport solved;
  if (decompose) {
    {
      obs::TraceSpan span("legalize.partition");
      if (!have_partition && options.prebuilt_partition == nullptr) {
        partition = partition_model(model);
        have_partition = true;
      }
      used_partition =
          have_partition ? &partition : options.prebuilt_partition;
      stats.num_components = used_partition->num_components();
      stats.max_component_size = used_partition->max_component_size();
      stats.mean_component_size = used_partition->mean_component_size();
      span.arg("components", used_partition->num_components())
          .arg("max_size", used_partition->max_component_size());
    }
    const ConstraintPartition& components = *used_partition;
    const std::size_t num = components.num_components();
    workspace.prepare(num);
    std::vector<ComponentSolveJob> jobs(num);
    for (std::size_t c = 0; c < num; ++c)
      jobs[c] = {&components.component_variables[c],
                 &components.component_constraints[c], &workspace.slot(c), c};
    MmsimLegalizerOptions solve_options = options;
    solve_options.mmsim = mmsim_options;  // θ* may have been probed
    x.assign(model.num_variables(), 0.0);
    solved = solve_components(design, model, jobs, solve_options, recovery, x,
                              stats);
    // kOff's ladder recovered when every component converged.
    if (mode == PartitionMode::kOff && stats.converged)
      ++stats.recovery.recovered_components;
  }
  stats.solve_seconds = solve_timer.seconds();
  solve_span->arg("iterations", stats.iterations)
      .arg("converged", stats.converged);
  solve_span.reset();
  obs::sample_rss("solve");
  {
    static obs::Counter& solves = obs::counter("legalize.solves");
    solves.add();
    obs::histogram("legalize.solve_seconds").observe(stats.solve_seconds);
    obs::histogram("legalize.model_seconds").observe(stats.model_seconds);
  }

  stats.theta_used = mmsim_options.theta;
  stats.max_mismatch = model.max_mismatch(x);
  stats.objective = model.qp.objective(x);
  {
    obs::TraceSpan span("legalize.write_back");
    span.arg("cells", design.num_cells())
        .arg("clamped", solved.clamped_cells.size());
    write_back(design, model, x, solved.clamped_cells);
  }
  obs::sample_rss("write_back");

  // Gate: whenever recovery engaged or the solve stayed unconverged, audit
  // the written-back result so no failure leaves the legalizer unverified.
  // The result is continuous (pre-snap), so sites are not required yet.
  if (stats.recovery.attempted() || !stats.converged) {
    db::LegalityOptions audit;
    audit.require_site_alignment = false;
    audit.tolerance = options.audit_tolerance;
    const db::LegalityReport report = db::check_legality(design, audit);
    stats.recovery.audit_ran = true;
    stats.recovery.audit_legal = report.legal();
    stats.recovery.audit_summary = report.summary();
    if (!report.legal()) {
      MCH_LOG(kWarn) << "post-recovery legality audit failed: "
                     << report.summary();
    }
  }

  // Session hooks: hand the resident caller the raw solution and the
  // partition (empty when the monolithic path never needed one).
  if (options.solution_out != nullptr) *options.solution_out = std::move(x);
  if (options.partition_out != nullptr) {
    if (used_partition == &partition)
      *options.partition_out = std::move(partition);
    else
      *options.partition_out =
          used_partition != nullptr ? *used_partition : ConstraintPartition{};
  }
  return stats;
}

}  // namespace mch::legal
