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

/// Lane-pipelined component driver with double-buffered extraction — the
/// DMA double-buffer analogue: each lane stages the *next* component's
/// gather tables (extract) before the *current* component's solve (consume)
/// occupies it, so a lane's solve always finds its sub-problem resident and
/// extraction overlaps the other lanes' solves. At most two extractions are
/// live per lane, keeping the streamed drivers' bounded high-water mark.
///
/// extract(i) must be pure (it may run in any order, on any thread) and
/// consume(i, problem) must write only i-keyed state — under those rules
/// the results are schedule-independent exactly like a plain parallel_for.
/// Lanes claim component indices from a shared cursor; with staging
/// disabled (MCH_SCHED_STAGING=0 / options) the legacy extract-then-consume
/// parallel_for runs instead.
template <typename ExtractFn, typename ConsumeFn>
void staged_component_loop(std::size_t num, bool staged, ExtractFn&& extract,
                           ConsumeFn&& consume) {
  if (!staged || num < 2) {
    parallel_for(std::size_t{0}, num, kGrainComponents,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     consume(i, extract(i));
                 });
    return;
  }
  static obs::Counter& staged_extractions =
      obs::counter("sched.staged_extractions");
  const std::size_t lanes = std::min<std::size_t>(
      runtime::Runtime::instance().threads(), num);
  std::atomic<std::size_t> cursor{0};
  parallel_for(std::size_t{0}, lanes, 1, [&](std::size_t, std::size_t) {
    std::size_t current = cursor.fetch_add(1, std::memory_order_relaxed);
    if (current >= num) return;
    ComponentProblem buffer = extract(current);
    for (;;) {
      const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      std::optional<ComponentProblem> prefetched;
      if (next < num) {
        prefetched.emplace(extract(next));
        staged_extractions.add();
      }
      consume(current, std::move(buffer));
      if (next >= num) return;
      buffer = std::move(*prefetched);
      current = next;
    }
  });
}

/// Spacing rows held tight (positive multiplier) in a solution — the
/// active set an accepted polish solved on. Span telemetry only.
std::size_t active_rows(const Vector& dual) {
  return static_cast<std::size_t>(std::count_if(
      dual.begin(), dual.end(), [](double y) { return y > 0.0; }));
}

/// What every solve driver produces; one shared epilogue consumes it.
struct SolveOutcome {
  Vector x;  ///< global primal solution
  std::size_t iterations = 0;
  bool converged = false;
  /// Cells whose component exhausted the recovery ladder: their slots in x
  /// hold row-assigned snap positions, and the write-back clamps them into
  /// the chip instead of trusting an unconverged iterate.
  std::vector<std::size_t> clamped_cells;
};

/// Monolithic oracle path (PartitionMode::kOff). Iterates in workspace
/// slot 0's buffers (always from the cold start, so results are unchanged)
/// to avoid reallocating the iteration state on every outer call.
SolveOutcome solve_monolithic(const LegalizationModel& model,
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
  SolveOutcome outcome;
  outcome.x = std::move(result.x);
  outcome.iterations = result.iterations;
  outcome.converged = result.converged;
  return outcome;
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

/// Tiered driver (PartitionMode::kTiered): each component gets the solver
/// its size calls for and terminates independently — the sum of iterations
/// across components is what the decomposition saves versus running every
/// component to the globally slowest count. Each worker extracts one
/// component sub-problem, solves it, scatters its primal part into the
/// global x, and releases it before taking the next. Components are visited
/// largest-first so the big extractions never pile up concurrently behind
/// the tail — the solve's high-water mark holds at most one sub-problem per
/// pool thread. Each result depends only on the component's QP and its
/// workspace slot (keyed by component id), and the stats fold in
/// component-id order regardless of schedule.
SolveOutcome solve_tiered(const LegalizationModel& model,
                          const ConstraintPartition& partition,
                          const lcp::MmsimOptions& mmsim_options,
                          const SolverPolicy& policy, bool staged,
                          lcp::SolverWorkspace& workspace,
                          MmsimLegalizerStats& stats) {
  const std::size_t num = partition.num_components();
  workspace.prepare(num);
  // Zeroed on entry so an escalated-retry pass overwrites the counters of
  // the failed pass instead of double-counting.
  stats.components_mmsim = stats.components_psor = stats.components_lemke = 0;
  stats.components_polished = 0;
  stats.component_iterations = 0;

  std::vector<std::size_t> order(num);
  for (std::size_t c = 0; c < num; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t sa = partition.component_size(a);
    const std::size_t sb = partition.component_size(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });

  SolveOutcome outcome;
  outcome.converged = true;
  outcome.x.assign(model.num_variables(), 0.0);
  std::vector<lcp::LcpSolverKind> kinds(num);
  std::vector<lcp::LcpSolveResult> results(num);
  staged_component_loop(
      num, staged && runtime::Scheduler::staging_enabled(),
      [&](std::size_t i) {
        const std::size_t c = order[i];
        obs::TraceSpan span("solve.extract");
        span.arg("component", c)
            .arg("vars", partition.component_variables[c].size())
            .arg("rows", partition.component_constraints[c].size());
        return model.component_problem(partition.component_variables[c],
                                       partition.component_constraints[c]);
      },
      [&](std::size_t i, ComponentProblem component) {
        const std::size_t c = order[i];
        const auto& vars = partition.component_variables[c];
        const auto& rows = partition.component_constraints[c];
        kinds[c] = pick_solver(vars.size(), rows.size(), policy);
        obs::TraceSpan span("solve.component");
        span.arg("component", c)
            .arg("vars", vars.size())
            .arg("rows", rows.size())
            .arg("solver", lcp::to_string(kinds[c]));
        // Warm-starts only from a failed pass of this same call (the
        // escalated retry): the call dropped every older payload on entry.
        // Slots are distinct per component, so the solves never share one.
        results[c] =
            lcp::make_lcp_solver(kinds[c], component.qp,
                                 component_config(mmsim_options, component))
                ->solve(&workspace.slot(c), /*warm_start=*/true);
        span.arg("iterations", results[c].iterations)
            .arg("checks", results[c].residual_checks)
            .arg("polish", results[c].polish_attempts)
            .arg("polished", results[c].polished)
            .arg("active", active_rows(results[c].dual))
            .arg("warm", results[c].warm_started);
        // Scatter and drop the local solution before the next extraction.
        // Variable sets are disjoint across components, so the shared
        // writes are race-free.
        for (std::size_t v = 0; v < vars.size(); ++v)
          outcome.x[vars[v]] = results[c].x[v];
        results[c].x = Vector();
        results[c].dual = Vector();
      });

  for (std::size_t c = 0; c < num; ++c) {
    switch (kinds[c]) {
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
    stats.component_iterations += results[c].iterations;
    if (results[c].polished) ++stats.components_polished;
    stats.phase.accumulate(results[c].phase);
    outcome.iterations = std::max(outcome.iterations, results[c].iterations);
    if (!results[c].converged) {
      outcome.converged = false;
      MCH_LOG(kWarn) << "component " << c << " (" << lcp::to_string(kinds[c])
                     << ", size "
                     << partition.component_variables[c].size() +
                            partition.component_constraints[c].size()
                     << ") did not converge in " << results[c].iterations
                     << " iterations";
    }
  }
  return outcome;
}

/// Rungs 2+ of the escalation ladder: every component is routed through the
/// per-component solver ladder (lcp::solve_with_recovery), so components
/// that already converge pass straight through their primary solver while
/// the failing ones walk escalated MMSIM → reference MMSIM → PSOR → Lemke.
/// Components whose ladder is exhausted degrade explicitly — their cells
/// are set to row-assigned snap positions (gp_x clamped into the chip) and
/// recorded as structured SolveFailures — never shipped as an unconverged
/// iterate. Thin wrapper over solve_components with one job per component;
/// sub-problems are extracted one worker at a time inside the solve.
SolveOutcome recover_components(const db::Design& design,
                                const LegalizationModel& model,
                                const ConstraintPartition& partition,
                                const lcp::MmsimOptions& mmsim_options,
                                const SolverPolicy& policy,
                                const lcp::RecoveryOptions& recovery,
                                lcp::SolverWorkspace& workspace,
                                MmsimLegalizerStats& stats) {
  const std::size_t num = partition.num_components();
  workspace.prepare(num);
  std::vector<ComponentSolveJob> jobs(num);
  for (std::size_t c = 0; c < num; ++c)
    jobs[c] = {&partition.component_variables[c],
               &partition.component_constraints[c], &workspace.slot(c), c};

  MmsimLegalizerOptions solve_options;
  solve_options.mmsim = mmsim_options;
  solve_options.policy = policy;

  SolveOutcome outcome;
  outcome.x.assign(model.num_variables(), 0.0);
  ComponentSolveReport report = solve_components(
      design, model, jobs, solve_options, recovery, outcome.x);
  outcome.converged = report.converged;
  outcome.iterations = report.iterations;
  outcome.clamped_cells = std::move(report.clamped_cells);

  stats.phase.accumulate(report.phase);
  stats.components_polished = report.components_polished;
  // Historical semantics: every component counts as routed through the
  // ladder here (the report itself only counts beyond-primary ladders).
  stats.recovery.component_ladders += num;
  stats.recovery.ladder_attempts += report.recovery.ladder_attempts;
  stats.recovery.extra_iterations += report.recovery.extra_iterations;
  stats.recovery.recovered_components += report.recovery.recovered_components;
  stats.recovery.clamped_components += report.recovery.clamped_components;
  stats.recovery.clamped_cells += report.recovery.clamped_cells;
  for (SolveFailure& failure : report.recovery.failures)
    stats.recovery.failures.push_back(std::move(failure));
  return outcome;
}

}  // namespace

ComponentSolveReport solve_components(const db::Design& design,
                                      const LegalizationModel& model,
                                      const std::vector<ComponentSolveJob>& jobs,
                                      const MmsimLegalizerOptions& options,
                                      const lcp::RecoveryOptions& recovery,
                                      Vector& x) {
  const std::size_t num = jobs.size();
  std::vector<lcp::LcpSolverKind> kinds(num);
  std::vector<lcp::RecoveredSolve> recovered(num);
  staged_component_loop(
      num,
      options.staged_extraction && runtime::Scheduler::staging_enabled(),
      [&](std::size_t c) {
        obs::TraceSpan span("solve.extract");
        span.arg("component", jobs[c].component_id)
            .arg("vars", jobs[c].variables->size())
            .arg("rows", jobs[c].constraints->size());
        return model.component_problem(*jobs[c].variables,
                                       *jobs[c].constraints);
      },
      [&](std::size_t c, ComponentProblem component) {
        const auto& vars = *jobs[c].variables;
        kinds[c] = pick_solver(vars.size(), jobs[c].constraints->size(),
                               options.policy);
        obs::TraceSpan span("solve.component");
        span.arg("component", jobs[c].component_id)
            .arg("vars", vars.size())
            .arg("rows", jobs[c].constraints->size())
            .arg("solver", lcp::to_string(kinds[c]));
        // Extract, solve, scatter, release: at most two sub-problems per
        // lane are ever live (the staged one plus the solving one),
        // whatever the job count. Distinct jobs must hold distinct slots
        // (the caller's contract), so the parallel solves never share one.
        recovered[c] = lcp::solve_with_recovery(
            kinds[c], component.qp, component_config(options.mmsim, component),
            recovery, jobs[c].slot, /*warm_start=*/true);
        span.arg("iterations", recovered[c].result.iterations)
            .arg("checks", recovered[c].result.residual_checks)
            .arg("polish", recovered[c].result.polish_attempts)
            .arg("polished", recovered[c].result.polished)
            .arg("active", active_rows(recovered[c].result.dual))
            .arg("rung", lcp::to_string(recovered[c].rung));
        if (recovered[c].rung != lcp::RecoveryRung::kExhausted) {
          // Variable sets are disjoint across jobs (caller's contract),
          // so the shared writes are race-free.
          for (std::size_t v = 0; v < vars.size(); ++v)
            x[vars[v]] = recovered[c].result.x[v];
          recovered[c].result.x = Vector();
          recovered[c].result.dual = Vector();
        }
      });

  ComponentSolveReport report;
  const double chip_width = design.chip().width();
  for (std::size_t c = 0; c < num; ++c) {
    const std::vector<index_t>& vars = *jobs[c].variables;
    const lcp::RecoveredSolve& rec = recovered[c];
    switch (kinds[c]) {
      case lcp::LcpSolverKind::kMmsim:
        ++report.components_mmsim;
        break;
      case lcp::LcpSolverKind::kPsor:
        ++report.components_psor;
        break;
      case lcp::LcpSolverKind::kLemke:
        ++report.components_lemke;
        break;
    }
    report.recovery.ladder_attempts += rec.attempts;
    report.recovery.extra_iterations += rec.wasted_iterations;
    if (rec.attempts > 1 || rec.rung != lcp::RecoveryRung::kPrimary)
      ++report.recovery.component_ladders;
    if (rec.rung == lcp::RecoveryRung::kExhausted) {
      report.converged = false;
      SolveFailure failure;
      failure.component = jobs[c].component_id;
      failure.num_variables = vars.size();
      failure.num_constraints = jobs[c].constraints->size();
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
      report.recovery.clamped_cells += failure.cells.size();
      ++report.recovery.clamped_components;
      MCH_LOG(kWarn) << "solver recovery: " << failure.summary();
      report.recovery.failures.push_back(std::move(failure));
    } else {
      if (rec.rung != lcp::RecoveryRung::kPrimary)
        ++report.recovery.recovered_components;
      if (rec.result.warm_started) ++report.warm_started;
      // x was scattered inside the worker, before the sub-problem was
      // released.
      report.iterations = std::max(report.iterations, rec.result.iterations);
      report.component_iterations += rec.result.iterations;
      if (rec.result.polished) ++report.components_polished;
      report.phase.accumulate(rec.result.phase);
    }
  }
  return report;
}

std::string SolveFailure::summary() const {
  std::ostringstream os;
  if (component == kMonolithic)
    os << "monolithic system";
  else
    os << "component " << component;
  os << " (" << num_variables << " variables, " << num_constraints
     << " constraints) exhausted the escalation ladder after " << attempts
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

  // The workspace arena the solve drivers iterate in. The thread-local
  // default gives buffer reuse across outer calls with zero caller changes;
  // it is per-thread, so concurrent legalizer calls never share an arena: a
  // thread (client or pool worker) runs one legalize call at a time — a
  // nested job blocks its submitter until it completes, it never interleaves
  // other legalize calls onto this thread. The drivers' own parallel chunks
  // may execute on any worker (stealable children), but each slot is only
  // ever touched under its component index, so slots stay disjoint.
  static thread_local lcp::SolverWorkspace default_workspace;
  lcp::SolverWorkspace& workspace =
      options.workspace != nullptr ? *options.workspace : default_workspace;
  // Cold start: payloads left by earlier calls describe unrelated problems
  // (component ids are renumbered per design), and warm-starting from them
  // would make the result depend on call history. Only the escalated retry
  // below reuses an iterate — the failed pass of this same call.
  workspace.forget_warm_starts();

  // Partition lazily: the tiered mode needs it up front (streamed out of
  // the model build above, or handed in by the session), the monolithic
  // mode only on the recovery path.
  bool partitioned = false;
  const auto ensure_partitioned = [&] {
    if (partitioned) return;
    obs::TraceSpan span("legalize.partition");
    if (!have_partition) {
      if (options.prebuilt_partition != nullptr)
        partition = *options.prebuilt_partition;
      else
        partition = partition_model(model);
      have_partition = true;
    }
    stats.num_components = partition.num_components();
    stats.max_component_size = partition.max_component_size();
    stats.mean_component_size = partition.mean_component_size();
    partitioned = true;
    span.arg("components", partition.num_components())
        .arg("max_size", partition.max_component_size());
  };

  const lcp::RecoveryOptions recovery =
      lcp::resolve_recovery_options(options.recovery);
  std::size_t attempts = 0;
  const auto run_mode = [&](const lcp::MmsimOptions& mo) {
    SolveOutcome o;
    if (mode == PartitionMode::kOff) {
      o = solve_monolithic(model, mo, workspace, stats);
    } else {
      ensure_partitioned();
      o = solve_tiered(model, partition, mo, options.policy,
                       options.staged_extraction, workspace, stats);
    }
    ++attempts;
    // Fault injection: the mode-level solve and its escalated retry consume
    // the first forced failures; the remainder is passed down to the
    // per-component ladders.
    if (recovery.enabled && attempts <= recovery.forced_failures)
      o.converged = false;
    return o;
  };

  SolveOutcome outcome = run_mode(mmsim_options);
  double theta_used = mmsim_options.theta;

  if (!outcome.converged && recovery.enabled) {
    // Rung 1 (whole solve): escalated parameters. θ* is re-probed on the
    // monolithic system, so both modes retry with the same θ*.
    ++stats.recovery.escalations;
    obs::counter("recovery.escalations").add();
    stats.recovery.extra_iterations += outcome.iterations;
    lcp::MmsimOptions escalated = mmsim_options;
    if (recovery.reprobe_theta && model.qp.num_constraints() > 0) {
      const MmsimSolver probe(model.qp, mmsim_options);
      escalated.theta = probe.suggest_theta();
    }
    if (recovery.relaxed_gamma > 0.0) escalated.gamma = recovery.relaxed_gamma;
    escalated.max_iterations =
        mmsim_options.max_iterations *
        std::max<std::size_t>(1, recovery.budget_multiplier);
    SolveOutcome retry = run_mode(escalated);
    if (retry.converged) {
      outcome = std::move(retry);
      theta_used = escalated.theta;
    } else {
      // Rungs 2+: decompose (if not already) and walk the per-component
      // solver ladder, degrading exhausted components to snap clamps.
      stats.recovery.extra_iterations += retry.iterations;
      ensure_partitioned();
      lcp::RecoveryOptions ladder = recovery;
      ladder.forced_failures = recovery.forced_failures > attempts
                                   ? recovery.forced_failures - attempts
                                   : 0;
      outcome = recover_components(design, model, partition, mmsim_options,
                                   options.policy, ladder, workspace, stats);
      theta_used = escalated.theta;
    }
  }
  stats.solve_seconds = solve_timer.seconds();
  solve_span->arg("iterations", outcome.iterations)
      .arg("converged", outcome.converged);
  solve_span.reset();
  obs::sample_rss("solve");
  {
    static obs::Counter& solves = obs::counter("legalize.solves");
    solves.add();
    obs::histogram("legalize.solve_seconds").observe(stats.solve_seconds);
    obs::histogram("legalize.model_seconds").observe(stats.model_seconds);
  }

  stats.theta_used = theta_used;
  stats.iterations = outcome.iterations;
  stats.converged = outcome.converged;
  stats.max_mismatch = model.max_mismatch(outcome.x);
  stats.objective = model.qp.objective(outcome.x);

  {
    obs::TraceSpan span("legalize.write_back");
    span.arg("cells", design.num_cells())
        .arg("clamped", outcome.clamped_cells.size());
    std::vector<char> clamped;
    if (!outcome.clamped_cells.empty()) {
      clamped.assign(design.num_cells(), 0);
      for (const std::size_t c : outcome.clamped_cells) clamped[c] = 1;
    }
    for (std::size_t c = 0; c < design.num_cells(); ++c) {
      if (design.cells()[c].fixed || design.cells()[c].erased) continue;
      double x = model.cell_x(outcome.x, c);
      if (!clamped.empty() && clamped[c]) {
        x = std::clamp(
            x, 0.0,
            std::max(0.0, design.chip().width() - design.cells()[c].width));
      }
      design.cells()[c].x = x;
      design.cells()[c].y = design.chip().row_y(base_rows[c]);
    }
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
  if (options.solution_out != nullptr)
    *options.solution_out = std::move(outcome.x);
  if (options.partition_out != nullptr)
    *options.partition_out =
        partitioned ? std::move(partition) : ConstraintPartition{};
  return stats;
}

}  // namespace mch::legal
