#include "service/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "db/legality.h"
#include "legal/mmsim_legalizer.h"
#include "legal/tetris_alloc.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "util/check.h"
#include "util/timer.h"

namespace mch::service {

namespace {

/// Displacement of the design's current positions versus its GP input, in
/// sites (the eval-layer convention), skipping fixed and erased cells.
SessionDisplacement measure_displacement(const db::Design& design) {
  SessionDisplacement d;
  const double site = design.chip().site_width;
  for (const db::Cell& cell : design.cells()) {
    if (cell.fixed || cell.erased) continue;
    const double dist =
        std::abs(cell.x - cell.gp_x) + std::abs(cell.y - cell.gp_y);
    d.total_sites += dist / site;
    d.max_sites = std::max(d.max_sites, dist / site);
    if (dist > 0.0) ++d.moved_cells;
  }
  const std::size_t live = design.num_cells() - design.num_erased_cells() -
                           design.num_fixed_cells();
  d.mean_sites = live > 0 ? d.total_sites / static_cast<double>(live) : 0.0;
  return d;
}

/// Checks a whole ECO batch before any op applies, so a bad op rejects the
/// batch instead of leaving it half applied. Replays the batch's effect on
/// each cell's fixed/erased flags (inserts append ids, erases tombstone
/// them) and applies the preconditions of db::Design's mutators to every
/// op in order.
void validate_ops(const db::Design& design, const std::vector<EcoOp>& ops) {
  std::vector<char> fixed;
  std::vector<char> erased;
  fixed.reserve(design.num_cells() + ops.size());
  erased.reserve(design.num_cells() + ops.size());
  for (const db::Cell& cell : design.cells()) {
    fixed.push_back(cell.fixed ? 1 : 0);
    erased.push_back(cell.erased ? 1 : 0);
  }
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const EcoOp& op = ops[k];
    if (op.kind == EcoOp::Kind::kInsert) {
      const db::Cell& cell = op.payload;
      MCH_CHECK_MSG(cell.width > 0.0 && cell.height_rows >= 1 &&
                        cell.height_rows <= design.chip().num_rows,
                    "ECO op " << k << ": inserted cell has invalid size");
      fixed.push_back(cell.fixed ? 1 : 0);
      erased.push_back(0);
      continue;
    }
    const bool move = op.kind == EcoOp::Kind::kMove;
    const char* verb = move ? "move" : "erase";
    MCH_CHECK_MSG(op.cell < fixed.size(),
                  "ECO op " << k << ": " << verb << " of unknown cell "
                            << op.cell);
    MCH_CHECK_MSG(erased[op.cell] == 0, "ECO op " << k << ": " << verb
                                                  << " of erased cell "
                                                  << op.cell);
    MCH_CHECK_MSG(!move || fixed[op.cell] == 0,
                  "ECO op " << k << ": move of fixed cell " << op.cell);
    if (!move) erased[op.cell] = 1;
  }
}

}  // namespace

const char* to_string(SolveMode mode) {
  switch (mode) {
    case SolveMode::kAuto:
      return "auto";
    case SolveMode::kIncremental:
      return "incremental";
    case SolveMode::kFull:
      return "full";
  }
  return "?";
}

struct LegalizationSession::ApplyOutcome {
  legal::EcoDelta delta;
};

LegalizationSession::LegalizationSession(db::Design design,
                                         SessionOptions options)
    : design_(std::move(design)), options_(std::move(options)) {}

LegalizationSession::ApplyOutcome LegalizationSession::apply_ops(
    const std::vector<EcoOp>& ops) {
  ApplyOutcome out;
  const db::Chip& chip = design_.chip();
  out.delta.affected_rows.assign(chip.num_rows, 0);
  std::vector<std::size_t> touched;

  const auto mark_rows = [&](std::size_t first, std::size_t count) {
    const std::size_t end = std::min(first + count, chip.num_rows);
    for (std::size_t r = first; r < end; ++r)
      out.delta.affected_rows[r] = 1;
  };
  // Fixed cells obstruct every row their outline overlaps — the same rule
  // the model builder uses to emit obstacle segments.
  const auto mark_outline = [&](const db::Cell& cell) {
    const double height =
        static_cast<double>(cell.height_rows) * chip.row_height;
    const auto first = static_cast<std::size_t>(std::max(
        0.0, std::floor(cell.y / chip.row_height + 1e-9)));
    const auto end = static_cast<std::size_t>(std::max(
        0.0, std::ceil((cell.y + height) / chip.row_height - 1e-9)));
    if (end > first) mark_rows(first, end - first);
  };
  // The rows a cell occupies *now*, before an op disturbs it: its assigned
  // span when a solve exists, its outline when fixed.
  const auto mark_current = [&](std::size_t id) {
    const db::Cell& cell = design_.cells()[id];
    if (cell.fixed)
      mark_outline(cell);
    else if (id < base_rows_.size())
      mark_rows(base_rows_[id], cell.height_rows);
  };

  for (const EcoOp& op : ops) {
    switch (op.kind) {
      case EcoOp::Kind::kMove: {
        mark_current(op.cell);
        design_.move_cell(op.cell, op.gp_x, op.gp_y);
        db::Cell& cell = design_.cells()[op.cell];
        const std::size_t base = design_.nearest_legal_row(cell);
        if (op.cell < base_rows_.size()) base_rows_[op.cell] = base;
        cell.y = chip.row_y(base);
        mark_rows(base, cell.height_rows);
        touched.push_back(op.cell);
        break;
      }
      case EcoOp::Kind::kInsert: {
        const std::size_t id = design_.insert_cell(op.payload);
        db::Cell& cell = design_.cells()[id];
        if (cell.fixed) {
          // A fixed insert is a new obstacle; its GP is its placement.
          if (base_rows_.size() == id)
            base_rows_.push_back(design_.nearest_row(cell.y,
                                                     cell.height_rows));
          mark_outline(cell);
        } else {
          const std::size_t base = design_.nearest_legal_row(cell);
          if (base_rows_.size() == id) base_rows_.push_back(base);
          cell.y = chip.row_y(base);
          mark_rows(base, cell.height_rows);
        }
        touched.push_back(id);
        break;
      }
      case EcoOp::Kind::kErase: {
        mark_current(op.cell);
        design_.erase_cell(op.cell);
        touched.push_back(op.cell);
        break;
      }
    }
  }

  out.delta.touched_cells.assign(design_.num_cells(), 0);
  for (const std::size_t id : touched) out.delta.touched_cells[id] = 1;
  return out;
}

void LegalizationSession::run_full(SessionResult& result) {
  obs::TraceSpan span("session.run_full");
  {
    obs::TraceSpan rows_span("session.rows");
    Timer rows_timer;
    base_rows_ = legal::assign_rows(design_);
    result.phase.rows += rows_timer.seconds();
  }

  // The partition streams out of the model build (united edge by edge as
  // constraints are emitted), so the resident session never walks the
  // finished model a second time.
  {
    obs::TraceSpan model_span("session.model_build");
    Timer model_timer;
    partition_ = {};
    model_ = legal::build_model(design_, base_rows_,
                                options_.flow.solver.model, &partition_);
    result.phase.model += model_timer.seconds();
    model_span.arg("variables", model_.num_variables())
        .arg("components", partition_.num_components());
  }

  legal::FlowOptions flow = options_.flow;
  flow.verify = options_.verify;
  flow.solver.prebuilt_model = &model_;
  flow.solver.prebuilt_partition = &partition_;
  flow.solver.solution_out = &solution_;
  flow.solver.workspace = &workspace_full_;

  Timer solve_timer;
  const legal::FlowResult flow_result = legal::legalize(design_, flow);
  const double flow_seconds = solve_timer.seconds();

  result.solver = flow_result.solver;
  result.allocation = flow_result.allocation;
  result.legal = flow_result.legal;
  result.legality_summary =
      options_.verify ? flow_result.legality.summary() : "(not verified)";
  result.phase.solve += flow_result.solver.solve_seconds;
  result.phase.allocate +=
      std::max(0.0, flow_seconds - flow_result.solver.solve_seconds -
                        flow_result.solver.model_seconds);

  result.session.components_total = partition_.num_components();
  // A full solve re-solves everything: every component is dirty, none
  // reused (keeps the incremental columns of downstream tables honest).
  result.session.components_dirty = partition_.num_components();
  result.session.components_reused = 0;
  solved_ = true;
  span.arg("components", partition_.num_components())
      .arg("legal", result.legal);
}

void LegalizationSession::run_incremental(const legal::EcoDelta& delta,
                                          SessionResult& result) {
  result.session.incremental = true;
  obs::TraceSpan span("session.run_incremental");

  // The resident model and partition are patched in place; the patch's
  // old -> new variable map is all that is left of the previous numbering,
  // and the previous solution is read through it below.
  legal::ModelPatch patch;
  {
    obs::TraceSpan model_span("session.model_patch");
    Timer model_timer;
    patch = legal::patch_model(model_, design_, base_rows_, delta);
    result.phase.model += model_timer.seconds();
  }
  {
    obs::TraceSpan partition_span("session.partition_patch");
    Timer partition_timer;
    legal::patch_partition(partition_, model_, patch, delta);
    result.phase.partition += partition_timer.seconds();
    partition_span.arg("components", partition_.num_components());
  }

  // Dirty-component rule (header): a component must be re-solved iff it
  // contains a touched cell's variable or a variable in an affected row.
  // Every touched cell's variables sit in affected rows (the delta marks
  // each touched cell's new span), so the affected rows' lists cover both.
  Timer extract_timer;
  std::vector<char> dirty(partition_.num_components(), 0);
  for (std::size_t r = 0; r < delta.affected_rows.size(); ++r) {
    if (delta.affected_rows[r] == 0) continue;
    for (const std::size_t v : model_.row_variables[r])
      dirty[partition_.variable_component[v]] = 1;
  }
  std::vector<std::size_t> dirty_ids;
  for (std::size_t c = 0; c < dirty.size(); ++c)
    if (dirty[c] != 0) dirty_ids.push_back(c);

  // Jobs reference the partition's index lists directly; solve_components
  // extracts, solves, scatters, and releases each dirty sub-problem inside
  // its worker, so the request's high-water mark holds one extraction per
  // pool thread instead of every dirty component at once.
  //
  // Workspace slots are keyed by the component's anchor cell, so a region
  // re-touched by a later request lands in the same slot and warm-starts
  // from its own previous solve. Slot assignment happens in ascending
  // component order — deterministic across runs.
  std::vector<legal::ComponentSolveJob> jobs(dirty_ids.size());
  std::vector<std::size_t> slots(dirty_ids.size());
  for (std::size_t i = 0; i < dirty_ids.size(); ++i) {
    const std::size_t c = dirty_ids[i];
    const std::size_t anchor =
        model_.variables[partition_.component_variables[c][0]].cell;
    const auto [it, inserted] =
        eco_slot_of_anchor_.try_emplace(anchor, eco_slot_of_anchor_.size());
    (void)inserted;
    slots[i] = it->second;
  }
  workspace_eco_.prepare(eco_slot_of_anchor_.size());
  for (std::size_t i = 0; i < dirty_ids.size(); ++i) {
    const std::size_t c = dirty_ids[i];
    jobs[i] = {&partition_.component_variables[c],
               &partition_.component_constraints[c],
               &workspace_eco_.slot(slots[i]), c};
  }
  result.phase.extract += extract_timer.seconds();

  Timer solve_timer;
  lcp::Vector x;
  x.assign(model_.num_variables(), 0.0);
  // Report the solve in the legalizer's vocabulary so SessionResult::solver
  // reads the same in both modes; solve_components fills the solve figures.
  result.solver = legal::MmsimLegalizerStats{};
  const legal::MmsimLegalizerOptions& solver_options = options_.flow.solver;
  legal::ComponentSolveReport report;
  {
    obs::TraceSpan solve_span("session.solve");
    solve_span.arg("dirty", dirty_ids.size())
        .arg("total", partition_.num_components());
    report = legal::solve_components(
        design_, model_, jobs, solver_options,
        lcp::resolve_recovery_options(solver_options.recovery), x,
        result.solver);
    solve_span.arg("warm_hits", report.warm_started)
        .arg("converged", result.solver.converged);
  }
  result.phase.solve += solve_timer.seconds();

  // Clean components: the previous converged solution is still converged
  // (their local QP is bit-identical), so copy it verbatim through the
  // patch's variable map — no solver touches them.
  {
    obs::TraceSpan reuse_span("session.reuse_and_write_back");
    Timer reuse_timer;
    for (std::size_t v = 0; v < patch.new_variable.size(); ++v) {
      const std::size_t to = patch.new_variable[v];
      if (to != legal::LegalizationModel::kNoVariable &&
          dirty[partition_.variable_component[to]] == 0)
        x[to] = solution_[v];
    }
    legal::write_back(design_, model_, x, report.clamped_cells);
    solution_ = std::move(x);
    result.phase.reuse += reuse_timer.seconds();
  }

  result.solver.num_variables = model_.num_variables();
  result.solver.num_constraints = model_.qp.num_constraints();
  result.solver.max_mismatch = model_.max_mismatch(solution_);
  result.solver.theta_used = solver_options.mmsim.theta;
  result.solver.model_seconds = result.phase.model;
  result.solver.solve_seconds = result.phase.solve;
  result.solver.objective = model_.qp.objective(solution_);
  result.solver.num_components = partition_.num_components();
  result.solver.max_component_size = partition_.max_component_size();
  result.solver.mean_component_size = partition_.mean_component_size();
  result.solver.simd_level = linalg::simd_level();

  result.session.components_total = partition_.num_components();
  result.session.components_dirty = dirty_ids.size();
  result.session.components_reused =
      partition_.num_components() - dirty_ids.size();
  result.session.warm_start_hits = report.warm_started;
  result.session.warm_start_rate =
      dirty_ids.empty() ? 0.0
                        : static_cast<double>(report.warm_started) /
                              static_cast<double>(dirty_ids.size());

  {
    obs::TraceSpan allocate_span("session.allocate");
    Timer allocate_timer;
    result.allocation = legal::tetris_allocate(design_);
    legal::assign_orientations(design_);
    result.phase.allocate += allocate_timer.seconds();
  }

  if (options_.verify) {
    obs::TraceSpan verify_span("session.verify");
    Timer verify_timer;
    const db::LegalityReport legality = db::check_legality(design_);
    result.legal = legality.legal() && result.allocation.unplaced_cells == 0;
    result.legality_summary = legality.summary();
    result.phase.verify += verify_timer.seconds();
  } else {
    result.legality_summary = "(not verified)";
  }
  span.arg("dirty", result.session.components_dirty)
      .arg("reused", result.session.components_reused)
      .arg("legal", result.legal);
}

void LegalizationSession::finish(SessionResult& result) {
  result.displacement = measure_displacement(design_);
  result.phase.total = result.phase.apply + result.phase.rows +
                       result.phase.model + result.phase.partition +
                       result.phase.extract + result.phase.solve +
                       result.phase.reuse + result.phase.allocate +
                       result.phase.verify;
}

SessionResult LegalizationSession::full_legalize(SolveMode mode) {
  SolveMode resolved = mode == SolveMode::kAuto ? options_.default_mode : mode;
  if (resolved == SolveMode::kAuto) resolved = SolveMode::kIncremental;

  SessionResult result;
  result.request_id = next_request_++;
  result.kind = RequestKind::kFullLegalize;
  result.mode = resolved;

  Timer total;
  {
    obs::TraceSpan span("session.request.full_legalize");
    span.arg("request", result.request_id).arg("mode", to_string(resolved));
    run_full(result);
    finish(result);
    result.seconds = total.seconds();
  }
  obs::counter("session.requests", "kind", "full_legalize").add();
  obs::histogram("session.full_legalize.latency_seconds")
      .observe(result.seconds);
  return result;
}

SessionResult LegalizationSession::eco(const EcoRequest& request) {
  validate_ops(design_, request.ops);
  SolveMode resolved =
      request.mode == SolveMode::kAuto ? options_.default_mode : request.mode;
  if (resolved == SolveMode::kAuto) resolved = SolveMode::kIncremental;

  SessionResult result;
  result.request_id = next_request_++;
  result.kind = RequestKind::kEco;
  result.mode = resolved;

  Timer total;
  {
    obs::TraceSpan span("session.request.eco");
    span.arg("request", result.request_id)
        .arg("mode", to_string(resolved))
        .arg("ops", request.ops.size());
    ApplyOutcome applied;
    {
      obs::TraceSpan apply_span("session.apply_ops");
      Timer apply_timer;
      applied = apply_ops(request.ops);
      result.phase.apply += apply_timer.seconds();
      result.session.touched_cells = static_cast<std::size_t>(
          std::count(applied.delta.touched_cells.begin(),
                     applied.delta.touched_cells.end(), char{1}));
      result.session.affected_rows = static_cast<std::size_t>(
          std::count(applied.delta.affected_rows.begin(),
                     applied.delta.affected_rows.end(), char{1}));
      apply_span.arg("touched_cells", result.session.touched_cells)
          .arg("affected_rows", result.session.affected_rows);
    }

    if (resolved == SolveMode::kIncremental && solved_) {
      run_incremental(applied.delta, result);
      if (options_.verify && !result.legal &&
          options_.fallback_to_full_on_illegal) {
        ++result.session.full_solve_fallbacks;
        result.session.incremental = false;
        obs::counter("session.full_solve_fallbacks").add();
        run_full(result);
      }
    } else {
      // Full mode, or no resident solve to be incremental against.
      run_full(result);
    }

    finish(result);
    result.seconds = total.seconds();
    span.arg("dirty", result.session.components_dirty)
        .arg("reused", result.session.components_reused);
  }
  obs::counter("session.requests", "kind", "eco").add();
  obs::histogram("session.eco.latency_seconds").observe(result.seconds);
  {
    static obs::Counter& dirty = obs::counter("session.components_dirty");
    static obs::Counter& reused = obs::counter("session.components_reused");
    static obs::Counter& warm = obs::counter("session.warm_start_hits");
    dirty.add(result.session.components_dirty);
    reused.add(result.session.components_reused);
    warm.add(result.session.warm_start_hits);
  }
  return result;
}

SessionResult LegalizationSession::eco(std::vector<EcoOp> ops) {
  EcoRequest request;
  request.ops = std::move(ops);
  return eco(request);
}

void LegalizationSession::commit_legal_as_gp() {
  design_.commit_positions_as_gp();
  // Every GP moved, so the resident solution no longer describes the
  // design's optimization problem; the next request must solve in full.
  solved_ = false;
}

}  // namespace mch::service
