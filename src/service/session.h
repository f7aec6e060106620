// Resident legalization service — ROADMAP item "legalization server".
//
// The one-shot flow (legal::legalize) rebuilds the model, the constraint
// partition, and every solver workspace from scratch on each call, even
// when an ECO touches 25 of 50000 cells. A LegalizationSession instead
// loads a design once and keeps the LegalizationModel, the
// ConstraintPartition, the continuous per-variable solution, and the
// per-component SolverWorkspace arenas resident across a stream of typed
// requests:
//
//   * FullLegalize    — the complete paper flow on the current design
//                       state (rows → MMSIM → Tetris → orientations);
//   * EcoRequest      — a batch of cell moves/inserts/erases, solved
//                       incrementally: only the connected components
//                       reachable from the touched cells (through their
//                       affected row spans) are re-extracted and re-solved,
//                       warm-started from the previous solve via workspace
//                       slots keyed by a stable component anchor; clean
//                       components reuse the previous solution verbatim.
//
// The dirty-component rule: an ECO batch changes the model only in the
// touched cells' p/K entries and in the spacing rows of the affected chip
// rows (the union of each touched cell's old and new row spans). A
// component with no touched cell and no variable in an affected row
// therefore has a bit-identical local QP and an unchanged variable set —
// its previous converged solution is still a converged solution, so it is
// skipped entirely. Incremental results match a from-scratch solve to
// solver tolerance; kFull requests instead re-solve everything and are
// bitwise identical to a one-shot legal::legalize of the same design state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/design.h"
#include "lcp/qp.h"
#include "lcp/workspace.h"
#include "legal/flow.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"

namespace mch::service {

/// How a request is solved.
enum class SolveMode {
  kAuto,         ///< use SessionOptions::default_mode
  kIncremental,  ///< dirty components only; tolerance-level contract
  /// Full re-solve, bitwise identical to a one-shot legal::legalize with
  /// the same options on the same design state.
  kFull,
};

const char* to_string(SolveMode mode);

/// One ECO mutation. Build with the factories; `payload` is only read by
/// inserts.
struct EcoOp {
  enum class Kind { kMove, kInsert, kErase };
  Kind kind = Kind::kMove;
  std::size_t cell = 0;  ///< target of kMove / kErase
  double gp_x = 0.0;     ///< kMove target (clamped into the die)
  double gp_y = 0.0;
  db::Cell payload;      ///< kInsert: the new cell (gp_* = its position)

  static EcoOp move(std::size_t cell, double gp_x, double gp_y) {
    EcoOp op;
    op.kind = Kind::kMove;
    op.cell = cell;
    op.gp_x = gp_x;
    op.gp_y = gp_y;
    return op;
  }
  static EcoOp insert(db::Cell cell) {
    EcoOp op;
    op.kind = Kind::kInsert;
    op.payload = cell;
    return op;
  }
  static EcoOp erase(std::size_t cell) {
    EcoOp op;
    op.kind = Kind::kErase;
    op.cell = cell;
    return op;
  }
};

/// A batched ECO request: the ops apply in order, then one solve runs.
struct EcoRequest {
  std::vector<EcoOp> ops;
  SolveMode mode = SolveMode::kAuto;
};

/// Displacement of the session's design versus its GP positions, in the
/// same units as eval::DisplacementStats (kept local so the service layer
/// does not depend on eval/).
struct SessionDisplacement {
  double total_sites = 0.0;
  double mean_sites = 0.0;
  double max_sites = 0.0;
  std::size_t moved_cells = 0;
};

/// Per-phase wall-clock of one request, seconds. Full solves only fill
/// rows/model/solve/total (the flow does not time its tail phases
/// separately).
struct SessionPhases {
  double apply = 0.0;      ///< ECO op application + delta tracking
  double rows = 0.0;       ///< row re-assignment (touched cells or full)
  double model = 0.0;      ///< build_model
  double partition = 0.0;  ///< incremental repartition / full partition
  double extract = 0.0;    ///< dirty-component extraction
  double solve = 0.0;      ///< component solves (or the full solve section)
  double reuse = 0.0;      ///< clean-component solution reuse + write-back
  double allocate = 0.0;   ///< Tetris allocation + orientations
  double verify = 0.0;     ///< legality check
  double total = 0.0;
};

/// Incremental-solve bookkeeping of one request.
struct SessionStats {
  bool incremental = false;  ///< the dirty-component path actually ran
  std::size_t touched_cells = 0;
  std::size_t affected_rows = 0;
  std::size_t components_total = 0;
  std::size_t components_dirty = 0;   ///< re-extracted and re-solved
  std::size_t components_reused = 0;  ///< previous solution kept verbatim
  /// Dirty components whose solve started from a matching warm-start
  /// payload (a previous solve of the same region).
  std::size_t warm_start_hits = 0;
  double warm_start_rate = 0.0;  ///< hits / dirty (0 when no dirty)
  /// Incremental results that failed verification and were re-solved from
  /// scratch (SessionOptions::fallback_to_full_on_illegal).
  std::size_t full_solve_fallbacks = 0;
};

/// What kind of request produced a result.
enum class RequestKind { kFullLegalize, kEco };

/// The stable session-result struct every request returns.
struct SessionResult {
  std::uint64_t request_id = 0;
  RequestKind kind = RequestKind::kFullLegalize;
  SolveMode mode = SolveMode::kAuto;  ///< resolved mode that ran
  bool legal = false;
  std::string legality_summary;
  legal::MmsimLegalizerStats solver;  ///< includes recovery-ladder activity
  legal::TetrisStats allocation;
  SessionDisplacement displacement;
  SessionStats session;
  SessionPhases phase;
  double seconds = 0.0;  ///< whole-request wall clock (== phase.total)
};

struct SessionOptions {
  /// Solver configuration used by full solves; the model λ, MMSIM
  /// parameters and recovery fault injection also govern the incremental
  /// component solves. The workspace/prebuilt_model/…
  /// session hooks inside are overwritten by the session itself.
  legal::FlowOptions flow;
  /// Mode used by requests that ask for kAuto.
  SolveMode default_mode = SolveMode::kIncremental;
  /// Check legality after every request (cheap; part of the request
  /// latency contract).
  bool verify = true;
  /// When a verified incremental result is illegal, transparently re-solve
  /// the request from scratch (counted in SessionStats::full_solve_fallbacks).
  bool fallback_to_full_on_illegal = true;
};

/// A resident legalization engine serving a stream of requests against one
/// design. A session is not thread-safe: one request at a time per
/// session. *Distinct* sessions are safe to drive from concurrent client
/// threads — each request's component solves are scheduler jobs packed
/// onto the shared worker pool (runtime/scheduler.h), and full-solve
/// results stay bitwise equal to a serial one-shot legal::legalize
/// (tests/service/scheduler_determinism_test.cpp).
class LegalizationSession {
 public:
  explicit LegalizationSession(db::Design design, SessionOptions options = {});

  /// The session's design in its current (mutated, legalized) state.
  const db::Design& design() const { return design_; }
  std::uint64_t num_requests() const { return next_request_; }

  /// Runs the complete flow on the current design state; a full solve is
  /// never incremental, whatever `mode` says (it only labels the result).
  SessionResult full_legalize(SolveMode mode = SolveMode::kAuto);

  /// Validates the whole batch, applies it and re-solves. Incremental
  /// unless the request (or default_mode) says kFull, or no previous solve
  /// exists yet. Throws CheckError, leaving the session untouched, when an
  /// op names a cell id out of range, moves a fixed cell, or touches an
  /// erased cell (including one erased earlier in the same batch).
  SessionResult eco(const EcoRequest& request);
  SessionResult eco(std::vector<EcoOp> ops);

  /// ECO streams that want stability measured against the previous *legal*
  /// placement: copies positions to GP (like db::Design::
  /// commit_positions_as_gp) and invalidates the resident solve state —
  /// every GP changed, so nothing is reusable and the next request
  /// full-solves.
  void commit_legal_as_gp();

 private:
  struct ApplyOutcome;

  ApplyOutcome apply_ops(const std::vector<EcoOp>& ops);
  void run_full(SessionResult& result);
  void run_incremental(const legal::PartitionDelta& delta,
                       SessionResult& result);
  void finish(SessionResult& result);

  db::Design design_;
  SessionOptions options_;
  std::uint64_t next_request_ = 0;
  bool solved_ = false;  ///< model_/partition_/solution_ describe design_

  legal::RowAssignment base_rows_;
  legal::LegalizationModel model_;
  legal::ConstraintPartition partition_;
  lcp::Vector solution_;  ///< continuous per-variable solution of model_

  /// Full solves iterate in per-component-index slots and drop the arena's
  /// warm-start payloads on entry; incremental solves warm-start from slots
  /// keyed by a stable component anchor (the smallest cell id). Separate
  /// arenas so a full solve never erases the ECO slots' payloads.
  lcp::SolverWorkspace workspace_full_;
  lcp::SolverWorkspace workspace_eco_;
  /// Component anchor (cell id of the component's first variable) → slot
  /// index in workspace_eco_. Repeated ECOs touching the same region land
  /// in the same slot and warm-start from their previous solve.
  std::unordered_map<std::size_t, std::size_t> eco_slot_of_anchor_;
};

}  // namespace mch::service
