// Constraint construction — the paper's Problems (6), (12), (13).
//
// Given a design and a row assignment, builds the relaxed legalization QP:
//
//   * one variable per single-height cell; one variable per occupied row
//     ("subcell") for each multi-row-height cell (paper §3.2);
//   * within every chip row, the (sub)cells assigned to it are ordered by
//     their global-placement x (ties by cell id), and each adjacent pair
//     (l, j) contributes a spacing row of B:  x_j − x_l ≥ w_l;
//   * fixed cells (macros/obstacles) contribute no variables; a movable
//     cell whose nearest preceding row entity is an obstacle gets the
//     single-sided bound  x_j ≥ obstacle_end  instead of a chain row (the
//     obstacle's right side is relaxed like the chip's right boundary and
//     repaired by the Tetris-like allocation);
//   * the subcell-equality constraints Ex = 0 are folded into the objective
//     with penalty λ (paper Eq. (13)), making the Hessian
//     K = Q + λEᵀE block diagonal with one block per cell:
//     a 1×1 identity block for singles, I_d + λ·Lap(chain) for a d-subcell
//     cell, where E stacks the d−1 chain differences x_{i,k+1} − x_{i,k};
//   * p_v = −x'_i for every variable v of cell i (Q is the identity, so a
//     d-row cell's displacement is weighted d times — moving tall cells
//     disturbs more rows, exactly as in the paper's formulation).
//
// The left chip boundary is the variable bound x ≥ 0 of the LCP; the right
// boundary is relaxed and repaired later by the Tetris-like allocation.
#pragma once

#include <cstddef>
#include <vector>

#include "db/design.h"
#include "lcp/qp.h"
#include "legal/row_assign.h"
#include "util/index.h"

namespace mch::legal {

struct ConstraintPartition;  // partition.h

/// Which cell and which of its subcells a QP variable represents. Packed to
/// 8 bytes (two 32-bit indices): the array has one entry per QP variable
/// and rides along with every model snapshot.
struct VariableInfo {
  index_t cell = 0;
  index_t subrow = 0;  ///< 0-based row offset within the cell
};

/// One connected component of the legalization QP, extracted as a
/// self-contained StructuredQp plus the scatter maps back to the global
/// numbering. Local variable/constraint order preserves the global
/// ascending order, so every per-row sum and per-block solve of a
/// sub-problem computes exactly what the monolithic system computes on the
/// same indices.
struct ComponentProblem {
  lcp::StructuredQp qp;
  std::vector<index_t> variables;    ///< local var -> global var
  std::vector<index_t> constraints;  ///< local row -> global B row
  /// Local rows whose predecessor was not globally adjacent: their
  /// tridiagonal Schur coupling must be dropped to match the monolithic
  /// approximation (see lcp::schur_tridiagonal).
  std::vector<bool> schur_coupling_breaks;
};

/// The assembled QP plus the bookkeeping to map solutions back to cells.
///
/// Every index array below stores mch::index_t: at multi-million-cell scale
/// these arrays (variables, per-cell maps, per-row lists, constraint rows)
/// are the model's memory spine, and halving them is a direct peak-RSS win.
struct LegalizationModel {
  /// cell_first_var value for fixed cells (they have no variables).
  /// index_t-typed so comparisons against the stored arrays never mix
  /// widths; widening it into a std::size_t local and comparing later
  /// still works (both sides widen to the same value).
  static constexpr index_t kNoVariable = kInvalidIndex;

  lcp::StructuredQp qp;
  double lambda = 0.0;
  std::vector<VariableInfo> variables;     ///< per QP variable
  std::vector<index_t> cell_first_var;     ///< cell -> first variable
  std::vector<index_t> cell_var_count;     ///< cell -> #variables (0=fixed)
  RowAssignment base_rows;                 ///< cell -> assigned base row
  /// Variables of each chip row in left-to-right constraint order.
  std::vector<std::vector<index_t>> row_variables;
  /// Chip row each spacing constraint (B row) was emitted in. Constraints
  /// are emitted row by row, so this is ascending; patch_model uses it to
  /// find each chip row's slice of B.
  std::vector<index_t> constraint_row;
  /// Live fixed cells obstructing each chip row, ascending id: the source
  /// of the row's obstacle intervals, kept so patch_model re-walks a row
  /// without scanning every cell.
  std::vector<std::vector<index_t>> row_fixed_cells;

  std::size_t num_variables() const { return variables.size(); }

  /// Restored x position of a cell: the mean of its subcell variables
  /// (the exact value when the penalty held them together).
  double cell_x(const lcp::Vector& x, std::size_t cell) const;

  /// Largest |subcell − mean| over the cell's variables: the subcell
  /// mismatch the λ-penalty is meant to suppress (paper §4).
  double cell_mismatch(const lcp::Vector& x, std::size_t cell) const;

  /// Maximum mismatch over all cells.
  double max_mismatch(const lcp::Vector& x) const;

  /// Extracts the sub-problem spanning the given (sorted, ascending)
  /// variable and constraint index sets — one connected component as
  /// computed by legal::partition_model. The variable set must cover whole
  /// Hessian blocks and the constraints must only reference those
  /// variables; both hold for genuine components.
  ComponentProblem component_problem(const std::vector<index_t>& vars,
                                     const std::vector<index_t>& rows) const;
};

struct ModelOptions {
  double lambda = 1000.0;  ///< the paper's setting for Problem (12)
};

/// Builds the model for the given assignment (does not mutate the design).
///
/// Assembly is streamed: constraint rows are emitted chip-row by chip-row
/// directly into the final CSR arrays — no whole-design COO staging, no
/// pending-constraint list — so the build's transient memory is bounded by
/// one chip row's worth of work, not the constraint count. When
/// `partition_out` is non-null it additionally receives the constraint
/// partition, computed by a union-find running over the same stream (block
/// ties during the variable pass, chain ties at row emission); the result
/// is bit-identical to partition_model(model) at a fraction of the cost of
/// a separate sweep over the finished B.
LegalizationModel build_model(const db::Design& design,
                              const RowAssignment& base_rows,
                              const ModelOptions& options = {},
                              ConstraintPartition* partition_out = nullptr);

/// What an ECO batch touched. Both masks are dense: touched_cells is
/// indexed by cell id of the *new* design (a cell counts as touched when it
/// was moved, inserted, or erased by the batch), affected_rows by chip row
/// (the union of every touched cell's old and new row spans; a fixed
/// cell's span is every row its outline overlaps).
struct EcoDelta {
  std::vector<char> touched_cells;
  std::vector<char> affected_rows;
};

/// What patch_model changed, in the numbering of the model it patched.
struct ModelPatch {
  /// Old variable -> new variable; kNoVariable for an erased cell's.
  std::vector<index_t> new_variable;
  /// Old B row -> new B row; kNoVariable for the rows of affected chip
  /// rows, which were re-emitted.
  std::vector<index_t> new_constraint;
  /// Old variables that sat in an affected chip row (every old variable of
  /// a touched cell is among them).
  std::vector<index_t> dirty_variables;
  /// False when new_variable is the identity on every surviving variable
  /// (no movable cell was erased).
  bool shifted = false;
};

/// Patches `model`, built for a design state and its row assignment, to
/// the model of `design` after an ECO batch described by `delta`: the
/// result is bitwise equal to build_model(design, base_rows) with the
/// model's λ. `base_rows` may differ from the model's only at touched
/// cells. A chip row outside delta.affected_rows has the same members, GP
/// x, widths and obstacles as before, so its variable list and spacing
/// rows are copied with variable ids remapped (the remap keeps cell order,
/// so it keeps every ascending order); only affected rows are re-sorted
/// and re-walked. Cost: linear passes over the variables and constraints
/// plus the affected rows' sorts, no per-cell rebuild.
ModelPatch patch_model(LegalizationModel& model, const db::Design& design,
                       const RowAssignment& base_rows, const EcoDelta& delta);

/// Reference assembler: stages every constraint in a COO triplet list and
/// converts at the end. Produces a bit-identical model to build_model —
/// ctest enforces this across the generator's spec families — and survives
/// as the oracle for that equivalence plus a baseline for the memory
/// scaling bench (bench/scaling_memory.cpp). Not for production use: its
/// staging roughly doubles the build's peak memory.
LegalizationModel build_model_monolithic(const db::Design& design,
                                         const RowAssignment& base_rows,
                                         const ModelOptions& options = {});

}  // namespace mch::legal
