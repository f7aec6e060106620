#include "legal/model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "db/columns.h"
#include "legal/partition.h"
#include "legal/union_find.h"
#include "util/check.h"

namespace mch::legal {

using lcp::Vector;
using linalg::CooMatrix;
using linalg::BlockDiagMatrix;
using linalg::CsrMatrix;
using linalg::DenseMatrix;

double LegalizationModel::cell_x(const Vector& x, std::size_t cell) const {
  const std::size_t first = cell_first_var[cell];
  const std::size_t count = cell_var_count[cell];
  MCH_CHECK_MSG(first != kNoVariable && count > 0,
                "cell " << cell << " is fixed — it has no variables");
  double sum = 0.0;
  for (std::size_t k = 0; k < count; ++k) sum += x[first + k];
  return sum / static_cast<double>(count);
}

double LegalizationModel::cell_mismatch(const Vector& x,
                                        std::size_t cell) const {
  const std::size_t first = cell_first_var[cell];
  const std::size_t count = cell_var_count[cell];
  if (first == kNoVariable || count <= 1) return 0.0;
  const double mean = cell_x(x, cell);
  double worst = 0.0;
  for (std::size_t k = 0; k < count; ++k)
    worst = std::max(worst, std::abs(x[first + k] - mean));
  return worst;
}

double LegalizationModel::max_mismatch(const Vector& x) const {
  double worst = 0.0;
  for (std::size_t c = 0; c < cell_first_var.size(); ++c)
    worst = std::max(worst, cell_mismatch(x, c));
  return worst;
}

ComponentProblem LegalizationModel::component_problem(
    const std::vector<index_t>& vars,
    const std::vector<index_t>& rows) const {
  ComponentProblem component;
  component.variables = vars;
  component.constraints = rows;

  // Hessian: the component's variables cover whole blocks (a block is one
  // cell, and a cell is never split across components), so walk the sorted
  // variable list block by block.
  std::size_t i = 0;
  while (i < vars.size()) {
    const std::size_t blk = qp.K.block_of(vars[i]);
    const std::size_t off = qp.K.block_offset(blk);
    const std::size_t d = qp.K.block_size(blk);
    MCH_CHECK_MSG(vars[i] == off && i + d <= vars.size() &&
                      vars[i + d - 1] == off + d - 1,
                  "component variable set splits Hessian block " << blk);
    qp.K.append_block_to(component.qp.K, blk);
    i += d;
  }

  component.qp.p.resize(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v)
    component.qp.p[v] = qp.p[vars[v]];

  // Constraints, with columns remapped to local indices. Rows and (sorted)
  // columns keep their global relative order, so the CSR built here is the
  // global one restricted to the component.
  const auto local_var = [&](std::size_t global) {
    const auto it = std::lower_bound(vars.begin(), vars.end(), global);
    MCH_CHECK_MSG(it != vars.end() && *it == global,
                  "constraint references variable " << global
                                                    << " outside component");
    return static_cast<std::size_t>(it - vars.begin());
  };
  linalg::CooMatrix coo(rows.size(), vars.size());
  component.qp.b.resize(rows.size());
  component.schur_coupling_breaks.assign(rows.size(), false);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t g = rows[r];
    for (std::size_t e = qp.B.row_ptr()[g]; e < qp.B.row_ptr()[g + 1]; ++e)
      coo.add(r, local_var(qp.B.col_idx()[e]), qp.B.values()[e]);
    component.qp.b[r] = qp.b[g];
    component.schur_coupling_breaks[r] = r == 0 || rows[r - 1] + 1 != g;
  }
  component.qp.B = linalg::CsrMatrix::from_coo(coo);
  return component;
}

namespace {

constexpr std::size_t kNone = LegalizationModel::kNoVariable;

struct FixedInterval {
  double start = 0.0;
  double end = 0.0;
};

/// The hot per-cell fields the row walk reads, from a CellColumns snapshot
/// (full builds) or straight from the design (patches, which read only the
/// affected rows' cells). Both hold the same doubles.
struct ColumnCells {
  const db::CellColumns& cols;
  double gp_x(std::size_t c) const { return cols.gp_x[c]; }
  double x(std::size_t c) const { return cols.x[c]; }
  double width(std::size_t c) const { return cols.width[c]; }
};

struct DesignCells {
  const std::vector<db::Cell>& cells;
  double gp_x(std::size_t c) const { return cells[c].gp_x; }
  double x(std::size_t c) const { return cells[c].x; }
  double width(std::size_t c) const { return cells[c].width; }
};

/// Chip rows [first, end) a fixed cell's outline overlaps.
std::pair<std::size_t, std::size_t> outline_rows(double y,
                                                 std::size_t height_rows,
                                                 const db::Chip& chip) {
  const double height = static_cast<double>(height_rows) * chip.row_height;
  const auto first = static_cast<std::size_t>(
      std::clamp(std::floor(y / chip.row_height + 1e-9), 0.0,
                 static_cast<double>(chip.num_rows)));
  const auto end = static_cast<std::size_t>(
      std::clamp(std::ceil((y + height) / chip.row_height - 1e-9), 0.0,
                 static_cast<double>(chip.num_rows)));
  return {first, std::max(first, end)};
}

/// One chip row's obstacle intervals, sorted by start. `fixed` lists the
/// row's fixed cells in ascending id; the sort sees them in that order on
/// every path, so ties between equal starts resolve identically.
template <typename Cells>
std::vector<FixedInterval> row_obstacles(const std::vector<index_t>& fixed,
                                         const Cells& cells) {
  std::vector<FixedInterval> obstacles;
  obstacles.reserve(fixed.size());
  for (const std::size_t c : fixed)
    obstacles.push_back({cells.x(c), cells.x(c) + cells.width(c)});
  std::sort(obstacles.begin(), obstacles.end(),
            [](const FixedInterval& a, const FixedInterval& b) {
              return a.start < b.start;
            });
  return obstacles;
}

/// Hessian blocks of movable cells. A d-row cell's block I_d + λ·Lap(chain)
/// depends on d alone, so it is assembled and inverted once per height in a
/// template matrix and copied (block and stored inverse) for every further
/// cell — bitwise what a fresh add_block computes. Single-height cells take
/// the scalar fast path.
class ChainBlocks {
 public:
  explicit ChainBlocks(double lambda) : lambda_(lambda) {}

  void append(BlockDiagMatrix& K, std::size_t d) {
    if (d == 1) {
      K.add_scalar_block(1.0);
      return;
    }
    if (d >= block_of_height_.size())
      block_of_height_.resize(d + 1, kNone);
    if (block_of_height_[d] == kNone) {
      DenseMatrix block(d, d);
      for (std::size_t r = 0; r < d; ++r) block(r, r) = 1.0;
      for (std::size_t r = 0; r + 1 < d; ++r) {
        // Chain edge (r, r+1) of EᵢᵀEᵢ.
        block(r, r) += lambda_;
        block(r + 1, r + 1) += lambda_;
        block(r, r + 1) -= lambda_;
        block(r + 1, r) -= lambda_;
      }
      block_of_height_[d] = static_cast<index_t>(templates_.add_block(block));
    }
    templates_.append_block_to(K, block_of_height_[d]);
  }

 private:
  double lambda_;
  BlockDiagMatrix templates_;
  std::vector<index_t> block_of_height_;  ///< height -> template block
};

/// Steps 1–3 of assembly, shared verbatim by both builders: variables and
/// Hessian blocks, linear term, per-row variable lists, per-row fixed
/// cells.
void build_prefix(const db::CellColumns& cols, const db::Chip& chip,
                  const RowAssignment& base_rows, const ModelOptions& options,
                  LegalizationModel& model) {
  const std::size_t num_cells = cols.size();

  // 1. Variables: one per occupied row of each movable cell, in cell
  //    order. The per-cell Hessian block is I_d + λ·(EᵢᵀEᵢ) with Eᵢ the
  //    chain difference matrix over the cell's d subcells (chain graph
  //    Laplacian). Fixed cells get no variables.
  ChainBlocks chain(options.lambda);
  model.cell_first_var.assign(num_cells, LegalizationModel::kNoVariable);
  model.cell_var_count.assign(num_cells, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (!cols.movable(c)) continue;
    model.cell_first_var[c] = to_index(model.variables.size());
    const std::size_t d = cols.height_rows[c];
    model.cell_var_count[c] = static_cast<index_t>(d);
    MCH_CHECK_MSG(base_rows[c] + d <= chip.num_rows,
                  "cell " << c << " does not fit vertically");
    for (std::size_t k = 0; k < d; ++k)
      model.variables.push_back(
          {static_cast<index_t>(c), static_cast<index_t>(k)});
    chain.append(model.qp.K, d);
  }
  const std::size_t n = model.variables.size();

  // 2. Linear term: p_v = −x'_cell for every variable of the cell.
  model.qp.p.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    model.qp.p[v] = -cols.gp_x[model.variables[v].cell];

  // 3. Row membership: variable k of movable cell c occupies chip row
  //    base+k; fixed cells obstruct every row their outline touches.
  model.row_variables.assign(chip.num_rows, {});
  for (std::size_t v = 0; v < n; ++v) {
    const VariableInfo& info = model.variables[v];
    model.row_variables[base_rows[info.cell] + info.subrow].push_back(
        static_cast<index_t>(v));
  }
  model.row_fixed_cells.assign(chip.num_rows, {});
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (!cols.fixed(c) || cols.erased(c)) continue;
    const auto [first, end] = outline_rows(cols.y[c], cols.height_rows[c],
                                           chip);
    for (std::size_t r = first; r < end; ++r)
      model.row_fixed_cells[r].push_back(static_cast<index_t>(c));
  }
}

/// Sorts one chip row's variables into constraint order (ascending GP x,
/// ties by cell id) and walks it, invoking `emit` once per spacing
/// constraint:
///   emit(left, right, rhs)
/// with left == kNoVariable for an obstacle lower bound (x_right ≥ rhs, the
/// obstacle's end) and a chain row  x_right − x_left ≥ rhs = w_left
/// otherwise. Emission order is the constraint order of the model.
template <typename Cells, typename Emit>
void walk_row(const Cells& cells, const std::vector<VariableInfo>& variables,
              const std::vector<FixedInterval>& obstacles,
              std::vector<index_t>& row_vars, Emit&& emit) {
  std::sort(row_vars.begin(), row_vars.end(),
            [&](std::size_t a, std::size_t b) {
              const double xa = cells.gp_x(variables[a].cell);
              const double xb = cells.gp_x(variables[b].cell);
              if (xa != xb) return xa < xb;
              return variables[a].cell < variables[b].cell;
            });

  std::size_t next_obstacle = 0;
  std::size_t prev_var = kNone;
  double bound = -std::numeric_limits<double>::infinity();
  for (const std::size_t v : row_vars) {
    const double key = cells.gp_x(variables[v].cell);
    while (next_obstacle < obstacles.size() &&
           (obstacles[next_obstacle].start + obstacles[next_obstacle].end) /
                   2.0 <=
               key) {
      bound = std::max(bound, obstacles[next_obstacle].end);
      prev_var = kNone;  // chain broken
      ++next_obstacle;
    }
    if (prev_var != kNone) {
      emit(prev_var, v, cells.width(variables[prev_var].cell));
    } else if (bound > 0.0) {
      emit(kNone, v, bound);
    }
    prev_var = v;
  }
}

/// The spacing constraints streamed straight into the final CSR arrays.
/// Every row of B has one or two entries; a chain row's columns are pushed
/// in ascending order with the matching ±1 values, which is exactly the
/// (row, col)-sorted form from_coo would produce — no COO staging. Each
/// movable variable emits at most one constraint, so m ≤ n and reserving n
/// rows makes emission allocation-free.
class ConstraintStream {
 public:
  explicit ConstraintStream(std::size_t n) {
    row_ptr_.reserve(n + 1);
    row_ptr_.push_back(0);
    col_idx_.reserve(2 * n);
    values_.reserve(2 * n);
    b_.reserve(n);
    chip_row_.reserve(n);
  }

  std::size_t size() const { return b_.size(); }

  /// A constraint of walk_row in chip row `row`.
  void emit(std::size_t row, std::size_t left, std::size_t right,
            double rhs) {
    if (left == kNone) {
      // Obstacle lower bound: x_right >= obstacle end.
      push(right, 1.0);
    } else if (left < right) {
      push(left, -1.0);
      push(right, 1.0);
    } else {
      push(right, 1.0);
      push(left, -1.0);
    }
    end_row(row, rhs);
  }

  /// A bulk copy of B rows [begin, end) with their right-hand sides and
  /// chip rows, columns renumbered through `remap` when given (it must
  /// keep their order). Records each copied row's new index in
  /// `new_index`.
  void copy(const CsrMatrix& B, const Vector& b,
            const std::vector<index_t>& chip_row, std::size_t begin,
            std::size_t end, const std::vector<index_t>* remap,
            std::vector<index_t>& new_index) {
    const std::size_t at = size();
    for (std::size_t k = begin; k < end; ++k)
      new_index[k] = static_cast<index_t>(at + (k - begin));
    const auto& row_ptr = B.row_ptr();
    const std::size_t e0 = row_ptr[begin];
    const std::size_t e1 = row_ptr[end];
    const std::size_t entry_at = col_idx_.size();
    for (std::size_t k = begin + 1; k <= end; ++k)
      row_ptr_.push_back(row_ptr[k] - e0 + entry_at);
    const auto cols = B.col_idx().begin();
    if (remap == nullptr) {
      col_idx_.insert(col_idx_.end(), cols + static_cast<std::ptrdiff_t>(e0),
                      cols + static_cast<std::ptrdiff_t>(e1));
    } else {
      col_idx_.resize(entry_at + (e1 - e0));
      for (std::size_t e = e0; e < e1; ++e)
        col_idx_[entry_at + (e - e0)] = (*remap)[cols[e]];
    }
    const auto vals = B.values().begin();
    values_.insert(values_.end(), vals + static_cast<std::ptrdiff_t>(e0),
                   vals + static_cast<std::ptrdiff_t>(e1));
    b_.insert(b_.end(), b.begin() + static_cast<std::ptrdiff_t>(begin),
              b.begin() + static_cast<std::ptrdiff_t>(end));
    chip_row_.insert(chip_row_.end(),
                     chip_row.begin() + static_cast<std::ptrdiff_t>(begin),
                     chip_row.begin() + static_cast<std::ptrdiff_t>(end));
  }

  void finish(LegalizationModel& model, std::size_t n) {
    const std::size_t m = size();
    model.qp.B = CsrMatrix::from_parts(m, n, std::move(row_ptr_),
                                       std::move(col_idx_),
                                       std::move(values_));
    model.qp.b = std::move(b_);
    model.constraint_row = std::move(chip_row_);
  }

 private:
  void push(std::size_t col, double value) {
    col_idx_.push_back(static_cast<index_t>(col));
    values_.push_back(value);
  }
  void end_row(std::size_t row, double rhs) {
    row_ptr_.push_back(col_idx_.size());
    b_.push_back(rhs);
    chip_row_.push_back(static_cast<index_t>(row));
  }

  std::vector<std::size_t> row_ptr_;
  std::vector<index_t> col_idx_;
  Vector values_;
  Vector b_;
  std::vector<index_t> chip_row_;
};

/// Shared validation + prefix for both builders.
void begin_build(const db::Design& design, const db::CellColumns& cols,
                 const RowAssignment& base_rows, const ModelOptions& options,
                 LegalizationModel& model) {
  MCH_CHECK(base_rows.size() == design.num_cells());
  MCH_CHECK(options.lambda > 0.0);
  check_index_range(design.num_cells(), "design cells");
  model.lambda = options.lambda;
  model.base_rows = base_rows;
  build_prefix(cols, design.chip(), base_rows, options, model);
}

}  // namespace

LegalizationModel build_model(const db::Design& design,
                              const RowAssignment& base_rows,
                              const ModelOptions& options,
                              ConstraintPartition* partition_out) {
  LegalizationModel model;
  const db::CellColumns cols = db::CellColumns::from(design);
  begin_build(design, cols, base_rows, options, model);
  const db::Chip& chip = design.chip();
  const std::size_t n = model.variables.size();
  check_index_range(n, "QP variables");

  // Partition union-find rides the stream: cell ties now, chain ties as
  // each constraint row is emitted below. finalize_partition canonicalizes
  // independently of union order, so the result is bit-identical to
  // partition_model on the finished model.
  UnionFind uf(partition_out != nullptr ? n : 0);
  if (partition_out != nullptr) {
    for (std::size_t c = 0; c < model.cell_first_var.size(); ++c) {
      const std::size_t first = model.cell_first_var[c];
      if (first == LegalizationModel::kNoVariable) continue;
      for (std::size_t k = 1; k < model.cell_var_count[c]; ++k)
        uf.unite(first, first + k);
    }
  }

  // 4. Stream the spacing constraints chip-row by chip-row straight into
  //    the final CSR arrays.
  const ColumnCells cells{cols};
  ConstraintStream stream(n);
  for (std::size_t r = 0; r < chip.num_rows; ++r) {
    walk_row(cells, model.variables,
             row_obstacles(model.row_fixed_cells[r], cells),
             model.row_variables[r],
             [&](std::size_t left, std::size_t right, double rhs) {
               stream.emit(r, left, right, rhs);
               if (partition_out != nullptr && left != kNone)
                 uf.unite(left, right);
             });
  }
  stream.finish(model, n);
  if (partition_out != nullptr)
    *partition_out = finalize_partition(uf, model);
  return model;
}

ModelPatch patch_model(LegalizationModel& model, const db::Design& design,
                       const RowAssignment& base_rows, const EcoDelta& delta) {
  const db::Chip& chip = design.chip();
  const std::vector<db::Cell>& cells = design.cells();
  const std::size_t num_cells = design.num_cells();
  const std::size_t old_cells = model.cell_first_var.size();
  MCH_CHECK(base_rows.size() == num_cells &&
            delta.touched_cells.size() == num_cells &&
            delta.affected_rows.size() == chip.num_rows &&
            model.row_variables.size() == chip.num_rows &&
            old_cells <= num_cells);
  check_index_range(num_cells, "design cells");
  const auto touched = [&](std::size_t c) {
    return delta.touched_cells[c] != 0;
  };
  const auto affected = [&](std::size_t r) {
    return delta.affected_rows[r] != 0;
  };

  ModelPatch patch;
  std::vector<index_t> touched_cells;
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (touched(c))
      touched_cells.push_back(static_cast<index_t>(c));
    else
      MCH_CHECK_MSG(c < old_cells, "new cell " << c << " is not touched");
  }

  // Affected rows drop their touched cells' variables while the old
  // numbering still names their cells; every old variable listed there is
  // a dirty one. A touched cell's old variables all sit in affected rows.
  for (const std::size_t c : touched_cells) {
    if (c >= old_cells) break;
    for (std::size_t k = 0; k < model.cell_var_count[c]; ++k)
      MCH_CHECK_MSG(affected(model.base_rows[c] + k),
                    "delta misses an old row of cell " << c);
  }
  for (std::size_t r = 0; r < chip.num_rows; ++r) {
    if (!affected(r)) continue;
    std::vector<index_t>& vars = model.row_variables[r];
    std::size_t kept = 0;
    for (const index_t v : vars) {
      patch.dirty_variables.push_back(v);
      if (!touched(model.variables[v].cell)) vars[kept++] = v;
    }
    vars.resize(kept);
  }

  // 1. Variables, p and K, in place. Untouched cells keep their variable
  //    count, p entries and Hessian block, so between two touched cells
  //    the variables move as one block: down by the variables of the
  //    movable cells erased so far (none when nothing was erased). A moved
  //    cell keeps its variables and reads p from the design; new cells
  //    (the largest ids) append theirs at the end.
  const std::size_t old_n = model.num_variables();
  patch.new_variable.assign(old_n, kNone);
  std::vector<index_t> erased_blocks;
  std::size_t read = 0;       // next old variable
  std::size_t write = 0;      // its new index, once kept
  std::size_t renumber = 0;   // first cell whose cell_first_var is old
  const auto keep = [&](std::size_t end, std::size_t cell_end) {
    const std::size_t gap = read - write;
    if (gap != 0) {
      std::copy(model.variables.begin() + static_cast<std::ptrdiff_t>(read),
                model.variables.begin() + static_cast<std::ptrdiff_t>(end),
                model.variables.begin() + static_cast<std::ptrdiff_t>(write));
      std::copy(model.qp.p.begin() + static_cast<std::ptrdiff_t>(read),
                model.qp.p.begin() + static_cast<std::ptrdiff_t>(end),
                model.qp.p.begin() + static_cast<std::ptrdiff_t>(write));
      for (std::size_t c = renumber; c < cell_end; ++c)
        if (model.cell_first_var[c] != kNone)
          model.cell_first_var[c] -= static_cast<index_t>(gap);
    }
    for (std::size_t v = read; v < end; ++v)
      patch.new_variable[v] = static_cast<index_t>(v - gap);
    write += end - read;
    read = end;
    renumber = cell_end;
  };
  for (const std::size_t c : touched_cells) {
    if (c >= old_cells) break;
    const std::size_t d = model.cell_var_count[c];
    const db::Cell& cell = cells[c];
    if (d == 0) {
      MCH_CHECK_MSG(cell.fixed || cell.erased,
                    "cell " << c << " gained variables");
      continue;
    }
    keep(model.cell_first_var[c], c);
    renumber = c + 1;
    if (cell.erased) {
      erased_blocks.push_back(static_cast<index_t>(model.qp.K.block_of(read)));
      model.cell_first_var[c] = kNone;
      model.cell_var_count[c] = 0;
      read += d;
      continue;
    }
    MCH_CHECK_MSG(!cell.fixed && cell.height_rows == d,
                  "cell " << c << " changed height");
    for (std::size_t k = 0; k < d; ++k) {
      model.variables[write + k] = model.variables[read + k];
      model.qp.p[write + k] = -cell.gp_x;
      patch.new_variable[read + k] = static_cast<index_t>(write + k);
    }
    model.cell_first_var[c] = static_cast<index_t>(write);
    read += d;
    write += d;
  }
  keep(old_n, old_cells);
  model.variables.resize(write);
  model.qp.p.resize(write);
  model.qp.K.erase_blocks(erased_blocks);
  model.cell_first_var.resize(num_cells, kNone);
  model.cell_var_count.resize(num_cells, 0);
  ChainBlocks chain(model.lambda);
  for (const std::size_t c : touched_cells) {
    const db::Cell& cell = cells[c];
    if (c < old_cells || cell.fixed || cell.erased) continue;
    const std::size_t d = cell.height_rows;
    model.cell_first_var[c] = to_index(model.variables.size());
    model.cell_var_count[c] = static_cast<index_t>(d);
    for (std::size_t k = 0; k < d; ++k) {
      model.variables.push_back(
          {static_cast<index_t>(c), static_cast<index_t>(k)});
      model.qp.p.push_back(-cell.gp_x);
    }
    chain.append(model.qp.K, d);
  }
  const std::size_t n = model.variables.size();
  check_index_range(n, "QP variables");
  MCH_CHECK(model.qp.K.size() == n);
  // With no erase the numbering of every surviving variable is unchanged.
  patch.shifted = !erased_blocks.empty();

  // 2. Row assignment and fixed cells: only touched cells change, and a
  //    touched fixed cell (erased, or a new obstacle) sits in affected rows.
  model.base_rows.resize(num_cells, 0);
  for (const std::size_t c : touched_cells) model.base_rows[c] = base_rows[c];
  for (std::size_t r = 0; r < chip.num_rows; ++r) {
    if (!affected(r)) continue;
    auto& fixed = model.row_fixed_cells[r];
    fixed.erase(std::remove_if(fixed.begin(), fixed.end(),
                               [&](std::size_t c) { return touched(c); }),
                fixed.end());
  }
  for (const std::size_t c : touched_cells) {
    const db::Cell& cell = cells[c];
    if (!cell.fixed || cell.erased) continue;
    const auto [first, end] = outline_rows(cell.y, cell.height_rows, chip);
    for (std::size_t r = first; r < end; ++r) {
      MCH_CHECK_MSG(affected(r), "delta misses a row of fixed cell " << c);
      auto& fixed = model.row_fixed_cells[r];
      fixed.insert(std::upper_bound(fixed.begin(), fixed.end(), c),
                   static_cast<index_t>(c));
    }
  }

  // 3. Row variable lists. A row keeps its untouched members and their
  //    order; only the ids move. Touched cells join the affected rows of
  //    their new span, and walk_row re-sorts those rows.
  if (patch.shifted)
    for (std::vector<index_t>& vars : model.row_variables)
      for (index_t& v : vars) v = patch.new_variable[v];
  for (const std::size_t c : touched_cells) {
    const std::size_t first = model.cell_first_var[c];
    if (first == kNone) continue;
    for (std::size_t k = 0; k < model.cell_var_count[c]; ++k) {
      const std::size_t r = base_rows[c] + k;
      MCH_CHECK_MSG(r < chip.num_rows, "cell " << c
                                                << " does not fit vertically");
      MCH_CHECK_MSG(affected(r), "delta misses a row of cell " << c);
      model.row_variables[r].push_back(to_index(first + k));
    }
  }

  // 4. Constraints in one chip-row-ordered pass: each run of unaffected
  //    rows copies its slice of B in bulk, columns remapped; an affected
  //    row is re-walked into the same stream build_model emits into.
  const CsrMatrix old_B = std::move(model.qp.B);
  const Vector old_b = std::move(model.qp.b);
  const std::vector<index_t> old_row = std::move(model.constraint_row);
  const std::size_t old_m = old_b.size();
  patch.new_constraint.assign(old_m, kNone);
  const DesignCells design_cells{cells};
  ConstraintStream stream(n);
  std::size_t j = 0;
  for (std::size_t r = 0; r < chip.num_rows;) {
    std::size_t run_end = r;
    while (run_end < chip.num_rows && !affected(run_end)) ++run_end;
    const std::size_t begin = j;
    j = static_cast<std::size_t>(
        std::lower_bound(old_row.begin() + static_cast<std::ptrdiff_t>(j),
                         old_row.end(), static_cast<index_t>(run_end)) -
        old_row.begin());
    if (run_end > r) {
      stream.copy(old_B, old_b, old_row, begin, j,
                  patch.shifted ? &patch.new_variable : nullptr,
                  patch.new_constraint);
      r = run_end;
      continue;
    }
    while (j < old_m && old_row[j] == r) ++j;
    walk_row(design_cells, model.variables,
             row_obstacles(model.row_fixed_cells[r], design_cells),
             model.row_variables[r],
             [&](std::size_t left, std::size_t right, double rhs) {
               stream.emit(r, left, right, rhs);
             });
    ++r;
  }
  MCH_CHECK_MSG(j == old_m, "constraint rows are not in chip-row order");
  stream.finish(model, n);
  return patch;
}

LegalizationModel build_model_monolithic(const db::Design& design,
                                         const RowAssignment& base_rows,
                                         const ModelOptions& options) {
  LegalizationModel model;
  const db::CellColumns cols = db::CellColumns::from(design);
  begin_build(design, cols, base_rows, options, model);
  const db::Chip& chip = design.chip();
  const std::size_t n = model.variables.size();
  check_index_range(n, "QP variables");

  // 4. Reference path: collect every constraint in a pending list, stage
  //    the whole design in a COO accumulator, convert at the end.
  struct PendingConstraint {
    std::size_t left = LegalizationModel::kNoVariable;  ///< chain partner
    std::size_t right = 0;
    double rhs = 0.0;
    std::size_t chip_row = 0;  ///< row the constraint was emitted in
  };
  std::vector<PendingConstraint> pending;
  const ColumnCells cells{cols};
  for (std::size_t r = 0; r < chip.num_rows; ++r) {
    walk_row(cells, model.variables,
             row_obstacles(model.row_fixed_cells[r], cells),
             model.row_variables[r],
             [&](std::size_t left, std::size_t right, double rhs) {
               pending.push_back({left, right, rhs, r});
             });
  }

  const std::size_t m = pending.size();
  CooMatrix coo(m, n);
  coo.reserve(2 * m);
  model.qp.b.resize(m);
  model.constraint_row.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    const PendingConstraint& pc = pending[r];
    model.constraint_row[r] = static_cast<index_t>(pc.chip_row);
    if (pc.left != LegalizationModel::kNoVariable) coo.add(r, pc.left, -1.0);
    coo.add(r, pc.right, 1.0);
    model.qp.b[r] = pc.rhs;
  }
  model.qp.B = CsrMatrix::from_coo(coo);
  return model;
}

}  // namespace mch::legal
