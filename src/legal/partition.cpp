#include "legal/partition.h"

#include <algorithm>

#include "util/check.h"

namespace mch::legal {

ConstraintPartition finalize_partition(UnionFind& uf,
                                       const LegalizationModel& model) {
  const std::size_t n = model.num_variables();
  const std::size_t m = model.qp.num_constraints();
  const auto& B = model.qp.B;
  check_index_range(n, "partition variables");
  check_index_range(m, "partition constraints");

  ConstraintPartition partition;
  partition.variable_component.assign(n, 0);

  // Canonical component ids: ascending smallest variable index. Scanning
  // the variables in order and numbering unseen roots achieves exactly
  // that, and fills component_variables sorted as a side effect.
  std::vector<std::size_t> root_component(n, static_cast<std::size_t>(-1));
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = uf.find(v);
    if (root_component[root] == static_cast<std::size_t>(-1)) {
      root_component[root] = partition.component_variables.size();
      partition.component_variables.emplace_back();
    }
    const std::size_t c = root_component[root];
    partition.variable_component[v] = static_cast<index_t>(c);
    partition.component_variables[c].push_back(static_cast<index_t>(v));
  }

  partition.constraint_component.assign(m, 0);
  partition.component_constraints.resize(partition.num_components());
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t c =
        partition.variable_component[B.col_idx()[B.row_ptr()[r]]];
    partition.constraint_component[r] = static_cast<index_t>(c);
    partition.component_constraints[c].push_back(static_cast<index_t>(r));
  }
  return partition;
}

std::size_t ConstraintPartition::max_component_size() const {
  std::size_t worst = 0;
  for (std::size_t c = 0; c < num_components(); ++c)
    worst = std::max(worst, component_size(c));
  return worst;
}

double ConstraintPartition::mean_component_size() const {
  if (num_components() == 0) return 0.0;
  std::size_t total = 0;
  for (std::size_t c = 0; c < num_components(); ++c)
    total += component_size(c);
  return static_cast<double>(total) / static_cast<double>(num_components());
}

ConstraintPartition partition_model(const LegalizationModel& model) {
  const std::size_t n = model.num_variables();
  const std::size_t m = model.qp.num_constraints();
  UnionFind uf(n);

  // Subcell ties: each Hessian block spans one cell's contiguous variables.
  const auto& k = model.qp.K;
  for (std::size_t b = 0; b < k.block_count(); ++b) {
    const std::size_t off = k.block_offset(b);
    for (std::size_t i = 1; i < k.block_size(b); ++i)
      uf.unite(off, off + i);
  }

  // Spacing chains: each row of B couples its (at most two) variables.
  const auto& B = model.qp.B;
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t begin = B.row_ptr()[r];
    const std::size_t end = B.row_ptr()[r + 1];
    MCH_CHECK_MSG(end > begin, "constraint " << r << " has no variables");
    for (std::size_t e = begin + 1; e < end; ++e)
      uf.unite(B.col_idx()[begin], B.col_idx()[e]);
  }

  return finalize_partition(uf, model);
}

void patch_partition(ConstraintPartition& partition,
                     const LegalizationModel& model, const ModelPatch& patch,
                     const EcoDelta& delta) {
  constexpr index_t kNone = LegalizationModel::kNoVariable;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.qp.num_constraints();
  const auto& B = model.qp.B;
  MCH_CHECK(partition.variable_component.size() == patch.new_variable.size() &&
            partition.constraint_component.size() ==
                patch.new_constraint.size() &&
            delta.affected_rows.size() == model.row_variables.size());
  check_index_range(n, "partition variables");
  check_index_range(m, "partition constraints");

  std::vector<char> dirty(partition.num_components(), 0);
  for (const std::size_t v : patch.dirty_variables)
    dirty[partition.variable_component[v]] = 1;

  // The variables and constraint rows to re-unite: those of the affected
  // chip rows and those of the dirty previous components, renumbered. The
  // set is closed under the model's edges: a variable of an untouched cell
  // in an affected row was there before and pulled its whole previous
  // component in, and every touched cell sits in affected rows only.
  // Marked densely, so a scan lists them in ascending order.
  std::vector<index_t> local(n, kNone);
  std::vector<char> marked_rows(m, 0);
  for (std::size_t r = 0; r < model.row_variables.size(); ++r) {
    if (delta.affected_rows[r] == 0) continue;
    for (const index_t v : model.row_variables[r]) local[v] = 0;
    const auto range = std::equal_range(model.constraint_row.begin(),
                                        model.constraint_row.end(),
                                        static_cast<index_t>(r));
    for (auto it = range.first; it != range.second; ++it)
      marked_rows[static_cast<std::size_t>(
          it - model.constraint_row.begin())] = 1;
  }

  // Clean components keep their lists, renumbered; the renumbering keeps
  // every list ascending.
  std::vector<std::vector<index_t>> component_variables;
  std::vector<std::vector<index_t>> component_constraints;
  for (std::size_t c = 0; c < partition.num_components(); ++c) {
    std::vector<index_t>& cv = partition.component_variables[c];
    std::vector<index_t>& cr = partition.component_constraints[c];
    if (dirty[c] != 0) {
      for (const index_t v : cv)
        if (patch.new_variable[v] != kNone) local[patch.new_variable[v]] = 0;
      for (const index_t k : cr)
        if (patch.new_constraint[k] != kNone)
          marked_rows[patch.new_constraint[k]] = 1;
      continue;
    }
    if (patch.shifted)
      for (index_t& v : cv) v = patch.new_variable[v];
    for (index_t& k : cr) k = patch.new_constraint[k];
    component_variables.push_back(std::move(cv));
    component_constraints.push_back(std::move(cr));
  }
  std::vector<index_t> vars;
  for (std::size_t v = 0; v < n; ++v) {
    if (local[v] == kNone) continue;
    local[v] = static_cast<index_t>(vars.size());
    vars.push_back(static_cast<index_t>(v));
  }
  const auto local_of = [&](std::size_t v) -> std::size_t {
    MCH_CHECK_MSG(local[v] != kNone,
                  "variable " << v << " escaped the re-united set");
    return local[v];
  };

  // Union-find over the re-united variables, in local indices.
  UnionFind uf(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    // Subcell ties: a cell's variables are consecutive ids, all in the set.
    if (model.variables[vars[i]].subrow == 0) continue;
    MCH_CHECK(i > 0 && vars[i - 1] + 1 == vars[i]);
    uf.unite(i - 1, i);
  }
  std::vector<index_t> rows;
  for (std::size_t k = 0; k < m; ++k)
    if (marked_rows[k] != 0) rows.push_back(static_cast<index_t>(k));
  for (const std::size_t k : rows) {
    const std::size_t begin = B.row_ptr()[k];
    const std::size_t end = B.row_ptr()[k + 1];
    MCH_CHECK_MSG(end > begin, "constraint " << k << " has no variables");
    const std::size_t first = local_of(B.col_idx()[begin]);
    for (std::size_t e = begin + 1; e < end; ++e)
      uf.unite(first, local_of(B.col_idx()[e]));
  }
  std::vector<std::size_t> root_component(vars.size(),
                                          static_cast<std::size_t>(-1));
  std::vector<std::size_t> local_component(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const std::size_t root = uf.find(i);
    if (root_component[root] == static_cast<std::size_t>(-1)) {
      root_component[root] = component_variables.size();
      component_variables.emplace_back();
      component_constraints.emplace_back();
    }
    local_component[i] = root_component[root];
    component_variables[local_component[i]].push_back(vars[i]);
  }
  for (const index_t k : rows)
    component_constraints[local_component[local_of(
                              B.col_idx()[B.row_ptr()[k]])]]
        .push_back(k);

  // Canonical order: ascending smallest variable.
  std::vector<std::size_t> order(component_variables.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return component_variables[a][0] < component_variables[b][0];
  });
  partition.component_variables.resize(order.size());
  partition.component_constraints.resize(order.size());
  partition.variable_component.assign(n, 0);
  partition.constraint_component.assign(m, 0);
  for (std::size_t c = 0; c < order.size(); ++c) {
    partition.component_variables[c] =
        std::move(component_variables[order[c]]);
    partition.component_constraints[c] =
        std::move(component_constraints[order[c]]);
    for (const index_t v : partition.component_variables[c])
      partition.variable_component[v] = static_cast<index_t>(c);
    for (const index_t k : partition.component_constraints[c])
      partition.constraint_component[k] = static_cast<index_t>(c);
  }
}

}  // namespace mch::legal
