// Connected-component decomposition of the legalization constraint graph.
//
// The relaxed LCP couples variables only through (a) same-row spacing
// chains — the rows of B — and (b) the subcell ties of multi-row cells —
// the blocks of K. Treating both as edges, the constraint graph falls
// apart into many independent components: every obstacle breaks a row
// chain, and rows that share no tall cell never talk to each other. Each
// component is a self-contained QP that can be solved in isolation and in
// parallel with the others; the partitioned legalizer in mmsim_legalizer.cpp
// is built on exactly this observation (cf. the locality argument of Cong &
// Romesis & Xie's placement-suboptimality studies: post-GP subproblems are
// overwhelmingly local).
//
// The decomposition is lossless: the right chip boundary is relaxed in the
// model (repaired later by the Tetris-like allocation), so no global
// resource couples the components — the partitioned optimum is the global
// optimum restricted to each component.
#pragma once

#include <cstddef>
#include <vector>

#include "legal/model.h"
#include "legal/union_find.h"
#include "util/index.h"

namespace mch::legal {

/// The connected components of a model's constraint graph, in canonical
/// order (ascending smallest global variable index). All index lists are
/// sorted ascending, so extracted sub-problems preserve the global relative
/// ordering of variables and constraint rows. Stored as index_t: the four
/// arrays together hold ~2(n+m) indices and are resident for a session's
/// lifetime.
struct ConstraintPartition {
  std::vector<index_t> variable_component;    ///< variable -> component
  std::vector<index_t> constraint_component;  ///< B row -> component
  std::vector<std::vector<index_t>> component_variables;
  std::vector<std::vector<index_t>> component_constraints;

  std::size_t num_components() const { return component_variables.size(); }

  /// Variables + constraints of component c (its KKT LCP dimension).
  std::size_t component_size(std::size_t c) const {
    return component_variables[c].size() + component_constraints[c].size();
  }

  std::size_t max_component_size() const;
  double mean_component_size() const;
};

/// Computes the components by union-find over the model's variables: the
/// variables of each Hessian block (one multi-row cell) are united, as are
/// the variables sharing a spacing row of B.
ConstraintPartition partition_model(const LegalizationModel& model);

/// Turns a fully-united union-find over the model's variables into the
/// canonical partition: component ids ascend by smallest variable index,
/// all index lists sorted. Shared by partition_model and the streamed build
/// (build_model's partition_out), so both produce bit-identical partitions
/// from the same edge set regardless of union order. Requires model.qp.B
/// to be fully assembled.
ConstraintPartition finalize_partition(UnionFind& uf,
                                       const LegalizationModel& model);

/// Patches `partition`, the canonical partition of the model before
/// patch_model, into the canonical partition of the patched `model`:
/// exactly partition_model(model). A previous component with no variable
/// among patch.dirty_variables is clean: its cells are untouched and its
/// rows unaffected, so its spacing rows were copied and it is still a
/// component; its lists are only renumbered. The variables and constraint
/// rows of the other previous components, plus everything in the affected
/// chip rows, are re-united locally, and the canonical order is restored by
/// sorting the component heads.
void patch_partition(ConstraintPartition& partition,
                     const LegalizationModel& model, const ModelPatch& patch,
                     const EcoDelta& delta);

}  // namespace mch::legal
