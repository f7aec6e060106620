// Field-by-field bitwise comparison of two legalization models and of two
// constraint partitions, shared by the builder-identity tests, the
// model-patch delta stream and the ECO fuzz of the resident session.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "legal/model.h"
#include "legal/partition.h"

namespace mch::oracle {

// Exact (bitwise) equality of every model array. EXPECT_EQ on double
// vectors is deliberate: the paths under test must emit the same bits, not
// merely close values.
inline void expect_models_identical(const legal::LegalizationModel& a,
                                    const legal::LegalizationModel& b) {
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.qp.p, b.qp.p);
  EXPECT_EQ(a.qp.b, b.qp.b);

  // CSR spine of B: the three arrays, not just the logical matrix.
  EXPECT_EQ(a.qp.B.rows(), b.qp.B.rows());
  EXPECT_EQ(a.qp.B.cols(), b.qp.B.cols());
  EXPECT_EQ(a.qp.B.row_ptr(), b.qp.B.row_ptr());
  EXPECT_EQ(a.qp.B.col_idx(), b.qp.B.col_idx());
  EXPECT_EQ(a.qp.B.values(), b.qp.B.values());

  // K block structure and payload (scalar fast-path arrays carry the 1×1
  // blocks; general blocks and their stored inverses are compared
  // entry-wise).
  ASSERT_EQ(a.qp.K.size(), b.qp.K.size());
  ASSERT_EQ(a.qp.K.block_count(), b.qp.K.block_count());
  EXPECT_EQ(a.qp.K.scalar_values(), b.qp.K.scalar_values());
  EXPECT_EQ(a.qp.K.scalar_inverses(), b.qp.K.scalar_inverses());
  EXPECT_EQ(a.qp.K.general_block_indices(), b.qp.K.general_block_indices());
  for (std::size_t blk = 0; blk < a.qp.K.block_count(); ++blk) {
    ASSERT_EQ(a.qp.K.block_offset(blk), b.qp.K.block_offset(blk));
    ASSERT_EQ(a.qp.K.block_size(blk), b.qp.K.block_size(blk));
    ASSERT_EQ(a.qp.K.is_scalar_block(blk), b.qp.K.is_scalar_block(blk));
    if (a.qp.K.is_scalar_block(blk)) continue;
    const std::size_t off = a.qp.K.block_offset(blk);
    const std::size_t d = a.qp.K.block_size(blk);
    for (std::size_t r = 0; r < d; ++r)
      for (std::size_t c = 0; c < d; ++c) {
        EXPECT_EQ(a.qp.K.entry(off + r, off + c),
                  b.qp.K.entry(off + r, off + c))
            << "K block " << blk << " (" << r << "," << c << ")";
        EXPECT_EQ(a.qp.K.inverse_entry(off + r, off + c),
                  b.qp.K.inverse_entry(off + r, off + c))
            << "K⁻¹ block " << blk << " (" << r << "," << c << ")";
      }
  }

  // Bookkeeping arrays.
  ASSERT_EQ(a.variables.size(), b.variables.size());
  for (std::size_t v = 0; v < a.variables.size(); ++v) {
    EXPECT_EQ(a.variables[v].cell, b.variables[v].cell) << "variable " << v;
    EXPECT_EQ(a.variables[v].subrow, b.variables[v].subrow)
        << "variable " << v;
  }
  EXPECT_EQ(a.cell_first_var, b.cell_first_var);
  EXPECT_EQ(a.cell_var_count, b.cell_var_count);
  EXPECT_EQ(a.base_rows, b.base_rows);
  EXPECT_EQ(a.row_variables, b.row_variables);
  EXPECT_EQ(a.constraint_row, b.constraint_row);
  EXPECT_EQ(a.row_fixed_cells, b.row_fixed_cells);
}

inline void expect_partitions_identical(const legal::ConstraintPartition& a,
                                        const legal::ConstraintPartition& b) {
  EXPECT_EQ(a.variable_component, b.variable_component);
  EXPECT_EQ(a.constraint_component, b.constraint_component);
  EXPECT_EQ(a.component_variables, b.component_variables);
  EXPECT_EQ(a.component_constraints, b.component_constraints);
}

}  // namespace mch::oracle
