#include "linalg/block_diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace mch::linalg {
namespace {

// The Hessian block of a d-subcell cell: I_d + λ·chain-Laplacian, exactly as
// the legalization model builds it.
DenseMatrix cell_block(std::size_t d, double lambda) {
  DenseMatrix block(d, d);
  for (std::size_t i = 0; i < d; ++i) block(i, i) = 1.0;
  for (std::size_t i = 0; i + 1 < d; ++i) {
    block(i, i) += lambda;
    block(i + 1, i + 1) += lambda;
    block(i, i + 1) -= lambda;
    block(i + 1, i) -= lambda;
  }
  return block;
}

TEST(BlockDiagTest, SizesAndOffsets) {
  BlockDiagMatrix k;
  k.add_block(DenseMatrix::identity(1));
  k.add_block(cell_block(2, 10.0));
  k.add_block(DenseMatrix::identity(1));
  EXPECT_EQ(k.size(), 4u);
  EXPECT_EQ(k.block_count(), 3u);
  EXPECT_EQ(k.block_offset(0), 0u);
  EXPECT_EQ(k.block_offset(1), 1u);
  EXPECT_EQ(k.block_offset(2), 3u);
  EXPECT_EQ(k.block_of(0), 0u);
  EXPECT_EQ(k.block_of(1), 1u);
  EXPECT_EQ(k.block_of(2), 1u);
  EXPECT_EQ(k.block_of(3), 2u);
}

TEST(BlockDiagTest, EntryAccess) {
  BlockDiagMatrix k;
  k.add_block(cell_block(2, 5.0));
  k.add_block(DenseMatrix::identity(1));
  EXPECT_DOUBLE_EQ(k.entry(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(k.entry(0, 1), -5.0);
  EXPECT_DOUBLE_EQ(k.entry(0, 2), 0.0);  // cross-block
  EXPECT_DOUBLE_EQ(k.entry(2, 2), 1.0);
}

TEST(BlockDiagTest, InverseEntryMatchesDenseInverse) {
  const DenseMatrix block = cell_block(3, 7.0);
  DenseMatrix inv;
  ASSERT_TRUE(block.inverse(inv));
  BlockDiagMatrix k;
  k.add_block(block);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(k.inverse_entry(r, c), inv(r, c), 1e-12);
}

TEST(BlockDiagTest, MultiplyAndSolveRoundTrip) {
  Rng rng(9);
  BlockDiagMatrix k;
  k.add_block(cell_block(1, 3.0));
  k.add_block(cell_block(2, 3.0));
  k.add_block(cell_block(4, 3.0));
  Vector x(k.size());
  for (double& v : x) v = rng.uniform(-2, 2);
  Vector kx, back;
  k.multiply(x, kx);
  k.solve(kx, back);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

TEST(BlockDiagTest, SolveShiftedMatchesDense) {
  Rng rng(10);
  BlockDiagMatrix k;
  k.add_block(cell_block(1, 2.0));
  k.add_block(cell_block(3, 2.0));
  const double alpha = 2.0, beta = 1.0;
  Vector rhs(k.size());
  for (double& v : rhs) v = rng.uniform(-1, 1);
  Vector x;
  k.solve_shifted(alpha, beta, rhs, x);

  // Verify (αK + βI)x = rhs.
  Vector check(k.size(), 0.0);
  k.multiply_add(alpha, x, check);
  for (std::size_t i = 0; i < x.size(); ++i) check[i] += beta * x[i];
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(check[i], rhs[i], 1e-9);
}

TEST(BlockDiagTest, SingularBlockRejected) {
  DenseMatrix zero(2, 2);
  BlockDiagMatrix k;
  EXPECT_THROW(k.add_block(zero), CheckError);
}

TEST(BlockDiagTest, MultiplyAddScalesCorrectly) {
  BlockDiagMatrix k;
  k.add_block(DenseMatrix::identity(2));
  Vector y = {1, 1};
  k.multiply_add(-3.0, {2, 4}, y);
  EXPECT_EQ(y, (Vector{-5, -11}));
}

// Property: block-diagonal operations agree with assembling the full dense
// matrix, across random block structures.
class BlockDiagRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockDiagRandomSweep, AgreesWithDenseAssembly) {
  Rng rng(100 + GetParam());
  BlockDiagMatrix k;
  std::size_t n = 0;
  const int blocks = 1 + static_cast<int>(rng.uniform_int(0, 5));
  for (int b = 0; b < blocks; ++b) {
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 4));
    k.add_block(cell_block(d, rng.uniform(0.5, 20.0)));
    n += d;
  }
  DenseMatrix dense(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) dense(r, c) = k.entry(r, c);

  Vector x(n);
  for (double& v : x) v = rng.uniform(-1, 1);
  Vector via_block, via_dense;
  k.multiply(x, via_block);
  dense.multiply(x, via_dense);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(via_block[i], via_dense[i], 1e-10);

  Vector solved, dense_solved;
  k.solve(x, solved);
  ASSERT_TRUE(dense.solve(x, dense_solved));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(solved[i], dense_solved[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Trials, BlockDiagRandomSweep, ::testing::Range(0, 10));

// 1×1 blocks live only in the flat scalar arrays — no DenseMatrix, no
// stored inverse matrix. The two entry points must behave identically.
TEST(BlockDiagScalarTest, AddBlockRoutesOneByOneToScalarStorage) {
  BlockDiagMatrix via_dense, via_scalar;
  via_dense.add_block(cell_block(1, 0.0));  // 1×1 identity via DenseMatrix
  DenseMatrix one_by_one(1, 1);
  one_by_one(0, 0) = 3.5;
  via_dense.add_block(one_by_one);
  via_scalar.add_scalar_block(1.0);
  via_scalar.add_scalar_block(3.5);

  for (const BlockDiagMatrix* k : {&via_dense, &via_scalar}) {
    EXPECT_TRUE(k->is_scalar_block(0));
    EXPECT_TRUE(k->is_scalar_block(1));
    EXPECT_EQ(k->scalar_values(), (std::vector<double>{1.0, 3.5}));
    EXPECT_EQ(k->scalar_inverses(), (std::vector<double>{1.0, 1.0 / 3.5}));
  }
}

TEST(BlockDiagScalarTest, BlockAccessorThrowsOnScalar) {
  BlockDiagMatrix k;
  k.add_scalar_block(2.0);
  k.add_block(cell_block(2, 4.0));
  EXPECT_THROW(k.block(0), CheckError);
  EXPECT_NO_THROW(k.block(1));
  EXPECT_DOUBLE_EQ(k.entry(0, 0), 2.0);  // read scalars through entry()
  EXPECT_DOUBLE_EQ(k.inverse_entry(0, 0), 0.5);
}

TEST(BlockDiagScalarTest, ScalarArraysZeroedUnderGeneralBlocks) {
  BlockDiagMatrix k;
  k.add_scalar_block(5.0);
  k.add_block(cell_block(2, 4.0));
  k.add_scalar_block(0.25);
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k.scalar_values(), (std::vector<double>{5.0, 0.0, 0.0, 0.25}));
  EXPECT_EQ(k.scalar_inverses(), (std::vector<double>{0.2, 0.0, 0.0, 4.0}));
}

TEST(BlockDiagScalarTest, SingularScalarRejectedLikeDense) {
  BlockDiagMatrix k;
  EXPECT_THROW(k.add_scalar_block(0.0), CheckError);
  DenseMatrix zero(1, 1);
  EXPECT_THROW(k.add_block(zero), CheckError);
}

TEST(BlockDiagScalarTest, MixedScalarGeneralSolveMatchesDense) {
  Rng rng(42);
  BlockDiagMatrix k;
  k.add_scalar_block(2.5);
  k.add_block(cell_block(3, 6.0));
  k.add_scalar_block(0.75);
  const std::size_t n = k.size();
  DenseMatrix dense(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) dense(r, c) = k.entry(r, c);

  Vector rhs(n);
  for (double& v : rhs) v = rng.uniform(-1, 1);
  Vector solved, dense_solved, product, dense_product;
  k.solve(rhs, solved);
  ASSERT_TRUE(dense.solve(rhs, dense_solved));
  k.multiply(rhs, product);
  dense.multiply(rhs, dense_product);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(solved[i], dense_solved[i], 1e-10);
    EXPECT_NEAR(product[i], dense_product[i], 1e-12);
  }
}

// Erasing blocks in place leaves exactly the matrix built from the kept
// blocks alone: offsets, scalar arrays, general blocks and their stored
// inverses, with scalar and general blocks erased at the front, the middle
// and the end.
TEST(BlockDiagTest, EraseBlocksMatchesRebuildWithoutThem) {
  const std::vector<std::size_t> heights = {2, 1, 3, 1, 1, 2, 4, 1, 2};
  BlockDiagMatrix k;
  for (const std::size_t d : heights) k.add_block(cell_block(d, 7.0));
  const std::vector<index_t> erase = {0, 3, 5, 8};
  BlockDiagMatrix kept;
  for (std::size_t b = 0; b < heights.size(); ++b)
    if (std::find(erase.begin(), erase.end(), b) == erase.end())
      kept.add_block(cell_block(heights[b], 7.0));

  k.erase_blocks(erase);
  ASSERT_EQ(k.size(), kept.size());
  ASSERT_EQ(k.block_count(), kept.block_count());
  EXPECT_EQ(k.scalar_values(), kept.scalar_values());
  EXPECT_EQ(k.scalar_inverses(), kept.scalar_inverses());
  EXPECT_EQ(k.general_block_indices(), kept.general_block_indices());
  for (std::size_t b = 0; b < k.block_count(); ++b) {
    ASSERT_EQ(k.block_offset(b), kept.block_offset(b));
    ASSERT_EQ(k.is_scalar_block(b), kept.is_scalar_block(b));
  }
  for (std::size_t i = 0; i < k.size(); ++i)
    for (std::size_t j = 0; j < k.size(); ++j) {
      EXPECT_EQ(k.entry(i, j), kept.entry(i, j));
      EXPECT_EQ(k.inverse_entry(i, j), kept.inverse_entry(i, j));
    }
  EXPECT_THROW(k.erase_blocks({2, 1}), CheckError);
}

}  // namespace
}  // namespace mch::linalg
