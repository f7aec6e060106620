// Block-diagonal SPD matrices with contiguous blocks.
//
// The Hessian K = Q + λEᵀE of the penalized legalization QP couples only
// the subcell variables of one cell, so K is block diagonal with one block
// per cell (a 1x1 block for single-row-height cells). This class stores the
// blocks and their explicit inverses, giving O(n) apply/solve and O(1)
// access to individual entries of K⁻¹ — the access pattern needed to form
// the tridiagonal Schur-complement approximation D.
//
// Storage is split by block size. Single-row-height cells dominate a design
// (typically ≥ 90% of blocks), and a DenseMatrix carries two heap
// allocations plus size bookkeeping — ~160 bytes for a 1×1 value. Scalar
// blocks therefore live *only* in the flat scalar_values_/scalar_inverses_
// arrays (8 bytes each per variable, which the iteration kernels sweep
// anyway); DenseMatrix storage exists just for the general (non-1×1)
// blocks. At 10M cells this removes ~1.5 GB of per-block overhead without
// changing a single arithmetic result: a 1×1 inverse is computed as exactly
// 1.0/v by DenseMatrix::solve's back-substitution, which add_scalar_block
// reproduces verbatim.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"
#include "util/index.h"

namespace mch::linalg {

class BlockDiagMatrix {
 public:
  BlockDiagMatrix() = default;

  /// Appends an SPD block at the next free offset. Throws CheckError if the
  /// block is not invertible. 1×1 blocks are routed to add_scalar_block.
  /// Returns the block index.
  std::size_t add_block(const DenseMatrix& block);

  /// Appends a 1×1 block holding `value` without materializing a
  /// DenseMatrix. Bitwise identical to add_block on the equivalent 1×1
  /// matrix: the stored inverse is exactly 1.0/value, and the singularity
  /// threshold (|value| < 1e-300) matches DenseMatrix::solve's pivot check.
  std::size_t add_scalar_block(double value);

  /// Appends a copy of this matrix's block b — block and stored inverse —
  /// to dst, skipping the re-inversion add_block would do. Used when
  /// extracting sub-problems that reuse existing blocks verbatim. Returns
  /// dst's new block index.
  std::size_t append_block_to(BlockDiagMatrix& dst, std::size_t b) const;

  /// Removes the given blocks (block indices, strictly ascending) in place:
  /// the remaining blocks keep their order, values and stored inverses and
  /// move down to close the gaps. One pass over the matrix, no inversion.
  void erase_blocks(const std::vector<index_t>& blocks);

  /// Total matrix dimension (sum of block sizes).
  std::size_t size() const { return size_; }
  std::size_t block_count() const { return offsets_.size(); }

  /// Starting variable index of a block.
  std::size_t block_offset(std::size_t b) const { return offsets_[b]; }
  /// Dimension of a block (O(1): derived from the offset deltas).
  std::size_t block_size(std::size_t b) const {
    const std::size_t next =
        b + 1 < offsets_.size() ? offsets_[b + 1] : size_;
    return next - offsets_[b];
  }

  /// True when block b is a 1×1 block (stored only in the flat arrays).
  bool is_scalar_block(std::size_t b) const { return scalar_mask_[b]; }

  /// Dense view of a *general* (non-1×1) block. Scalar blocks have no
  /// DenseMatrix representation — read them through scalar_values() /
  /// entry(); calling block() on one throws CheckError.
  const DenseMatrix& block(std::size_t b) const {
    return general_dense_[general_slot(b)];
  }
  const DenseMatrix& block_inverse(std::size_t b) const {
    return general_inverses_[general_slot(b)];
  }

  /// Block index owning variable i (O(log #blocks)).
  std::size_t block_of(std::size_t i) const;

  /// Entry K(i, j); zero when i and j belong to different blocks.
  double entry(std::size_t i, std::size_t j) const;

  /// Entry K⁻¹(i, j); zero when i and j belong to different blocks.
  double inverse_entry(std::size_t i, std::size_t j) const;

  /// y = K x.
  void multiply(const Vector& x, Vector& y) const;

  /// y += alpha * K x.
  void multiply_add(double alpha, const Vector& x, Vector& y) const;
  /// The same product on raw arrays of size() entries each, so a caller
  /// can multiply a slice of a larger vector in place.
  void multiply_add(double alpha, const double* x, double* y) const;

  /// Solves K y = x exactly via the stored block inverses.
  void solve(const Vector& x, Vector& y) const;

  /// Solves (alpha*K + beta*I) y = x. Each block system is solved densely;
  /// requires the shifted blocks to be nonsingular (true for alpha,beta > 0
  /// since K is SPD).
  void solve_shifted(double alpha, double beta, const Vector& x,
                     Vector& y) const;

  /// Flat per-variable view of the dominant 1×1 blocks: K(i,i) where
  /// variable i is a scalar block, 0.0 at positions owned by larger blocks.
  /// This is the exact array multiply_add sweeps, exposed so fused iteration
  /// kernels (lcp/mmsim.cpp) can replicate its arithmetic in place.
  const std::vector<double>& scalar_values() const { return scalar_values_; }
  /// Flat per-variable view of 1/K(i,i), zeros at non-scalar positions.
  const std::vector<double>& scalar_inverses() const {
    return scalar_inverses_;
  }
  /// Block indices of the non-1×1 blocks, in ascending offset order.
  /// Position g in this list is also the storage slot behind block() for
  /// that block, so loops over general blocks pay no lookup.
  const std::vector<index_t>& general_block_indices() const {
    return general_blocks_;
  }

 private:
  /// Storage slot of a general block; throws if b is scalar.
  std::size_t general_slot(std::size_t b) const;

  std::size_t size_ = 0;
  std::vector<index_t> offsets_;

  // Fast path for the dominant 1×1 blocks (single-row-height cells are
  // ~90% of a design): their values and inverses live in flat arrays so
  // multiply/solve touch them in one vectorizable sweep — and, since the
  // compaction, these arrays are the *only* storage scalar blocks have.
  // `scalar_mask_[b]` marks 1×1 blocks; scalar_* are indexed by variable,
  // with zeros at positions owned by larger blocks.
  std::vector<bool> scalar_mask_;
  std::vector<double> scalar_values_;    ///< K(i,i) for scalar blocks, else 0
  std::vector<double> scalar_inverses_;  ///< 1/K(i,i) for scalar blocks, else 0

  // Dense storage exists only for the non-1×1 blocks. general_blocks_ maps
  // storage slot → block index (ascending); general_slot() inverts it by
  // binary search for the by-block-index accessors.
  std::vector<index_t> general_blocks_;      ///< slot → block index
  std::vector<DenseMatrix> general_dense_;   ///< slot → block
  std::vector<DenseMatrix> general_inverses_;  ///< slot → inverse
};

}  // namespace mch::linalg
