#include "linalg/block_diag.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd_kernels.h"
#include "runtime/parallel.h"
#include "util/check.h"

namespace mch::linalg {

namespace {
using runtime::kGrainElementwise;
using runtime::parallel_for;

/// Grain for the non-1×1 block sweeps: blocks are small dense systems, a
/// few hundred per chunk keeps dispatch cost negligible.
constexpr std::size_t kGrainBlocks = 256;
}  // namespace

std::size_t BlockDiagMatrix::add_scalar_block(double value) {
  // Same criterion as DenseMatrix::solve's pivot check, so a singular 1×1
  // block fails identically through either entry point.
  MCH_CHECK_MSG(std::abs(value) >= 1e-300, "block is singular");
  offsets_.push_back(to_index(size_));
  scalar_mask_.push_back(true);
  scalar_values_.push_back(value);
  scalar_inverses_.push_back(1.0 / value);
  size_ += 1;
  return offsets_.size() - 1;
}

std::size_t BlockDiagMatrix::add_block(const DenseMatrix& block) {
  MCH_CHECK(block.rows() == block.cols() && block.rows() > 0);
  if (block.rows() == 1) return add_scalar_block(block(0, 0));

  DenseMatrix inv;
  MCH_CHECK_MSG(block.inverse(inv), "block is singular");
  offsets_.push_back(to_index(size_));
  scalar_mask_.push_back(false);
  scalar_values_.resize(size_ + block.rows(), 0.0);
  scalar_inverses_.resize(size_ + block.rows(), 0.0);
  general_blocks_.push_back(to_index(offsets_.size() - 1));
  general_dense_.push_back(block);
  general_inverses_.push_back(std::move(inv));

  size_ += block.rows();
  return offsets_.size() - 1;
}

std::size_t BlockDiagMatrix::append_block_to(BlockDiagMatrix& dst,
                                             std::size_t b) const {
  MCH_CHECK(b < offsets_.size());
  if (scalar_mask_[b]) {
    // Copy the stored value/inverse pair verbatim (no re-inversion).
    const std::size_t off = offsets_[b];
    dst.offsets_.push_back(to_index(dst.size_));
    dst.scalar_mask_.push_back(true);
    dst.scalar_values_.push_back(scalar_values_[off]);
    dst.scalar_inverses_.push_back(scalar_inverses_[off]);
    dst.size_ += 1;
    return dst.offsets_.size() - 1;
  }

  const std::size_t slot = general_slot(b);
  const DenseMatrix& block = general_dense_[slot];
  dst.offsets_.push_back(to_index(dst.size_));
  dst.scalar_mask_.push_back(false);
  dst.scalar_values_.resize(dst.size_ + block.rows(), 0.0);
  dst.scalar_inverses_.resize(dst.size_ + block.rows(), 0.0);
  dst.general_blocks_.push_back(to_index(dst.offsets_.size() - 1));
  dst.general_dense_.push_back(block);
  dst.general_inverses_.push_back(general_inverses_[slot]);

  dst.size_ += block.rows();
  return dst.offsets_.size() - 1;
}

void BlockDiagMatrix::erase_blocks(const std::vector<index_t>& blocks) {
  if (blocks.empty()) return;
  MCH_CHECK(std::is_sorted(blocks.begin(), blocks.end()) &&
            std::adjacent_find(blocks.begin(), blocks.end()) == blocks.end() &&
            blocks.back() < offsets_.size());
  // Compact front to back: every write index trails its read index, so
  // each entry is read before anything overwrites it.
  std::size_t erase = 0;
  std::size_t kept = 0;
  std::size_t size = 0;
  std::size_t slot = 0;
  std::size_t kept_slots = 0;
  const std::size_t count = offsets_.size();
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t off = offsets_[b];
    const std::size_t d = block_size(b);
    const bool scalar = scalar_mask_[b];
    if (erase < blocks.size() && blocks[erase] == b) {
      ++erase;
      if (!scalar) ++slot;
      continue;
    }
    offsets_[kept] = to_index(size);
    scalar_mask_[kept] = scalar;
    std::copy(scalar_values_.begin() + static_cast<std::ptrdiff_t>(off),
              scalar_values_.begin() + static_cast<std::ptrdiff_t>(off + d),
              scalar_values_.begin() + static_cast<std::ptrdiff_t>(size));
    std::copy(scalar_inverses_.begin() + static_cast<std::ptrdiff_t>(off),
              scalar_inverses_.begin() + static_cast<std::ptrdiff_t>(off + d),
              scalar_inverses_.begin() + static_cast<std::ptrdiff_t>(size));
    if (!scalar) {
      general_blocks_[kept_slots] = to_index(kept);
      if (kept_slots != slot) {
        general_dense_[kept_slots] = std::move(general_dense_[slot]);
        general_inverses_[kept_slots] = std::move(general_inverses_[slot]);
      }
      ++slot;
      ++kept_slots;
    }
    ++kept;
    size += d;
  }
  offsets_.resize(kept);
  scalar_mask_.resize(kept);
  scalar_values_.resize(size);
  scalar_inverses_.resize(size);
  general_blocks_.resize(kept_slots);
  general_dense_.resize(kept_slots);
  general_inverses_.resize(kept_slots);
  size_ = size;
}

std::size_t BlockDiagMatrix::general_slot(std::size_t b) const {
  const auto it = std::lower_bound(general_blocks_.begin(),
                                   general_blocks_.end(), b);
  MCH_CHECK_MSG(it != general_blocks_.end() && *it == b,
                "block " << b
                         << " is a scalar block with no dense view; read it "
                            "through scalar_values()/entry()");
  return static_cast<std::size_t>(it - general_blocks_.begin());
}

std::size_t BlockDiagMatrix::block_of(std::size_t i) const {
  MCH_CHECK(i < size_);
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), i);
  return static_cast<std::size_t>(it - offsets_.begin()) - 1;
}

double BlockDiagMatrix::entry(std::size_t i, std::size_t j) const {
  const std::size_t b = block_of(i);
  if (block_of(j) != b) return 0.0;
  if (scalar_mask_[b]) return scalar_values_[i];
  return block(b)(i - offsets_[b], j - offsets_[b]);
}

double BlockDiagMatrix::inverse_entry(std::size_t i, std::size_t j) const {
  const std::size_t b = block_of(i);
  if (block_of(j) != b) return 0.0;
  if (scalar_mask_[b]) return scalar_inverses_[i];
  return block_inverse(b)(i - offsets_[b], j - offsets_[b]);
}

void BlockDiagMatrix::multiply(const Vector& x, Vector& y) const {
  y.assign(size_, 0.0);
  multiply_add(1.0, x, y);
}

void BlockDiagMatrix::multiply_add(double alpha, const Vector& x,
                                   Vector& y) const {
  MCH_CHECK(x.size() == size_ && y.size() == size_);
  multiply_add(alpha, x.data(), y.data());
}

void BlockDiagMatrix::multiply_add(double alpha, const double* x,
                                   double* y) const {
  // One flat sweep covers every scalar block (zeros elsewhere are benign);
  // a second sweep handles the multi-row blocks. Both are parallel: every
  // y element is owned by one index of one sweep (general blocks overwrite
  // only their own offsets, and the sweeps are separated by a barrier).
  const kernels::CsrSimdKernels* const sk =
      kernels::csr_simd_kernels(simd_level());
  parallel_for(std::size_t{0}, size_, kGrainElementwise,
               [&](std::size_t lo, std::size_t hi) {
                 if (sk != nullptr) {
                   sk->ew_scale_add(alpha, scalar_values_.data(), x, y, lo,
                                    hi);
                   return;
                 }
                 for (std::size_t i = lo; i < hi; ++i)
                   y[i] += alpha * scalar_values_[i] * x[i];
               });
  parallel_for(std::size_t{0}, general_blocks_.size(), kGrainBlocks,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t g = lo; g < hi; ++g) {
                   const DenseMatrix& blk = general_dense_[g];
                   const std::size_t off = offsets_[general_blocks_[g]];
                   const std::size_t n = blk.rows();
                   for (std::size_t r = 0; r < n; ++r) {
                     double sum = 0.0;
                     for (std::size_t c = 0; c < n; ++c)
                       sum += blk(r, c) * x[off + c];
                     y[off + r] += alpha * sum;
                   }
                 }
               });
}

void BlockDiagMatrix::solve(const Vector& x, Vector& y) const {
  MCH_CHECK(x.size() == size_);
  y.resize(size_);
  const kernels::CsrSimdKernels* const sk =
      kernels::csr_simd_kernels(simd_level());
  parallel_for(std::size_t{0}, size_, kGrainElementwise,
               [&](std::size_t lo, std::size_t hi) {
                 if (sk != nullptr) {
                   sk->ew_mul(scalar_inverses_.data(), x.data(), y.data(), lo,
                              hi);
                   return;
                 }
                 for (std::size_t i = lo; i < hi; ++i)
                   y[i] = scalar_inverses_[i] * x[i];
               });
  parallel_for(std::size_t{0}, general_blocks_.size(), kGrainBlocks,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t g = lo; g < hi; ++g) {
                   const DenseMatrix& inv = general_inverses_[g];
                   const std::size_t off = offsets_[general_blocks_[g]];
                   const std::size_t n = inv.rows();
                   for (std::size_t r = 0; r < n; ++r) {
                     double sum = 0.0;
                     for (std::size_t c = 0; c < n; ++c)
                       sum += inv(r, c) * x[off + c];
                     y[off + r] = sum;
                   }
                 }
               });
}

void BlockDiagMatrix::solve_shifted(double alpha, double beta, const Vector& x,
                                    Vector& y) const {
  MCH_CHECK(x.size() == size_);
  y.assign(size_, 0.0);
  Vector rhs, sol;
  // Blocks ascend by offset and general_blocks_ lists the non-1×1 blocks in
  // that same order, so a single cursor g tracks the dense slot.
  std::size_t g = 0;
  for (std::size_t b = 0; b < offsets_.size(); ++b) {
    const std::size_t off = offsets_[b];
    if (scalar_mask_[b]) {
      // Dominant fast path: single-height cells.
      y[off] = x[off] / (alpha * scalar_values_[off] + beta);
      continue;
    }
    const DenseMatrix& blk = general_dense_[g++];
    const std::size_t n = blk.rows();
    DenseMatrix shifted = blk;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        shifted(r, c) = alpha * blk(r, c) + (r == c ? beta : 0.0);
    rhs.assign(x.begin() + static_cast<std::ptrdiff_t>(off),
               x.begin() + static_cast<std::ptrdiff_t>(off + n));
    MCH_CHECK_MSG(shifted.solve(rhs, sol), "shifted block singular");
    std::copy(sol.begin(), sol.end(),
              y.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

}  // namespace mch::linalg
