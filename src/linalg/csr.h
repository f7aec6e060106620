// Immutable compressed-sparse-row matrix — the sparse engine behind the
// constraint matrix B of the legalization QP.
//
// Storage is the classic three-array CSR layout (row_ptr / col_idx /
// values). Transpose products gather through a lazily built and cached CSR
// view of Aᵀ instead of scattering into y: each output element is then
// owned by exactly one loop iteration, which lets the runtime parallelize
// transpose products row-wise with results independent of the thread count.
// transpose_view() exposes that cached view so fused iteration kernels
// (lcp/mmsim.cpp) can traverse Aᵀ rows directly without re-entering the
// build lock per product.
//
// The two-vector forms multiply_add2 / multiply_transpose_add2 traverse the
// matrix once for two accumulations and are bitwise identical to the two
// corresponding single-vector calls issued back to back — each output
// element folds its terms in the same order either way.
//
// Matrices are assembled either through the COO triplet builder in sparse.h
// (from_coo) or adopted pre-built from a streaming assembler (from_parts).
// Column indices are stored as mch::index_t (32-bit by default): at
// multi-million-constraint scale col_idx_ is one of the largest arrays in
// the process, and halving it is a straight RSS win with no arithmetic
// consequence.
//
// When every row has at most two entries (always true for the pairwise
// spacing constraints B and its transpose), gather2_view() exposes a lazily
// built structure-of-arrays slot table (per-row value/column pairs plus a
// length byte) that the SIMD product kernels (linalg/simd_kernels.h) and
// the fused MMSIM sweeps traverse instead of the row_ptr indirection. The
// SIMD paths of the multiply entry points are bitwise identical to the
// scalar CSR loops (masked loads, no padded arithmetic), so the active
// SIMD level never changes a product's bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/vector_ops.h"
#include "util/index.h"

namespace mch::linalg {

class CooMatrix;

/// Width-2 SoA gather table of a CSR matrix: row r's entries live in slots
/// (v0[r], c0[r]) and (v1[r], c1[r]), len[r] in 0..2 counts the real ones;
/// padding slots hold value 0.0 and column 0. Built by
/// CsrMatrix::gather2_view() when every row fits (and columns fit uint32).
struct CsrGather2 {
  AlignedVector<double> v0, v1;
  AlignedVector<std::uint32_t> c0, c1;
  AlignedVector<std::uint8_t> len;
  bool eligible = false;
};

class CsrMatrix {
 public:
  /// Empty rows x cols matrix with no entries.
  CsrMatrix(std::size_t rows = 0, std::size_t cols = 0);

  CsrMatrix(const CsrMatrix& other);
  CsrMatrix& operator=(const CsrMatrix& other);
  CsrMatrix(CsrMatrix&& other) noexcept;
  CsrMatrix& operator=(CsrMatrix&& other) noexcept;

  /// Builds from a COO accumulator; duplicate entries are summed, explicit
  /// zeros (after summing) are kept out of the structure.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// Adopts pre-built CSR arrays without staging a COO copy — the zero-copy
  /// entry point for streamed assembly (legal/model.cpp emits constraint
  /// rows in ascending order directly into these arrays). Requires
  /// row_ptr.size() == rows + 1 with row_ptr.front() == 0 and
  /// row_ptr.back() == col_idx.size() == values.size(); per-row columns
  /// must be strictly ascending (the from_coo invariant).
  static CsrMatrix from_parts(std::size_t rows, std::size_t cols,
                              std::vector<std::size_t> row_ptr,
                              std::vector<index_t> col_idx, Vector values);

  /// Identity matrix of size n.
  static CsrMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// y = A x. Requires x.size() == cols(); resizes y to rows().
  void multiply(const Vector& x, Vector& y) const;

  /// y += alpha * A x.
  void multiply_add(double alpha, const Vector& x, Vector& y) const;
  /// The same product on raw arrays (x: cols() entries, y: rows()), so a
  /// caller can multiply a slice of a larger vector in place.
  void multiply_add(double alpha, const double* x, double* y) const;

  /// y += a1 * A x1 + a2 * A x2 in one traversal of A. Bitwise identical
  /// to multiply_add(a1, x1, y) followed by multiply_add(a2, x2, y).
  void multiply_add2(double a1, const Vector& x1, double a2, const Vector& x2,
                     Vector& y) const;

  /// y = Aᵀ x. Requires x.size() == rows(); resizes y to cols().
  void multiply_transpose(const Vector& x, Vector& y) const;

  /// y += alpha * Aᵀ x.
  void multiply_transpose_add(double alpha, const Vector& x, Vector& y) const;
  /// The same product on raw arrays (x: rows() entries, y: cols()).
  void multiply_transpose_add(double alpha, const double* x, double* y) const;

  /// y += a1 * Aᵀ x1 + a2 * Aᵀ x2 in one traversal of the cached Aᵀ.
  /// Bitwise identical to the two multiply_transpose_add calls in sequence.
  void multiply_transpose_add2(double a1, const Vector& x1, double a2,
                               const Vector& x2, Vector& y) const;

  /// The cached Aᵀ (row r of the view = column r of A), built on first use.
  /// The build is thread-safe; the returned reference stays valid for this
  /// matrix's lifetime (copies share the already-built view).
  const CsrMatrix& transpose_view() const;

  /// The cached width-2 SoA gather table, built on first use; nullptr when
  /// the matrix does not qualify (a row with more than two entries, or
  /// dimensions beyond uint32). Thread-safe like transpose_view(); the
  /// returned pointer stays valid for this matrix's lifetime.
  const CsrGather2* gather2_view() const;

  /// Returns Aᵀ as an independent CSR matrix.
  CsrMatrix transpose() const;

  /// Element access by binary search within the row; O(log nnz(row)).
  double at(std::size_t row, std::size_t col) const;

  /// CSR internals (for solvers that need direct traversal). Column
  /// indices are index_t; reading one into a std::size_t is a free
  /// widening, so traversal loops are unchanged.
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& col_idx() const { return col_idx_; }
  const Vector& values() const { return values_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_ptr_;
  std::vector<index_t> col_idx_;
  Vector values_;  ///< 64-byte aligned (feeds SIMD loads)

  // Lazily built Aᵀ and gather table (see class comment). shared_ptr so
  // copies share the already-built caches; the mutex only guards each
  // one-time build. An ineligible gather table is cached too (with
  // eligible == false), so the qualification scan runs at most once.
  mutable std::shared_ptr<const CsrMatrix> transpose_cache_;
  mutable std::shared_ptr<const CsrGather2> gather2_cache_;
  mutable std::mutex transpose_mutex_;
};

}  // namespace mch::linalg
