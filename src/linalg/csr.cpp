#include "linalg/csr.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "linalg/simd.h"
#include "linalg/simd_kernels.h"
#include "linalg/sparse.h"
#include "runtime/parallel.h"
#include "util/check.h"

namespace mch::linalg {

namespace {
using runtime::kGrainRows;
using runtime::parallel_for;

kernels::CsrGather2Ctx gather2_ctx(const CsrGather2& g) {
  return kernels::CsrGather2Ctx{g.v0.data(), g.v1.data(), g.c0.data(),
                                g.c1.data(), g.len.data()};
}
}  // namespace

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(other.row_ptr_),
      col_idx_(other.col_idx_),
      values_(other.values_) {
  std::lock_guard<std::mutex> lock(other.transpose_mutex_);
  transpose_cache_ = other.transpose_cache_;
  gather2_cache_ = other.gather2_cache_;
}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = other.row_ptr_;
  col_idx_ = other.col_idx_;
  values_ = other.values_;
  std::shared_ptr<const CsrMatrix> cache;
  std::shared_ptr<const CsrGather2> gather_cache;
  {
    std::lock_guard<std::mutex> lock(other.transpose_mutex_);
    cache = other.transpose_cache_;
    gather_cache = other.gather2_cache_;
  }
  std::lock_guard<std::mutex> lock(transpose_mutex_);
  transpose_cache_ = std::move(cache);
  gather2_cache_ = std::move(gather_cache);
  return *this;
}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(std::move(other.row_ptr_)),
      col_idx_(std::move(other.col_idx_)),
      values_(std::move(other.values_)),
      transpose_cache_(std::move(other.transpose_cache_)),
      gather2_cache_(std::move(other.gather2_cache_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.row_ptr_.assign(1, 0);
}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = std::move(other.row_ptr_);
  col_idx_ = std::move(other.col_idx_);
  values_ = std::move(other.values_);
  transpose_cache_ = std::move(other.transpose_cache_);
  gather2_cache_ = std::move(other.gather2_cache_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.row_ptr_.assign(1, 0);
  return *this;
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  check_index_range(coo.cols(), "CsrMatrix columns");
  CsrMatrix csr(coo.rows(), coo.cols());
  const std::size_t n = coo.entries();

  // Counting sort by row.
  std::vector<std::size_t> counts(coo.rows() + 1, 0);
  for (std::size_t k = 0; k < n; ++k) ++counts[coo.row_indices()[k] + 1];
  std::partial_sum(counts.begin(), counts.end(), counts.begin());

  std::vector<std::size_t> cols(n);
  std::vector<double> vals(n);
  {
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = cursor[coo.row_indices()[k]]++;
      cols[slot] = coo.col_indices()[k];
      vals[slot] = coo.values()[k];
    }
  }

  // Sort within each row by column and merge duplicates.
  csr.row_ptr_.assign(coo.rows() + 1, 0);
  csr.col_idx_.reserve(n);
  csr.values_.reserve(n);
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < coo.rows(); ++r) {
    const std::size_t begin = counts[r];
    const std::size_t end = counts[r + 1];
    order.resize(end - begin);
    std::iota(order.begin(), order.end(), begin);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return cols[a] < cols[b]; });
    std::size_t i = 0;
    while (i < order.size()) {
      const std::size_t col = cols[order[i]];
      double sum = 0.0;
      while (i < order.size() && cols[order[i]] == col) sum += vals[order[i++]];
      if (sum != 0.0) {
        csr.col_idx_.push_back(static_cast<index_t>(col));
        csr.values_.push_back(sum);
      }
    }
    csr.row_ptr_[r + 1] = csr.col_idx_.size();
  }
  return csr;
}

CsrMatrix CsrMatrix::identity(std::size_t n) {
  check_index_range(n, "CsrMatrix identity");
  CsrMatrix eye(n, n);
  eye.col_idx_.resize(n);
  eye.values_.assign(n, 1.0);
  std::iota(eye.col_idx_.begin(), eye.col_idx_.end(), index_t{0});
  std::iota(eye.row_ptr_.begin(), eye.row_ptr_.end(), std::size_t{0});
  return eye;
}

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::size_t> row_ptr,
                                std::vector<index_t> col_idx, Vector values) {
  check_index_range(cols, "CsrMatrix columns");
  MCH_CHECK_MSG(row_ptr.size() == rows + 1 && row_ptr.front() == 0 &&
                    row_ptr.back() == col_idx.size() &&
                    col_idx.size() == values.size(),
                "inconsistent CSR arrays");
  CsrMatrix csr(rows, cols);
  csr.row_ptr_ = std::move(row_ptr);
  csr.col_idx_ = std::move(col_idx);
  csr.values_ = std::move(values);
  return csr;
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  MCH_CHECK(x.size() == cols_);
  y.assign(rows_, 0.0);
  multiply_add(1.0, x, y);
}

void CsrMatrix::multiply_add(double alpha, const Vector& x, Vector& y) const {
  MCH_CHECK(x.size() == cols_ && y.size() == rows_);
  multiply_add(alpha, x.data(), y.data());
}

void CsrMatrix::multiply_add(double alpha, const double* x, double* y) const {
  // Row-parallel: each output row is owned by exactly one iteration. The
  // SIMD path runs rows 4/8 at a time through the gather table; bitwise
  // identical to the scalar loop (see simd_kernels.h).
  if (const auto* sk = kernels::csr_simd_kernels(simd_level())) {
    if (const CsrGather2* g = gather2_view()) {
      const kernels::CsrGather2Ctx ctx = gather2_ctx(*g);
      parallel_for(std::size_t{0}, rows_, kGrainRows,
                   [&](std::size_t lo, std::size_t hi) {
                     sk->add(ctx, alpha, x, y, lo, hi);
                   });
      return;
    }
  }
  parallel_for(std::size_t{0}, rows_, kGrainRows,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t r = lo; r < hi; ++r) {
                   double sum = 0.0;
                   for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
                     sum += values_[k] * x[col_idx_[k]];
                   y[r] += alpha * sum;
                 }
               });
}

void CsrMatrix::multiply_add2(double a1, const Vector& x1, double a2,
                              const Vector& x2, Vector& y) const {
  MCH_CHECK(x1.size() == cols_ && x2.size() == cols_ && y.size() == rows_);
  // One pass over the structure; per row, the two sums are accumulated and
  // applied in the same order the two separate multiply_add calls would
  // use, so the result is bitwise identical to the sequential pair.
  if (const auto* sk = kernels::csr_simd_kernels(simd_level())) {
    if (const CsrGather2* g = gather2_view()) {
      const kernels::CsrGather2Ctx ctx = gather2_ctx(*g);
      parallel_for(std::size_t{0}, rows_, kGrainRows,
                   [&](std::size_t lo, std::size_t hi) {
                     sk->add2(ctx, a1, x1.data(), a2, x2.data(), y.data(), lo,
                              hi);
                   });
      return;
    }
  }
  parallel_for(std::size_t{0}, rows_, kGrainRows,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t r = lo; r < hi; ++r) {
                   double sum1 = 0.0;
                   double sum2 = 0.0;
                   for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1];
                        ++k) {
                     const double v = values_[k];
                     const std::size_t c = col_idx_[k];
                     sum1 += v * x1[c];
                     sum2 += v * x2[c];
                   }
                   y[r] += a1 * sum1;
                   y[r] += a2 * sum2;
                 }
               });
}

const CsrMatrix& CsrMatrix::transpose_view() const {
  {
    std::lock_guard<std::mutex> lock(transpose_mutex_);
    if (transpose_cache_) return *transpose_cache_;
  }
  // Build outside the lock (from_coo is the expensive part), then publish.
  // Two threads racing here build identical views; the first store wins.
  auto built = std::make_shared<const CsrMatrix>(transpose());
  std::lock_guard<std::mutex> lock(transpose_mutex_);
  if (!transpose_cache_) transpose_cache_ = std::move(built);
  return *transpose_cache_;
}

const CsrGather2* CsrMatrix::gather2_view() const {
  {
    std::lock_guard<std::mutex> lock(transpose_mutex_);
    if (gather2_cache_)
      return gather2_cache_->eligible ? gather2_cache_.get() : nullptr;
  }
  // Build outside the lock, publish under it; racing builds are identical
  // and the first store wins. An ineligible matrix caches a stub so the
  // row-length scan never repeats.
  auto table = std::make_shared<CsrGather2>();
  bool fits = cols_ <= std::numeric_limits<std::uint32_t>::max();
  for (std::size_t r = 0; fits && r < rows_; ++r)
    fits = row_ptr_[r + 1] - row_ptr_[r] <= 2;
  if (fits) {
    table->v0.assign(rows_, 0.0);
    table->v1.assign(rows_, 0.0);
    table->c0.assign(rows_, 0);
    table->c1.assign(rows_, 0);
    table->len.assign(rows_, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t begin = row_ptr_[r];
      const std::size_t n = row_ptr_[r + 1] - begin;
      table->len[r] = static_cast<std::uint8_t>(n);
      if (n >= 1) {
        table->v0[r] = values_[begin];
        table->c0[r] = static_cast<std::uint32_t>(col_idx_[begin]);
      }
      if (n >= 2) {
        table->v1[r] = values_[begin + 1];
        table->c1[r] = static_cast<std::uint32_t>(col_idx_[begin + 1]);
      }
    }
    table->eligible = true;
  }
  std::lock_guard<std::mutex> lock(transpose_mutex_);
  if (!gather2_cache_) gather2_cache_ = std::move(table);
  return gather2_cache_->eligible ? gather2_cache_.get() : nullptr;
}

void CsrMatrix::multiply_transpose(const Vector& x, Vector& y) const {
  MCH_CHECK(x.size() == rows_);
  y.assign(cols_, 0.0);
  multiply_transpose_add(1.0, x, y);
}

void CsrMatrix::multiply_transpose_add(double alpha, const Vector& x,
                                       Vector& y) const {
  MCH_CHECK(x.size() == rows_ && y.size() == cols_);
  multiply_transpose_add(alpha, x.data(), y.data());
}

void CsrMatrix::multiply_transpose_add(double alpha, const double* x,
                                       double* y) const {
  // Gather through the cached Aᵀ view rather than scattering into y: row c
  // of Aᵀ lists exactly the entries of column c of A, so each output
  // element is owned by one iteration and rows parallelize safely. The
  // entries arrive in the same ascending-row order the serial scatter
  // visited them, and the result does not depend on the thread count.
  const CsrMatrix& at = transpose_view();
  if (const auto* sk = kernels::csr_simd_kernels(simd_level())) {
    if (const CsrGather2* g = at.gather2_view()) {
      const kernels::CsrGather2Ctx ctx = gather2_ctx(*g);
      parallel_for(std::size_t{0}, cols_, kGrainRows,
                   [&](std::size_t lo, std::size_t hi) {
                     sk->add(ctx, alpha, x, y, lo, hi);
                   });
      return;
    }
  }
  parallel_for(std::size_t{0}, cols_, kGrainRows,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t c = lo; c < hi; ++c) {
                   double sum = 0.0;
                   for (std::size_t k = at.row_ptr_[c]; k < at.row_ptr_[c + 1];
                        ++k)
                     sum += at.values_[k] * x[at.col_idx_[k]];
                   y[c] += alpha * sum;
                 }
               });
}

void CsrMatrix::multiply_transpose_add2(double a1, const Vector& x1, double a2,
                                        const Vector& x2, Vector& y) const {
  MCH_CHECK(x1.size() == rows_ && x2.size() == rows_ && y.size() == cols_);
  const CsrMatrix& at = transpose_view();
  if (const auto* sk = kernels::csr_simd_kernels(simd_level())) {
    if (const CsrGather2* g = at.gather2_view()) {
      const kernels::CsrGather2Ctx ctx = gather2_ctx(*g);
      parallel_for(std::size_t{0}, cols_, kGrainRows,
                   [&](std::size_t lo, std::size_t hi) {
                     sk->add2(ctx, a1, x1.data(), a2, x2.data(), y.data(), lo,
                              hi);
                   });
      return;
    }
  }
  parallel_for(std::size_t{0}, cols_, kGrainRows,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t c = lo; c < hi; ++c) {
                   double sum1 = 0.0;
                   double sum2 = 0.0;
                   for (std::size_t k = at.row_ptr_[c]; k < at.row_ptr_[c + 1];
                        ++k) {
                     const double v = at.values_[k];
                     const std::size_t r = at.col_idx_[k];
                     sum1 += v * x1[r];
                     sum2 += v * x2[r];
                   }
                   y[c] += a1 * sum1;
                   y[c] += a2 * sum2;
                 }
               });
}

CsrMatrix CsrMatrix::transpose() const {
  CooMatrix coo(cols_, rows_);
  coo.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      coo.add(col_idx_[k], r, values_[k]);
  return from_coo(coo);
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  MCH_CHECK(row < rows_ && col < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

}  // namespace mch::linalg
