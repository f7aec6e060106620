// Generic (dense) linear complementarity problems.
//
// LCP(q, A): find w, z with  w = A z + q >= 0,  z >= 0,  zᵀw = 0.
//
// The dense form is used by the reference solver (Lemke) that
// cross-validates the structured MMSIM solver on small instances; production
// solves never materialize A densely.
#pragma once

#include <cstddef>

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace mch::lcp {

using linalg::DenseMatrix;
using linalg::Vector;

struct DenseLcp {
  DenseMatrix A;
  Vector q;

  std::size_t size() const { return q.size(); }
};

/// Quality of a candidate LCP solution z (w is recomputed as A z + q).
struct LcpResidual {
  double z_negativity = 0.0;      ///< max(0, -z_i) over i
  double w_negativity = 0.0;      ///< max(0, -w_i) over i
  double complementarity = 0.0;   ///< max_i |z_i * w_i|

  double max() const;
};

/// Computes feasibility/complementarity residuals of z for the dense LCP.
LcpResidual residual(const DenseLcp& problem, const Vector& z);

}  // namespace mch::lcp
