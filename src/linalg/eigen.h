#ifndef VAQ_LINALG_EIGEN_H_
#define VAQ_LINALG_EIGEN_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

/// Result of a symmetric eigendecomposition A = V diag(values) V^T.
/// Eigenvalues are sorted in descending order; `vectors` stores the matching
/// eigenvectors as *columns* (vectors(i, j) is component i of eigenvector j).
struct EigenDecomposition {
  std::vector<double> values;
  DoubleMatrix vectors;
};

/// Eigensolver for dense symmetric matrices: Householder reduction to
/// tridiagonal form followed by the implicit QL algorithm (tred2/tqli).
/// Adequate for the d x d covariance matrices this library needs (d up to
/// a few thousand), matching Algorithm 1 (VarPCA) of the paper.
///
/// Rejects non-square, empty and non-symmetric inputs with
/// kInvalidArgument, and fails with kInternal if the QL iteration does not
/// converge.
Result<EigenDecomposition> EigenSymmetric(const DoubleMatrix& a);

}  // namespace vaq

#endif  // VAQ_LINALG_EIGEN_H_
