#include "linalg/svd.h"

#include <cmath>

#include "linalg/eigen.h"
#include "linalg/ops.h"

namespace vaq {

Result<SvdResult> ThinSvd(const FloatMatrix& a) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  if (n < d) {
    return Status::InvalidArgument("ThinSvd requires rows >= cols");
  }
  if (d == 0) return Status::InvalidArgument("empty matrix");

  // Gram matrix G = A^T A (d x d), symmetric PSD.
  DoubleMatrix gram(d, d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const float* row = a.row(r);
    for (size_t i = 0; i < d; ++i) {
      const double ai = row[i];
      if (ai == 0.0) continue;
      double* grow = gram.row(i);
      for (size_t j = i; j < d; ++j) grow[j] += ai * row[j];
    }
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) gram(j, i) = gram(i, j);
  }

  auto eig = EigenSymmetric(gram);
  if (!eig.ok()) return eig.status();

  SvdResult out;
  out.singular.resize(d);
  out.v.Resize(d, d);
  for (size_t j = 0; j < d; ++j) {
    out.singular[j] = std::sqrt(std::max(0.0, eig->values[j]));
    for (size_t i = 0; i < d; ++i) {
      out.v(i, j) = static_cast<float>(eig->vectors(i, j));
    }
  }

  // U = A V S^{-1}; for (near-)zero singular values fall back to a zero
  // column (callers solving Procrustes never hit this in practice because
  // their inputs have full numerical rank).
  out.u.Resize(n, d);
  for (size_t r = 0; r < n; ++r) {
    const float* arow = a.row(r);
    float* urow = out.u.row(r);
    for (size_t j = 0; j < d; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < d; ++k) {
        acc += static_cast<double>(arow[k]) * out.v(k, j);
      }
      urow[j] = out.singular[j] > 1e-12
                    ? static_cast<float>(acc / out.singular[j])
                    : 0.f;
    }
  }
  return out;
}

Result<FloatMatrix> OrthogonalProcrustes(const FloatMatrix& a,
                                         const FloatMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument("Procrustes inputs must share a shape");
  }
  // M = A^T B (d x d).
  const size_t d = a.cols();
  FloatMatrix m(d, d, 0.f);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    for (size_t i = 0; i < d; ++i) {
      const float ai = arow[i];
      if (ai == 0.f) continue;
      float* mrow = m.row(i);
      for (size_t j = 0; j < d; ++j) mrow[j] += ai * brow[j];
    }
  }
  auto svd = ThinSvd(m);
  if (!svd.ok()) return svd.status();
  // R = U V^T.
  FloatMatrix r(d, d, 0.f);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < d; ++k) {
        acc += static_cast<double>(svd->u(i, k)) * svd->v(j, k);
      }
      r(i, j) = static_cast<float>(acc);
    }
  }
  return r;
}

}  // namespace vaq
