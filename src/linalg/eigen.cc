#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace vaq {
namespace {

double Hypot(double a, double b) { return std::hypot(a, b); }

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// (tred2). On return `a` holds the accumulated orthogonal transform Q,
/// `d` the diagonal, and `e` the subdiagonal (e[0] unused).
void Tred2(DoubleMatrix* a, std::vector<double>* d, std::vector<double>* e) {
  const size_t n = a->rows();
  d->assign(n, 0.0);
  e->assign(n, 0.0);
  for (size_t i = n - 1; i >= 1; --i) {
    const size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (size_t k = 0; k <= l; ++k) scale += std::fabs((*a)(i, k));
      if (scale == 0.0) {
        (*e)[i] = (*a)(i, l);
      } else {
        for (size_t k = 0; k <= l; ++k) {
          (*a)(i, k) /= scale;
          h += (*a)(i, k) * (*a)(i, k);
        }
        double f = (*a)(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        (*e)[i] = scale * g;
        h -= f * g;
        (*a)(i, l) = f - g;
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          (*a)(j, i) = (*a)(i, j) / h;
          g = 0.0;
          for (size_t k = 0; k <= j; ++k) g += (*a)(j, k) * (*a)(i, k);
          for (size_t k = j + 1; k <= l; ++k) g += (*a)(k, j) * (*a)(i, k);
          (*e)[j] = g / h;
          f += (*e)[j] * (*a)(i, j);
        }
        const double hh = f / (h + h);
        for (size_t j = 0; j <= l; ++j) {
          f = (*a)(i, j);
          (*e)[j] = g = (*e)[j] - hh * f;
          for (size_t k = 0; k <= j; ++k) {
            (*a)(j, k) -= f * (*e)[k] + g * (*a)(i, k);
          }
        }
      }
    } else {
      (*e)[i] = (*a)(i, l);
    }
    (*d)[i] = h;
  }
  (*d)[0] = 0.0;
  (*e)[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if ((*d)[i] != 0.0) {
      for (size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (size_t k = 0; k < i; ++k) g += (*a)(i, k) * (*a)(k, j);
        for (size_t k = 0; k < i; ++k) (*a)(k, j) -= g * (*a)(k, i);
      }
    }
    (*d)[i] = (*a)(i, i);
    (*a)(i, i) = 1.0;
    for (size_t j = 0; j < i; ++j) {
      (*a)(j, i) = 0.0;
      (*a)(i, j) = 0.0;
    }
  }
}

/// Implicit-shift QL iteration on a tridiagonal matrix (tqli), rotating
/// the columns of `z` (initialized with Q from Tred2) into eigenvectors.
/// Returns false if an eigenvalue fails to converge.
bool Tqli(std::vector<double>* d, std::vector<double>* e, DoubleMatrix* z) {
  const size_t n = d->size();
  for (size_t i = 1; i < n; ++i) (*e)[i - 1] = (*e)[i];
  (*e)[n - 1] = 0.0;
  for (size_t l = 0; l < n; ++l) {
    int iterations = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs((*d)[m]) + std::fabs((*d)[m + 1]);
        if (std::fabs((*e)[m]) <= 1e-300 ||
            std::fabs((*e)[m]) <= 2.22e-16 * dd) {
          break;
        }
      }
      if (m != l) {
        if (++iterations == 200) return false;
        double g = ((*d)[l + 1] - (*d)[l]) / (2.0 * (*e)[l]);
        double r = Hypot(g, 1.0);
        g = (*d)[m] - (*d)[l] +
            (*e)[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (size_t i = m; i-- > l;) {
          double f = s * (*e)[i];
          const double b = c * (*e)[i];
          r = Hypot(f, g);
          (*e)[i + 1] = r;
          if (r == 0.0) {
            (*d)[i + 1] -= p;
            (*e)[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = (*d)[i + 1] - p;
          r = ((*d)[i] - g) * s + 2.0 * c * b;
          p = s * r;
          (*d)[i + 1] = g + p;
          g = c * r - b;
          // Accumulate the rotation into the eigenvector matrix.
          for (size_t k = 0; k < n; ++k) {
            f = (*z)(k, i + 1);
            (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
            (*z)(k, i) = c * (*z)(k, i) - s * f;
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        (*d)[l] -= p;
        (*e)[l] = g;
        (*e)[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

}  // namespace

Result<EigenDecomposition> EigenSymmetric(const DoubleMatrix& input) {
  if (input.rows() != input.cols()) {
    return Status::InvalidArgument("eigendecomposition requires a square "
                                   "matrix");
  }
  const size_t n = input.rows();
  if (n == 0) {
    return Status::InvalidArgument("empty matrix");
  }
  // Symmetry check (tolerant: covariance accumulation has rounding noise).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double scale =
          std::max({1.0, std::fabs(input(i, j)), std::fabs(input(j, i))});
      if (std::fabs(input(i, j) - input(j, i)) > 1e-6 * scale) {
        return Status::InvalidArgument("matrix is not symmetric");
      }
    }
  }

  DoubleMatrix a = input;
  // Symmetrize exactly so the reduction sees a perfectly symmetric input.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = avg;
      a(j, i) = avg;
    }
  }

  std::vector<double> diag, subdiag;
  if (n == 1) {
    EigenDecomposition out;
    out.values = {a(0, 0)};
    out.vectors.Resize(1, 1);
    out.vectors(0, 0) = 1.0;
    return out;
  }
  Tred2(&a, &diag, &subdiag);
  if (!Tqli(&diag, &subdiag, &a)) {
    return Status::Internal("QL iteration failed to converge");
  }

  // Sort by descending eigenvalue.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&diag](size_t x, size_t y) { return diag[x] > diag[y]; });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors.Resize(n, n);
  for (size_t j = 0; j < n; ++j) {
    const size_t src = order[j];
    out.values[j] = diag[src];
    for (size_t i = 0; i < n; ++i) out.vectors(i, j) = a(i, src);
  }
  return out;
}

}  // namespace vaq
