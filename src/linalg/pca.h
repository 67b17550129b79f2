#ifndef VAQ_LINALG_PCA_H_
#define VAQ_LINALG_PCA_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

/// Principal component analysis via the covariance eigendecomposition
/// (Algorithm 1, VarPCA).
///
/// After Fit(), `components()` holds the eigenvectors as columns sorted by
/// descending eigenvalue, and `eigenvalues()` the matching variances.
/// Transform() projects data onto the components: Z = (X - mu) V.
class Pca {
 public:
  struct Options {
    /// Mean-center before computing the covariance. The paper operates on
    /// z-normalized data where centering is a no-op; we default to true so
    /// the eigenvalues are true variances for arbitrary inputs.
    bool center = true;
  };

  Pca() = default;

  /// Learns the components from training data (n x d). Requires n >= 2.
  Status Fit(const FloatMatrix& x, const Options& options);
  Status Fit(const FloatMatrix& x) { return Fit(x, Options{}); }

  bool fitted() const { return fitted_; }
  size_t dim() const { return components_.rows(); }

  /// Eigenvalues sorted descending (non-negative up to numerical noise).
  const std::vector<double>& eigenvalues() const { return eigenvalues_; }

  /// (d x d) matrix of eigenvectors as columns, aligned with eigenvalues().
  const FloatMatrix& components() const { return components_; }

  /// Column means subtracted before projecting.
  const std::vector<float>& means() const { return means_; }

  /// Fraction of total variance explained by each component (sums to 1),
  /// i.e. Eq. 6's normalized eigenvalue energies.
  std::vector<double> ExplainedVarianceRatio() const;

  /// Projects rows of X onto the fitted components: Z = (X - mu) V.
  Result<FloatMatrix> Transform(const FloatMatrix& x) const;

  /// Projects a single vector of length dim() into `out` (length dim()).
  void TransformRow(const float* x, float* out) const;

  /// Restores a fitted state from serialized pieces (index Load path).
  Status Restore(std::vector<double> eigenvalues, std::vector<float> means,
                 FloatMatrix components);

 private:
  bool fitted_ = false;
  std::vector<double> eigenvalues_;
  std::vector<float> means_;
  FloatMatrix components_;
};

}  // namespace vaq

#endif  // VAQ_LINALG_PCA_H_
