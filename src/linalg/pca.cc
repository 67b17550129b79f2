#include "linalg/pca.h"

#include <cmath>

#include "linalg/covariance.h"
#include "linalg/eigen.h"

namespace vaq {

Status Pca::Fit(const FloatMatrix& x, const Options& options) {
  if (x.rows() < 2) {
    return Status::InvalidArgument("PCA requires at least 2 samples");
  }
  if (x.cols() == 0) {
    return Status::InvalidArgument("PCA requires at least 1 dimension");
  }
  auto eig = EigenSymmetric(Covariance(x, options.center));
  if (!eig.ok()) return eig.status();

  const size_t d = x.cols();
  eigenvalues_ = eig->values;
  // Covariance matrices are PSD; clamp tiny negative values from rounding.
  for (double& v : eigenvalues_) {
    if (v < 0.0 && v > -1e-9) v = 0.0;
  }
  components_.Resize(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      components_(i, j) = static_cast<float>(eig->vectors(i, j));
    }
  }
  means_.assign(d, 0.f);
  if (options.center) {
    const std::vector<double> mu = ColumnMeans(x);
    for (size_t i = 0; i < d; ++i) means_[i] = static_cast<float>(mu[i]);
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> Pca::ExplainedVarianceRatio() const {
  double total = 0.0;
  for (double v : eigenvalues_) total += std::fabs(v);
  std::vector<double> ratio(eigenvalues_.size(), 0.0);
  if (total <= 0.0) return ratio;
  for (size_t i = 0; i < eigenvalues_.size(); ++i) {
    ratio[i] = std::fabs(eigenvalues_[i]) / total;
  }
  return ratio;
}

Result<FloatMatrix> Pca::Transform(const FloatMatrix& x) const {
  if (!fitted_) return Status::FailedPrecondition("PCA is not fitted");
  if (x.cols() != dim()) {
    return Status::InvalidArgument("dimension mismatch in PCA transform");
  }
  FloatMatrix z(x.rows(), dim());
  for (size_t r = 0; r < x.rows(); ++r) TransformRow(x.row(r), z.row(r));
  return z;
}

Status Pca::Restore(std::vector<double> eigenvalues, std::vector<float> means,
                    FloatMatrix components) {
  if (components.rows() != components.cols()) {
    return Status::InvalidArgument("components must be square");
  }
  if (eigenvalues.size() != components.rows() ||
      means.size() != components.rows()) {
    return Status::InvalidArgument("PCA state size mismatch");
  }
  eigenvalues_ = std::move(eigenvalues);
  means_ = std::move(means);
  components_ = std::move(components);
  fitted_ = true;
  return Status::OK();
}

void Pca::TransformRow(const float* x, float* out) const {
  const size_t d = dim();
  for (size_t j = 0; j < d; ++j) out[j] = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float centered = x[i] - means_[i];
    if (centered == 0.f) continue;
    const float* vrow = components_.row(i);
    for (size_t j = 0; j < d; ++j) out[j] += centered * vrow[j];
  }
}

}  // namespace vaq
