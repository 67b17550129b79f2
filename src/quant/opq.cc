#include "quant/opq.h"

#include <algorithm>
#include <cmath>

#include "common/io.h"
#include "common/macros.h"
#include "common/serialize.h"
#include "linalg/pca.h"
#include "linalg/svd.h"

namespace vaq {
namespace {

/// Eigenvalue allocation (OPQ's parametric solution): greedily assign PCs
/// in descending eigenvalue order to the subspace bucket with the smallest
/// running sum of log-eigenvalues that still has capacity. Balancing the
/// log-sum balances the *product* of eigenvalues across subspaces.
/// Returns assignment[pc] = bucket.
std::vector<size_t> EigenvalueAllocation(const std::vector<double>& evals,
                                         const std::vector<size_t>& capacity) {
  const size_t d = evals.size();
  const size_t m = capacity.size();
  std::vector<double> log_sum(m, 0.0);
  std::vector<size_t> used(m, 0);
  std::vector<size_t> assignment(d, 0);
  for (size_t pc = 0; pc < d; ++pc) {
    const double log_val = std::log(std::max(evals[pc], 1e-12));
    size_t best = m;
    for (size_t b = 0; b < m; ++b) {
      if (used[b] >= capacity[b]) continue;
      if (best == m || log_sum[b] < log_sum[best]) best = b;
    }
    VAQ_CHECK(best < m);
    assignment[pc] = best;
    log_sum[best] += log_val;
    ++used[best];
  }
  return assignment;
}

/// The inner PQ's share of the options.
PqOptions InnerPqOptions(const OpqOptions& options) {
  PqOptions pq;
  pq.num_subspaces = options.num_subspaces;
  pq.bits_per_subspace = options.bits_per_subspace;
  pq.kmeans_iters = options.kmeans_iters;
  pq.seed = options.seed;
  return pq;
}

}  // namespace

OptimizedProductQuantizer::OptimizedProductQuantizer(const OpqOptions& options)
    : options_(options), pq_(InnerPqOptions(options)) {}

void OptimizedProductQuantizer::Project(const float* x, float* out) const {
  const size_t d = rotation_.rows();
  for (size_t j = 0; j < d; ++j) out[j] = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float centered = x[i] - means_[i];
    if (centered == 0.f) continue;
    const float* rrow = rotation_.row(i);
    for (size_t j = 0; j < d; ++j) out[j] += centered * rrow[j];
  }
}

Status OptimizedProductQuantizer::Train(const FloatMatrix& data) {
  const size_t d = data.cols();
  VAQ_ASSIGN_OR_RETURN(SubspaceLayout layout, pq_.UniformLayout(d));

  // Parametric initialization: PCA + eigenvalue allocation.
  Pca pca;
  Pca::Options popts;
  popts.center = options_.center;
  VAQ_RETURN_IF_ERROR(pca.Fit(data, popts));
  std::vector<size_t> capacity(options_.num_subspaces);
  for (size_t s = 0; s < options_.num_subspaces; ++s) {
    capacity[s] = layout.span(s).length;
  }
  const std::vector<size_t> assignment =
      EigenvalueAllocation(pca.eigenvalues(), capacity);

  // Column permutation grouping each bucket's PCs together.
  std::vector<size_t> perm;
  perm.reserve(d);
  for (size_t b = 0; b < options_.num_subspaces; ++b) {
    for (size_t pc = 0; pc < d; ++pc) {
      if (assignment[pc] == b) perm.push_back(pc);
    }
  }
  // rotation = V with permuted columns.
  rotation_.Resize(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      rotation_(i, j) = pca.components()(i, perm[j]);
    }
  }
  means_.assign(d, 0.f);
  if (options_.center) {
    means_ = pca.means();
  }

  // Centered data (the Procrustes input) and the rotated data PQ trains on.
  FloatMatrix centered(data.rows(), d);
  for (size_t r = 0; r < data.rows(); ++r) {
    const float* src = data.row(r);
    float* dst = centered.row(r);
    for (size_t j = 0; j < d; ++j) dst[j] = src[j] - means_[j];
  }
  FloatMatrix rotated(data.rows(), d);
  auto rotate_all = [&]() {
    for (size_t r = 0; r < data.rows(); ++r) {
      Project(data.row(r), rotated.row(r));
    }
  };
  rotate_all();
  VAQ_RETURN_IF_ERROR(pq_.TrainCodebooks(rotated, layout, options_.seed));

  // Non-parametric refinement (OPQ_NP): alternate encoding and Procrustes
  // rotation updates.
  const VariableCodebooks& books = pq_.books_;
  for (int iter = 0; iter < options_.refine_iters; ++iter) {
    VAQ_ASSIGN_OR_RETURN(CodeMatrix codes, books.Encode(rotated));
    FloatMatrix decoded(data.rows(), d);
    for (size_t r = 0; r < data.rows(); ++r) {
      books.DecodeRow(codes.row(r), decoded.row(r));
    }
    auto new_rotation = OrthogonalProcrustes(centered, decoded);
    if (!new_rotation.ok()) return new_rotation.status();
    rotation_ = std::move(*new_rotation);
    rotate_all();
    VAQ_RETURN_IF_ERROR(
        pq_.TrainCodebooks(rotated, layout, options_.seed + iter + 1));
  }

  return pq_.EncodeAndRank(rotated);
}

Status OptimizedProductQuantizer::Search(const float* query, size_t k,
                                         std::vector<Neighbor>* out) const {
  return SearchSubset(query, k, 0, out);
}

namespace {
constexpr char kOpqMagic[8] = {'V', 'A', 'Q', 'O', 'P', 'Q', '0', '1'};
constexpr uint32_t kOpqFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecRotation = SectionTag('R', 'O', 'T', '8');
}  // namespace

void OptimizedProductQuantizer::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.num_subspaces);
  WritePod<uint64_t>(os, options_.bits_per_subspace);
  WritePod<int32_t>(os, options_.refine_iters);
  WritePod<int32_t>(os, options_.kmeans_iters);
  WritePod<uint64_t>(os, options_.seed);
  WritePod<uint8_t>(os, options_.center ? 1 : 0);
}

Status OptimizedProductQuantizer::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  int32_t i32 = 0;
  uint8_t u8 = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.num_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.bits_per_subspace = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.refine_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.kmeans_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.seed = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.center = u8 != 0;
  pq_ = ProductQuantizer(InnerPqOptions(options_));
  return Status::OK();
}

void OptimizedProductQuantizer::SaveRotationSection(std::ostream& os) const {
  WriteVector(os, means_);
  WriteMatrix(os, rotation_);
}

Status OptimizedProductQuantizer::LoadRotationSection(std::istream& is) {
  VAQ_RETURN_IF_ERROR(ReadVector(is, &means_));
  VAQ_RETURN_IF_ERROR(ReadMatrix(is, &rotation_));
  return Status::OK();
}

Status OptimizedProductQuantizer::ValidateInvariants() const {
  VAQ_RETURN_IF_ERROR(pq_.ValidateInvariants());
  const size_t d = pq_.books_.dim();
  if (rotation_.rows() != d || rotation_.cols() != d) {
    return Status::Internal("rotation matrix is not square in the codebook "
                            "dimension");
  }
  if (means_.size() != d) {
    return Status::Internal("centering means length disagrees with the "
                            "rotation dimension");
  }
  for (size_t i = 0; i < rotation_.size(); ++i) {
    if (!std::isfinite(rotation_.data()[i])) {
      return Status::Internal("rotation matrix contains non-finite values");
    }
  }
  for (float v : means_) {
    if (!std::isfinite(v)) {
      return Status::Internal("centering means contain non-finite values");
    }
  }
  return Status::OK();
}

Status OptimizedProductQuantizer::Save(const std::string& path) const {
  if (!pq_.books_.trained()) {
    return Status::FailedPrecondition("OPQ is not trained");
  }
  VAQ_RETURN_IF_ERROR(ValidateInvariants());
  ContainerWriter writer(kOpqMagic, kOpqFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  SaveRotationSection(writer.AddSection(kSecRotation));
  pq_.SaveModelSections(&writer);
  return writer.Commit(path);
}

Status OptimizedProductQuantizer::LoadSections(const SectionSource& source) {
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecOptions, [&](std::istream& is) { return LoadOptionsSection(is); }));
  VAQ_RETURN_IF_ERROR(source.Read(kSecRotation, [&](std::istream& is) {
    return LoadRotationSection(is);
  }));
  VAQ_RETURN_IF_ERROR(pq_.LoadModelSections(source));
  return ValidateInvariants();
}

Result<OptimizedProductQuantizer> OptimizedProductQuantizer::Load(
    const std::string& path) {
  OptimizedProductQuantizer opq;
  VAQ_RETURN_IF_ERROR(ReadIndexFile(
      path, kOpqMagic, kOpqFormatVersion,
      [&](const SectionSource& source) { return opq.LoadSections(source); }));
  return opq;
}

Status OptimizedProductQuantizer::SearchSubset(
    const float* query, size_t k, size_t num_subspaces_used,
    std::vector<Neighbor>* out) const {
  if (!pq_.books_.trained()) {
    return Status::FailedPrecondition("OPQ is not trained");
  }
  std::vector<float> rotated(rotation_.rows());
  Project(query, rotated.data());
  return pq_.SearchSubset(rotated.data(), k, num_subspaces_used, out);
}

}  // namespace vaq
