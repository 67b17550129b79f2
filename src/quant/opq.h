#ifndef VAQ_QUANT_OPQ_H_
#define VAQ_QUANT_OPQ_H_

#include <cstdint>
#include <vector>

#include "quant/pq.h"
#include "quant/quantizer.h"

namespace vaq {

class SectionSource;

struct OpqOptions {
  size_t num_subspaces = 8;
  size_t bits_per_subspace = 8;
  /// Non-parametric refinement iterations (alternating Procrustes rotation
  /// updates and codebook retraining) on top of the parametric
  /// initialization. 0 keeps the pure parametric solution.
  int refine_iters = 4;
  int kmeans_iters = 25;
  uint64_t seed = 42;
  bool center = true;
};

/// Optimized Product Quantization (Ge et al., CVPR 2013; Section II-C).
///
/// Parametric solution: PCA followed by *eigenvalue allocation* — greedy
/// assignment of principal components to subspaces balancing the product
/// of eigenvalues, which balances subspace importance so uniform
/// dictionary sizes become appropriate. Optionally refined with the
/// non-parametric alternating optimization (encode, then solve the
/// orthogonal Procrustes problem for a better rotation).
///
/// Structurally OPQ is a rotation in front of a ProductQuantizer: the
/// centered, rotated vectors are what the inner PQ trains on, encodes,
/// ranks, searches and saves.
class OptimizedProductQuantizer : public Quantizer {
 public:
  explicit OptimizedProductQuantizer(const OpqOptions& options = OpqOptions());

  std::string name() const override { return "OPQ"; }
  Status Train(const FloatMatrix& data) override;
  size_t size() const override { return pq_.size(); }
  size_t code_bytes() const override { return pq_.code_bytes(); }
  Status Search(const float* query, size_t k,
                std::vector<Neighbor>* out) const override;

  /// Subspace-omission variant (Figure 4); subspaces ranked by rotated
  /// training variance. 0 means all.
  Status SearchSubset(const float* query, size_t k, size_t num_subspaces_used,
                      std::vector<Neighbor>* out) const;

  /// Learned (d x d) rotation applied to centered data before encoding.
  const FloatMatrix& rotation() const { return rotation_; }
  /// Applies the learned centering + rotation to a raw vector (used to
  /// compose OPQ's space with other indexes, e.g. IMI+OPQ).
  void Project(const float* x, float* out) const;

  /// Persists/restores the learned rotation, dictionaries, and codes.
  /// Save writes the checksummed container format atomically; Load also
  /// accepts the legacy unversioned layout and runs ValidateInvariants().
  Status Save(const std::string& path) const;
  static Result<OptimizedProductQuantizer> Load(const std::string& path);

  /// Semantic consistency: the inner PQ's invariants (codebook shapes,
  /// every stored code in range, subspace ranking a true permutation) and
  /// a square, finite rotation with matching finite means.
  Status ValidateInvariants() const;

 private:
  /// Reads every section of a container or legacy v0 file.
  Status LoadSections(const SectionSource& source);
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  void SaveRotationSection(std::ostream& os) const;
  Status LoadRotationSection(std::istream& is);

  OpqOptions options_;
  std::vector<float> means_;
  FloatMatrix rotation_;
  ProductQuantizer pq_;  ///< over the centered, rotated vectors
};

}  // namespace vaq

#endif  // VAQ_QUANT_OPQ_H_
