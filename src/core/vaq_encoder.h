#ifndef VAQ_CORE_VAQ_ENCODER_H_
#define VAQ_CORE_VAQ_ENCODER_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/codebook.h"
#include "core/subspace.h"
#include "linalg/pca.h"

namespace vaq {

/// Training-time configuration of a VaqIndex (Algorithm 5 inputs).
struct VaqOptions {
  /// Number of subspaces m.
  size_t num_subspaces = 32;
  /// Total encoding budget in bits (sum over subspaces).
  size_t total_bits = 256;
  /// C2 bounds on the per-subspace allocation (paper: 1 and 13).
  size_t min_bits = 1;
  size_t max_bits = 13;
  /// Non-uniform subspace widths via 1-D k-means over the variance profile
  /// (Section III-B "Clustering of Dimensions"); uniform widths otherwise.
  bool clustered_subspaces = false;
  /// Partial importance balancing (Algorithm 2 lines 2-9).
  bool partial_balance = true;
  /// Adaptive bit allocation (AllocateBits); false assigns total_bits/m
  /// uniformly (the PQ/OPQ regime) for ablation studies.
  bool adaptive_allocation = true;
  /// Mean-center before PCA.
  bool center_pca = true;
  /// Triangle-inequality partition size (paper: 1000 clusters).
  size_t ti_clusters = 1000;
  /// Subspaces spanned by TI centroids; 0 picks the smallest prefix
  /// explaining >= 90% of the variance.
  size_t ti_prefix_subspaces = 0;
  int kmeans_iters = 25;
  uint64_t seed = 42;
  /// Threads used for the embarrassingly-parallel training steps (data
  /// encoding and TI cluster assignment). 0 = hardware concurrency.
  /// Query execution is always single-threaded per query, matching the
  /// paper's CPU-time reporting.
  size_t train_threads = 1;
};

/// Algorithm 5's encoding pipeline, shared by VaqIndex and VaqIvfIndex
/// (DESIGN.md §12): VarPCA, subspace grouping with partial balancing,
/// adaptive bit allocation and variable-size dictionaries. Layout and bits
/// are read from the codebooks, so there is one copy of each.
class VaqEncoder {
 public:
  /// Trains every stage on `data` (n x d) and encodes it into `codes`;
  /// `projected` (optional) receives `data` in the permuted PCA space.
  /// Requires n >= 2, num_subspaces in [1, d] and min_bits >= 1. Bits per
  /// subspace are capped at log2(n) where the budget allows.
  static Result<VaqEncoder> Train(const FloatMatrix& data,
                                  const VaqOptions& options, CodeMatrix* codes,
                                  FloatMatrix* projected = nullptr);

  bool trained() const { return books_.trained(); }
  size_t dim() const { return pca_.dim(); }
  size_t num_subspaces() const { return books_.num_subspaces(); }
  const SubspaceLayout& layout() const { return books_.layout(); }
  const std::vector<int>& bits() const { return books_.bits(); }
  const VariableCodebooks& codebooks() const { return books_; }
  /// Layout position -> PCA component.
  const std::vector<size_t>& permutation() const { return permutation_; }
  /// Normalized variance share of each (importance-ordered) subspace.
  /// Empty after loading a file that does not persist it (IVF).
  const std::vector<double>& subspace_variances() const {
    return subspace_variances_;
  }
  /// Number of swaps the partial balancing step performed.
  size_t balance_swaps() const { return balance_swaps_; }

  /// Projects, permutes and encodes every row of `data` (n x dim()).
  Result<CodeMatrix> Encode(const FloatMatrix& data,
                            size_t num_threads) const;

  /// Projects one raw vector (length dim()) into the permuted PCA space.
  /// `pca_space` is a work buffer; both vectors are resized to dim(), so
  /// reused buffers make this allocation-free.
  void ProjectQuery(const float* query, std::vector<float>* pca_space,
                    std::vector<float>* projected) const;

  /// Fitted PCA, true permutation of [0, dim), valid codebooks of width
  /// dim(). Options and the variance profile are not checked here: only
  /// VaqIndex persists them.
  Status ValidateInvariants() const;

  // Section payloads (DESIGN.md §8). Each Load parses into the encoder;
  // ValidateInvariants checks the result as a whole.
  void SavePca(std::ostream& os) const;
  Status LoadPca(std::istream& is);
  void SavePermutation(std::ostream& os) const;
  Status LoadPermutation(std::istream& is);
  /// Subspace variance profile plus the balance-swap count.
  void SaveProfile(std::ostream& os) const;
  Status LoadProfile(std::istream& is);
  void SaveCodebooks(std::ostream& os) const { books_.Save(os); }
  Status LoadCodebooks(std::istream& is) { return books_.Load(is); }

 private:
  /// PCA transform plus column permutation of every row of `data`.
  Result<FloatMatrix> Project(const FloatMatrix& data) const;

  Pca pca_;
  std::vector<size_t> permutation_;
  std::vector<double> subspace_variances_;
  size_t balance_swaps_ = 0;
  VariableCodebooks books_;
};

}  // namespace vaq

#endif  // VAQ_CORE_VAQ_ENCODER_H_
