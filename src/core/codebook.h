#ifndef VAQ_CORE_CODEBOOK_H_
#define VAQ_CORE_CODEBOOK_H_

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/subspace.h"

namespace vaq {

struct CodebookOptions {
  int kmeans_iters = 25;
  uint64_t seed = 42;
};

/// Per-subspace dictionaries of *variable* sizes (Section III-D) plus the
/// encode/decode and lookup-table machinery shared by the query engine.
///
/// Dictionary i holds 2^bits[i] centroids of the subspace's width. Encoded
/// vectors store one uint16 dictionary index per subspace.
class VariableCodebooks {
 public:
  VariableCodebooks() = default;

  /// Trains one k-means dictionary per subspace of `projected`
  /// (n x layout.dim(), already PCA-projected and permuted). `bits[i]` in
  /// [1, 16].
  Status Train(const FloatMatrix& projected, const SubspaceLayout& layout,
               const std::vector<int>& bits, const CodebookOptions& options);

  bool trained() const { return trained_; }
  size_t num_subspaces() const { return layout_.num_subspaces(); }
  size_t dim() const { return layout_.dim(); }
  const SubspaceLayout& layout() const { return layout_; }
  const std::vector<int>& bits() const { return bits_; }

  /// Dictionary for subspace s: (2^bits[s] x span(s).length).
  const FloatMatrix& centroids(size_t s) const { return centroids_[s]; }

  /// Encodes every row of `data` (n x dim()), splitting the rows over
  /// `num_threads` threads (ParallelFor; 0 = hardware concurrency).
  Result<CodeMatrix> Encode(const FloatMatrix& data,
                            size_t num_threads = 1) const;

  /// Encodes a single vector (length dim()) into `code` (num_subspaces()):
  /// per subspace, the first dictionary item at the smallest squared L2
  /// distance (SquaredL2). Subspaces of width 4 go through the kernel the
  /// CPU picks (ScanKernel::span4_nearest, core/scan.h), which returns
  /// the same code.
  void EncodeRow(const float* x, uint16_t* code) const;

  /// Reconstructs the vector represented by `code` into `out`
  /// (length dim()).
  void DecodeRow(const uint16_t* code, float* out) const;

  /// Total number of lookup-table entries (sum of dictionary sizes).
  size_t lut_entries() const { return lut_entries_; }

  /// Start of subspace s's block inside a flat lookup table.
  size_t lut_offset(size_t s) const { return lut_offsets_[s]; }
  /// All num_subspaces() block starts, in the width the scan kernels take.
  const uint32_t* lut_offsets() const { return lut_offsets_.data(); }

  /// Fills `lut` (resized to lut_entries()) with squared distances from the
  /// query's subvectors to every dictionary item — the ADC table of
  /// Algorithm 4 lines 5-13. Only the first `prefix_subspaces` subspaces'
  /// entries are written (capped at num_subspaces()); later entries are
  /// left untouched and `query` need only hold those subspaces' dims. The
  /// TI partition builds its centroids' prefix tables this way. Every
  /// entry equals SquaredL2 bit for bit; subspaces of width 4 are computed
  /// 8 entries at a time by the kernel the CPU picks
  /// (ScanKernel::span4_distances, core/scan.h).
  void BuildLookupTable(
      const float* query, std::vector<float>* lut,
      size_t prefix_subspaces = std::numeric_limits<size_t>::max()) const;

  /// Full ADC accumulation over all subspaces (squared distance).
  float AdcDistance(const uint16_t* code, const float* lut) const;

  /// Per-subspace tables of squared distances between dictionary items,
  /// enabling Symmetric Distance Computation (SDC, Section II-C): both
  /// query and database are encoded and distances come from code-to-code
  /// lookups. tables[s] is row-major (2^bits[s] x 2^bits[s]).
  struct SdcTables {
    std::vector<std::vector<float>> tables;
  };

  /// Builds SDC tables. Quadratic in dictionary size, so subspaces above
  /// 12 bits are rejected (16M+ entries per table).
  Result<SdcTables> BuildSdcTables() const;

  /// Squared SDC distance between two encoded vectors.
  float SdcDistance(const uint16_t* a, const uint16_t* b,
                    const SdcTables& sdc) const;

  /// Mean squared reconstruction error of `data` under the codebooks
  /// (the quantization error of Eq. 2, averaged).
  Result<double> ReconstructionError(const FloatMatrix& data) const;

  void Save(std::ostream& os) const;
  /// Restores from a stream, validating structural consistency (span
  /// contiguity, bits in [1, 16], dictionary shapes) before any state is
  /// committed, so corrupted payloads fail with a Status instead of
  /// aborting or indexing out of bounds.
  Status Load(std::istream& is);

  /// Post-load semantic validation: trained, shapes mutually consistent,
  /// every centroid value finite. Cheap relative to deserialization.
  Status ValidateInvariants() const;

  /// Checks an encoded database against these codebooks: one column per
  /// subspace and every stored code `< 2^bits[s]`, i.e. addressing an
  /// existing dictionary entry — the bound the ADC scan kernels index
  /// lookup tables with.
  Status ValidateCodes(const CodeMatrix& codes) const;

 private:
  /// Sets lut_offsets_/lut_entries_ from bits_.
  void ComputeLutOffsets();

  bool trained_ = false;
  SubspaceLayout layout_;
  std::vector<int> bits_;
  std::vector<FloatMatrix> centroids_;
  std::vector<uint32_t> lut_offsets_;
  size_t lut_entries_ = 0;
};

}  // namespace vaq

#endif  // VAQ_CORE_CODEBOOK_H_
