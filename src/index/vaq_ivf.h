#ifndef VAQ_INDEX_VAQ_IVF_H_
#define VAQ_INDEX_VAQ_IVF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "core/vaq_index.h"

namespace vaq {

struct VaqIvfOptions {
  /// Underlying VAQ encoder configuration (its TI partition is replaced by
  /// the IVF lists, so ti_clusters is ignored).
  VaqOptions vaq;
  /// Number of coarse k-means partitions (inverted lists).
  size_t coarse_k = 256;
  /// Default number of lists probed per query (>= 1).
  size_t default_nprobe = 8;
};

/// Inverted-file index over VAQ primitives — the "new index for
/// quantization methods" the paper's conclusion calls for (Sections V-B/E
/// show random-sample TI partitions already rival tree indexes; this
/// replaces them with trained coarse k-means partitions in the projected
/// space, the IVF pattern, while keeping VAQ's variable-size codes and
/// importance-ordered early abandoning inside each list).
class VaqIvfIndex {
 public:
  VaqIvfIndex() = default;

  static Result<VaqIvfIndex> Train(const FloatMatrix& data,
                                   const VaqIvfOptions& options);

  size_t size() const { return store_.rows(); }
  size_t dim() const { return encoder_.dim(); }
  size_t coarse_k() const { return coarse_.k(); }
  const std::vector<int>& bits_per_subspace() const {
    return encoder_.bits();
  }
  const VaqEncoder& encoder() const { return encoder_; }
  /// The encoded database: the one blocked copy of the codes, in
  /// inverted-list order (partition c = the members of coarse cell c).
  const PartitionedCodes& store() const { return store_; }
  /// Coarse quantizer over the projected space.
  const KMeans& coarse() const { return coarse_; }

  /// k-NN over the `nprobe` nearest lists (0 = the configured default;
  /// nprobe >= coarse_k degenerates to a full early-abandoned scan).
  Status Search(const float* query, size_t k, size_t nprobe,
                std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Same, under `control` (deadline, cancellation, strict mode, trace;
  /// checked as for VaqIndex, DESIGN.md §9), reusing caller-owned scratch
  /// for an allocation-free steady-state query path.
  Status Search(const float* query, size_t k, size_t nprobe,
                const QueryControl& control, SearchScratch* scratch,
                std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Batch search on the process-wide ThreadPool behind admission
  /// control; mirrors VaqIndex::SearchBatchInto (fast-fail kUnavailable
  /// on overload, shared batch deadline, per-query statuses).
  Status SearchBatchInto(const FloatMatrix& queries, size_t k, size_t nprobe,
                         const QueryControl& control, size_t num_threads,
                         std::vector<std::vector<Neighbor>>* results,
                         std::vector<Status>* statuses = nullptr,
                         std::vector<SearchStats>* query_stats = nullptr)
      const;

  /// Persists the index as a versioned, checksummed container, staged to
  /// a temp file and renamed into place (crash-safe; see DESIGN.md §8).
  Status Save(const std::string& path) const;
  /// Restores a container or legacy-format index; both paths run
  /// ValidateInvariants() before any scan structure is built.
  static Result<VaqIvfIndex> Load(const std::string& path);

  /// Semantic consistency: the encoder's checks, codebook/code
  /// agreement, a positive default nprobe, coarse centroid shape, and one
  /// inverted list per coarse cell. (That the lists cover every row
  /// exactly once is checked when the store is built.)
  Status ValidateInvariants() const;

 private:
  /// ValidateInvariants given `codes`, the store's codes row-major.
  Status CheckInvariants(const CodeMatrix& codes) const;
  /// Reads every section of a container or legacy v0 file.
  Status LoadSections(const SectionSource& source);
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  void SaveListsSection(std::ostream& os) const;
  static Status LoadListsSection(std::istream& is,
                                 std::vector<std::vector<uint32_t>>* lists);

  VaqIvfOptions options_;
  VaqEncoder encoder_;
  KMeans coarse_;           ///< over projected vectors
  PartitionedCodes store_;  ///< the codes, blocked once in list order
};

}  // namespace vaq

#endif  // VAQ_INDEX_VAQ_IVF_H_
