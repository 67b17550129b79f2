#ifndef VAQ_CORE_TI_PARTITION_H_
#define VAQ_CORE_TI_PARTITION_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/codebook.h"
#include "core/scan.h"

namespace vaq {

struct TiPartitionOptions {
  /// Number of triangle-inequality clusters (the paper uses 1000 for
  /// million-scale datasets).
  size_t num_clusters = 1000;
  /// How many leading subspaces the cluster centroids span
  /// (TIClusterNumSubs in Algorithms 3-4). The triangle inequality is
  /// applied in this prefix space, which lower-bounds the full distance.
  size_t prefix_subspaces = 4;
  uint64_t seed = 42;
  /// Threads for the assignment pass (0 = hardware concurrency).
  size_t num_threads = 1;
};

/// Data-skipping structure of Sections III-D/III-E.
///
/// Encoded vectors are partitioned by their nearest of `num_clusters`
/// randomly-sampled decoded codes (prefix dims only); each member caches
/// its (non-squared) prefix distance to the centroid and members are kept
/// sorted by that distance. At query time, for a best-so-far radius r and
/// query-to-centroid distance dq, only members with cached distance in
/// (dq - r, dq + r) can beat the best-so-far — found by binary search —
/// because |dq - dx| <= d(query, member) by the triangle inequality.
///
/// The member ids themselves live in the index's PartitionedCodes, whose
/// partition c holds cluster c's members in this same order; the
/// partition keeps only centroids and the cached distances, indexed by
/// store position like PartitionedCodes::ids().
class TiPartition {
 public:
  TiPartition() = default;

  /// Builds the partition over `codes` using `books` to decode, and
  /// returns each cluster's member ids in `members`, sorted like the
  /// cached distances. The cluster count is capped at the number of rows.
  Status Build(const CodeMatrix& codes, const VariableCodebooks& books,
               const TiPartitionOptions& options,
               std::vector<std::vector<uint32_t>>* members);

  size_t num_clusters() const { return centroids_.rows(); }
  size_t prefix_subspaces() const { return prefix_subspaces_; }
  size_t prefix_dims() const { return centroids_.cols(); }
  /// Each store position's cached distance to its cluster's centroid;
  /// ascending within every partition of the store.
  const std::vector<float>& distances() const { return distances_; }

  /// Cluster centroids in decoded (prefix) float space; queries rank them
  /// through RankPartitions (core/scan.h).
  const FloatMatrix& centroids() const { return centroids_; }

  /// Writes the partition with each cluster's member ids, read from
  /// partition c of `store`.
  void Save(std::ostream& os, const PartitionedCodes& store) const;
  /// Reads what Save wrote; the member ids go to `members`.
  Status Load(std::istream& is, std::vector<std::vector<uint32_t>>* members);

  /// Post-load semantic validation against the store the partition
  /// serves: prefix bounds, centroid width, one store partition per
  /// cluster, one finite cached distance per position, sorted within
  /// each partition.
  /// `expected_prefix_dims` is the width of the layout's first
  /// prefix_subspaces() spans.
  Status ValidateInvariants(const PartitionedCodes& store,
                            size_t num_subspaces,
                            size_t expected_prefix_dims) const;

 private:
  bool built_ = false;
  size_t prefix_subspaces_ = 0;
  FloatMatrix centroids_;
  std::vector<float> distances_;  ///< per store position
};

}  // namespace vaq

#endif  // VAQ_CORE_TI_PARTITION_H_
