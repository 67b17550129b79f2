#include "core/ti_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/io.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace vaq {

Status TiPartition::Build(const CodeMatrix& codes,
                          const VariableCodebooks& books,
                          const TiPartitionOptions& options,
                          std::vector<std::vector<uint32_t>>* members) {
  if (!books.trained()) {
    return Status::FailedPrecondition("codebooks must be trained first");
  }
  if (codes.rows() == 0) {
    return Status::InvalidArgument("cannot partition an empty code set");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("need at least one TI cluster");
  }
  const size_t n = codes.rows();
  const size_t num_clusters = std::min(options.num_clusters, n);
  prefix_subspaces_ =
      std::clamp<size_t>(options.prefix_subspaces, 1, books.num_subspaces());
  const size_t prefix_dims = books.layout().span(prefix_subspaces_ - 1).offset +
                             books.layout().span(prefix_subspaces_ - 1).length;

  // Algorithm 3 lines 24-32: random encoded samples become centroids,
  // decoded over the prefix subspaces.
  Rng rng(options.seed);
  const std::vector<size_t> picks =
      rng.SampleWithoutReplacement(n, num_clusters);
  centroids_.Resize(num_clusters, prefix_dims);
  std::vector<float> decoded(books.dim());
  for (size_t c = 0; c < num_clusters; ++c) {
    books.DecodeRow(codes.row(picks[c]), decoded.data());
    std::copy_n(decoded.data(), prefix_dims, centroids_.row(c));
  }

  // Assign every code to its nearest centroid. The distance from a
  // decoded code to a centroid is an ADC sum over the centroid's prefix
  // lookup table, which the scan kernel computes for 64 rows at a time.
  // Each worker owns a range of blocks and visits the centroids in
  // ascending order; strict < gives ties to the smaller centroid index.
  const BlockedCodes blocked = BlockedCodes::Build(codes);
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  std::vector<uint32_t> assignment(n, 0);
  std::vector<float> best_dist(n, std::numeric_limits<float>::max());
  ParallelFor(
      blocked.num_blocks(), options.num_threads,
      [&](size_t block_begin, size_t block_end) {
        std::vector<float> lut;
        float acc[kScanBlockSize];
        for (size_t c = 0; c < num_clusters; ++c) {
          books.BuildLookupTable(centroids_.row(c), &lut, prefix_subspaces_);
          for (size_t b = block_begin; b < block_end; ++b) {
            std::fill_n(acc, kScanBlockSize, 0.f);
            kernel.accumulate(blocked.block(b), lut.data(),
                              books.lut_offsets(), 0, prefix_subspaces_, acc);
            const size_t row0 = b * kScanBlockSize;
            const size_t lanes = std::min(kScanBlockSize, n - row0);
            for (size_t i = 0; i < lanes; ++i) {
              if (acc[i] < best_dist[row0 + i]) {
                best_dist[row0 + i] = acc[i];
                assignment[row0 + i] = static_cast<uint32_t>(c);
              }
            }
          }
        }
      });
  std::vector<std::vector<std::pair<float, uint32_t>>> staged(num_clusters);
  for (size_t r = 0; r < n; ++r) {
    staged[assignment[r]].push_back(
        {std::sqrt(best_dist[r]), static_cast<uint32_t>(r)});
  }

  // Sort each cluster ascending by centroid distance (Section III-D keeps
  // members ordered from closest to furthest). The store lays the
  // clusters out in order, so their distances concatenate by position.
  distances_.clear();
  distances_.reserve(n);
  members->assign(num_clusters, {});
  for (size_t c = 0; c < num_clusters; ++c) {
    auto& staged_members = staged[c];
    std::sort(staged_members.begin(), staged_members.end());
    (*members)[c].reserve(staged_members.size());
    for (const auto& [dist, id] : staged_members) {
      distances_.push_back(dist);
      (*members)[c].push_back(id);
    }
  }
  built_ = true;
  return Status::OK();
}

void TiPartition::Save(std::ostream& os,
                       const PartitionedCodes& store) const {
  WritePod<uint8_t>(os, built_ ? 1 : 0);
  WritePod<uint64_t>(os, prefix_subspaces_);
  WriteMatrix(os, centroids_);
  WritePod<uint64_t>(os, num_clusters());
  for (size_t c = 0; c < num_clusters(); ++c) {
    const size_t begin = store.partition_begin(c);
    const size_t count = store.partition_end(c) - begin;
    WriteSpan(os, store.ids().data() + begin, count);
    WriteSpan(os, distances_.data() + begin, count);
  }
}

Status TiPartition::Load(std::istream& is,
                         std::vector<std::vector<uint32_t>>* members) {
  uint8_t built = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &built));
  uint64_t prefix = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &prefix));
  VAQ_RETURN_IF_ERROR(ReadMatrix(is, &centroids_));
  uint64_t num = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &num));
  // Every cluster costs at least 16 payload bytes (two vector headers);
  // bound the resize on seekable streams.
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0 && num > static_cast<uint64_t>(remaining) / 16) {
    return Status::IoError("TI cluster count exceeds remaining payload "
                           "(corrupted file?)");
  }
  members->assign(num, {});
  distances_.clear();
  // Past the two headers a cluster costs 8 bytes per member (id and
  // distance), so the remaining payload gives the member total: reserve
  // it, and the array is allocated once rather than grown.
  if (remaining >= 0) {
    distances_.reserve((static_cast<uint64_t>(remaining) - 16 * num) / 8);
  }
  std::vector<float> cluster;
  for (size_t c = 0; c < num; ++c) {
    VAQ_RETURN_IF_ERROR(ReadVector(is, &(*members)[c]));
    VAQ_RETURN_IF_ERROR(ReadVector(is, &cluster));
    if ((*members)[c].size() != cluster.size()) {
      return Status::IoError("corrupted TI partition: id/distance arrays "
                             "disagree in length");
    }
    distances_.insert(distances_.end(), cluster.begin(), cluster.end());
  }
  prefix_subspaces_ = prefix;
  built_ = built != 0;
  return Status::OK();
}

Status TiPartition::ValidateInvariants(const PartitionedCodes& store,
                                       size_t num_subspaces,
                                       size_t expected_prefix_dims) const {
  if (!built_) return Status::FailedPrecondition("TI partition is not built");
  if (prefix_subspaces_ == 0 || prefix_subspaces_ > num_subspaces) {
    return Status::Internal("TI prefix_subspaces outside [1, m]");
  }
  if (centroids_.cols() != expected_prefix_dims) {
    return Status::Internal("TI centroid width disagrees with the layout's "
                            "prefix dimensions");
  }
  if (centroids_.rows() == 0) {
    return Status::Internal("TI partition has no clusters");
  }
  for (size_t i = 0; i < centroids_.size(); ++i) {
    if (!std::isfinite(centroids_.data()[i])) {
      return Status::Internal("TI centroids contain non-finite values");
    }
  }
  // The store's partitions are the clusters, member for member, and every
  // position has one cached distance.
  if (store.num_partitions() != num_clusters()) {
    return Status::Internal("TI cluster count disagrees with the code "
                            "store's partitions");
  }
  if (distances_.size() != store.rows()) {
    return Status::Internal("TI cached distances disagree with the store's "
                            "position count");
  }
  for (size_t c = 0; c < num_clusters(); ++c) {
    float prev = 0.f;
    for (size_t pos = store.partition_begin(c); pos < store.partition_end(c);
         ++pos) {
      const float d = distances_[pos];
      if (!std::isfinite(d) || d < 0.f || d < prev) {
        return Status::Internal("TI cached distances are not sorted "
                                "non-negative finite values");
      }
      prev = d;
    }
  }
  return Status::OK();
}

}  // namespace vaq
