#ifndef VAQ_INDEX_HNSW_H_
#define VAQ_INDEX_HNSW_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"

namespace vaq {

struct HnswOptions {
  /// Max out-degree per layer (2M at layer 0). Paper sweeps 8..32.
  size_t m = 16;
  /// Candidate-list width during construction (EFC). Paper sweeps 10..200.
  size_t ef_construction = 200;
  /// Default candidate-list width during search (EFS). Paper sweeps 8..64.
  size_t ef_search = 32;
  uint64_t seed = 42;
};

/// Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI
/// 2018) — the strong graph index VAQ is compared against in Figure 12.
///
/// The index stores its own copy of the vectors it is built over. To
/// reproduce the paper's "HNSW over PQ-encoded data" setting, build it on
/// the *reconstructions* of PQ codes: pairwise graph distances then equal
/// the symmetric PQ distances and query distances equal ADC.
class HnswIndex {
 public:
  HnswIndex() = default;

  /// Builds the graph over the rows of `data`.
  Status Build(const FloatMatrix& data, const HnswOptions& options);

  size_t size() const { return data_.rows(); }

  /// k-NN search. `ef` widens the layer-0 beam (0 uses the build-time
  /// default); recall grows with ef at the cost of runtime.
  Status Search(const float* query, size_t k, size_t ef,
                std::vector<Neighbor>* out) const;

 private:
  struct Candidate {
    float distance;
    uint32_t id;
    friend bool operator<(const Candidate& a, const Candidate& b) {
      return a.distance < b.distance;
    }
    friend bool operator>(const Candidate& a, const Candidate& b) {
      return a.distance > b.distance;
    }
  };

  float Distance(const float* a, uint32_t id) const {
    return SquaredL2(a, data_.row(id), data_.cols());
  }

  /// Beam search within one layer starting from `entry`; returns up to
  /// `ef` closest candidates (max-heap order not guaranteed).
  void SearchLayer(const float* query, uint32_t entry, float entry_dist,
                   int level, size_t ef,
                   std::vector<Candidate>* results) const;

  /// Neighbor selection by the distance-diversity heuristic of the HNSW
  /// paper (keeps a candidate only if it is closer to the query point than
  /// to any already-kept neighbor).
  void SelectNeighbors(const float* base, std::vector<Candidate>* candidates,
                       size_t m) const;

  std::vector<uint32_t>& Links(uint32_t id, int level) {
    return links_[id][level];
  }
  const std::vector<uint32_t>& Links(uint32_t id, int level) const {
    return links_[id][level];
  }

  HnswOptions options_;
  FloatMatrix data_;
  /// links_[id][level] = adjacency list of `id` at `level`.
  std::vector<std::vector<std::vector<uint32_t>>> links_;
  std::vector<int> levels_;
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
  mutable std::vector<uint32_t> visit_epoch_;
  mutable uint32_t epoch_ = 0;
};

}  // namespace vaq

#endif  // VAQ_INDEX_HNSW_H_
