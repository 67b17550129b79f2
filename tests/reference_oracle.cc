#include "reference_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/deadline.h"
#include "common/matrix.h"

namespace vaq {
namespace {

/// Early abandoning distance accumulation (Algorithm 4 lines 38-41) of
/// row `id` into `heap`. Accumulates lookup-table entries subspace by
/// subspace, checking the best-so-far threshold every `interval`
/// subspaces (the paper checks every four to amortize the branch), and
/// abandons only once the partial sum exceeds it: a distance equal to the
/// threshold may still win its tie by id. Only a full distance is pushed.
void EarlyAbandonPush(const VariableCodebooks& books, const uint16_t* code,
                      int64_t id, const float* lut, size_t s_limit,
                      size_t interval, TopKHeap* heap, SearchStats* stats) {
  const float threshold_sq = heap->Threshold();
  float acc = 0.f;
  size_t s = 0;
  while (s < s_limit) {
    const size_t stop = std::min(s + interval, s_limit);
    for (; s < stop; ++s) {
      acc += lut[books.lut_offset(s) + code[s]];
    }
    if (acc > threshold_sq) break;
  }
  stats->lut_adds += s;
  ++stats->codes_visited;
  if (s < s_limit) return;
  ++stats->rows_scanned;
  heap->Push(acc, id);
}

/// All partitions ranked by (squared distance from `projected` to their
/// centroid over centroids.cols() dimensions, partition id), with the
/// squared distances in `dist`.
std::vector<size_t> RankAll(const FloatMatrix& centroids,
                            const float* projected, std::vector<float>* dist) {
  const size_t n = centroids.rows();
  dist->assign(n, 0.f);
  for (size_t c = 0; c < n; ++c) {
    (*dist)[c] = SquaredL2(projected, centroids.row(c), centroids.cols());
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if ((*dist)[a] != (*dist)[b]) return (*dist)[a] < (*dist)[b];
    return a < b;
  });
  return order;
}

/// The check points production runs before its scan (SearchQuery):
/// projects `query` and, unless `stop` fires right after, builds the
/// lookup table into `lut`. Returns false when `stop` fired after either
/// step.
bool ProjectAndBuildLut(const VaqEncoder& encoder, const float* query,
                        std::vector<float>* projected,
                        std::vector<float>* lut, StopController* stop) {
  std::vector<float> pca_space;
  encoder.ProjectQuery(query, &pca_space, projected);
  if (stop != nullptr && stop->ShouldStop()) return false;
  encoder.codebooks().BuildLookupTable(projected->data(), lut);
  return stop == nullptr || !stop->ShouldStop();
}

/// Fills `heap` by the row-at-a-time scan of `index` in `mode` over
/// `s_limit` subspaces (TI: the `visit` nearest clusters), in store order
/// (VaqIndex::store()).
void ScanRows(const VaqIndex& index, const float* projected,
              const std::vector<float>& lut, const SearchParams& params,
              SearchMode mode, size_t s_limit, size_t visit, TopKHeap* heap,
              SearchStats* stats, StopController* stop) {
  const VariableCodebooks& books = index.codebooks();
  const PartitionedCodes& store = index.store();
  const CodeMatrix codes = store.RowCodes();
  const std::vector<uint32_t>& ids = store.ids();
  const size_t interval = std::max<size_t>(1, params.ea_check_interval);
  const size_t n = codes.rows();

  if (mode == SearchMode::kHeap) {
    for (size_t pos = 0; pos < n; ++pos) {
      // Same check granularity as the blocked kernels: every 64 positions.
      if (stop != nullptr && pos % kScanBlockSize == 0 && stop->ShouldStop()) {
        return;
      }
      const uint16_t* code = codes.row(ids[pos]);
      float acc = 0.f;
      for (size_t s = 0; s < s_limit; ++s) {
        acc += lut[books.lut_offset(s) + code[s]];
      }
      heap->Push(acc, static_cast<int64_t>(ids[pos]));
      ++stats->codes_visited;
      stats->lut_adds += s_limit;
      ++stats->rows_scanned;
    }
    return;
  }

  if (mode == SearchMode::kEarlyAbandon) {
    for (size_t pos = 0; pos < n; ++pos) {
      if (stop != nullptr && pos % kScanBlockSize == 0 && stop->ShouldStop()) {
        return;
      }
      EarlyAbandonPush(books, codes.row(ids[pos]), ids[pos], lut.data(),
                       s_limit, interval, heap, stats);
    }
    return;
  }

  // Triangle inequality cascade (Algorithm 4) over the `visit` nearest
  // clusters.
  const TiPartition& ti = index.ti_partition();
  std::vector<float> query_to_cluster;
  const std::vector<size_t> order =
      RankAll(ti.centroids(), projected, &query_to_cluster);
  if (stop != nullptr && stop->ShouldStop()) return;

  for (size_t v = 0; v < visit; ++v) {
    if (stop != nullptr && stop->ShouldStop()) return;
    ++stats->partitions_visited;
    const size_t c = order[v];
    // Cluster c is store positions [base, base + size); its cached
    // distances are ti.distances() at those positions, indexed below
    // relative to base.
    const size_t base = store.partition_begin(c);
    const size_t size = store.partition_end(c) - base;
    const float* cached = ti.distances().data() + base;
    if (size == 0) continue;
    const float dq = std::sqrt(query_to_cluster[c]);

    // Members that can beat the best-so-far satisfy
    // |dq - d(x, centroid)| < bsf, i.e. d(x, centroid) in (dq-r, dq+r).
    // The cached distances are sorted, so locate the window once and keep
    // tightening its upper end as the threshold improves.
    size_t begin = 0;
    size_t end = size;
    if (heap->full()) {
      const float r = std::sqrt(heap->Threshold());
      begin = std::lower_bound(cached, cached + size, dq - r) - cached;
      end = std::upper_bound(cached, cached + size, dq + r) - cached;
      stats->codes_skipped_ti += size - (end - begin);
    }
    // The blocked scan checks the deadline once per store block it scans
    // in; check before the first row scanned in each block.
    size_t checked_block = SIZE_MAX;
    for (size_t i = begin; i < end; ++i) {
      if (heap->full()) {
        const float r = std::sqrt(heap->Threshold());
        const float dx = cached[i];
        if (dx >= dq + r) {
          // Sorted ascending: every later member is also out of range.
          stats->codes_skipped_ti += end - i;
          break;
        }
        if (dx <= dq - r) {
          ++stats->codes_skipped_ti;
          continue;
        }
      }
      const size_t block = (base + i) / kScanBlockSize;
      if (stop != nullptr && block != checked_block) {
        checked_block = block;
        if (stop->ShouldStop()) return;
      }
      const uint32_t id = ids[base + i];
      EarlyAbandonPush(books, codes.row(id), id, lut.data(), s_limit, interval,
                       heap, stats);
    }
  }
}

}  // namespace

Status ReferenceSearch(const VaqIndex& index, const float* query,
                       const SearchParams& params, std::vector<Neighbor>* out,
                       SearchStats* stats) {
  const size_t m = index.num_subspaces();
  const size_t s_limit = params.num_subspaces_used == 0
                             ? m
                             : std::min(params.num_subspaces_used, m);
  SearchMode mode = params.mode;
  if (mode == SearchMode::kTriangleInequality && s_limit != m) {
    mode = SearchMode::kEarlyAbandon;  // TI caches assume full distances
  }
  size_t clusters = 0, visit = 0;
  if (mode == SearchMode::kTriangleInequality) {
    clusters = index.ti_partition().num_clusters();
    visit = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(params.visit_fraction *
                                      static_cast<double>(clusters))),
        1, clusters);
  }
  // Like production: a reset (or local) stats, then the plan, stamped
  // before projection.
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->Reset();
  stats->partitions_total = clusters;
  stats->clusters_visited = visit;
  StopController stop(params.deadline, params.cancel_token);
  StopController* stop_ptr = stop.armed() ? &stop : nullptr;
  // The same check points as production: after projection, after the
  // LUT build and (TI) after ranking, then inside the scan.
  std::vector<float> projected, lut;
  TopKHeap heap(params.k);
  if (ProjectAndBuildLut(index.encoder(), query, &projected, &lut,
                         stop_ptr)) {
    ScanRows(index, projected.data(), lut, params, mode, s_limit, visit,
             &heap, stats, stop_ptr);
  }
  return FinalizeSearchResult(stop_ptr, params.strict_deadline, &heap, out,
                              stats, /*trace=*/nullptr,
                              /*wall_micros=*/0.0, /*cpu_micros=*/0.0);
}

Status ReferenceIvfSearch(const VaqIvfIndex& index, const float* query,
                          size_t k, size_t nprobe,
                          const QueryControl& control,
                          std::vector<Neighbor>* out, SearchStats* stats) {
  const FloatMatrix& centroids = index.coarse().centroids();
  const size_t cells = centroids.rows();
  nprobe = std::min(nprobe, cells);
  // Like production: a reset (or local) stats, then the plan, stamped
  // before projection.
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->Reset();
  stats->partitions_total = cells;
  stats->clusters_visited = nprobe;
  StopController stop_state(control.deadline, control.cancel_token);
  StopController* stop = stop_state.armed() ? &stop_state : nullptr;
  const VariableCodebooks& books = index.encoder().codebooks();
  const PartitionedCodes& store = index.store();
  const CodeMatrix codes = store.RowCodes();
  TopKHeap heap(k);
  std::vector<float> projected, lut, cell_dist;
  // The same check points as production: after projection, after the LUT
  // build, after ranking, between cells and once per store block a list
  // scans into.
  auto scan = [&] {
    const std::vector<size_t> order =
        RankAll(centroids, projected.data(), &cell_dist);
    if (stop != nullptr && stop->ShouldStop()) return;
    for (size_t v = 0; v < nprobe; ++v) {
      if (stop != nullptr && stop->ShouldStop()) return;
      ++stats->partitions_visited;
      const size_t c = order[v];
      size_t checked_block = SIZE_MAX;
      for (size_t pos = store.partition_begin(c);
           pos < store.partition_end(c); ++pos) {
        if (stop != nullptr && pos / kScanBlockSize != checked_block) {
          checked_block = pos / kScanBlockSize;
          if (stop->ShouldStop()) return;
        }
        const uint32_t id = store.ids()[pos];
        EarlyAbandonPush(books, codes.row(id), id, lut.data(),
                         books.num_subspaces(), /*interval=*/4, &heap,
                         stats);
      }
    }
  };
  if (ProjectAndBuildLut(index.encoder(), query, &projected, &lut, stop)) {
    scan();
  }
  return FinalizeSearchResult(stop, control.strict_deadline, &heap, out,
                              stats, /*trace=*/nullptr,
                              /*wall_micros=*/0.0, /*cpu_micros=*/0.0);
}

void ReferenceTiAssign(const CodeMatrix& codes, const VariableCodebooks& books,
                       const FloatMatrix& centroids, size_t prefix_subspaces,
                       std::vector<std::vector<uint32_t>>* members,
                       std::vector<std::vector<float>>* distances) {
  const size_t num_clusters = centroids.rows();
  std::vector<std::vector<float>> cluster_luts(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    books.BuildLookupTable(centroids.row(c), &cluster_luts[c],
                           prefix_subspaces);
  }
  std::vector<std::vector<std::pair<float, uint32_t>>> staged(num_clusters);
  for (size_t r = 0; r < codes.rows(); ++r) {
    const uint16_t* code = codes.row(r);
    float best = std::numeric_limits<float>::max();
    size_t best_c = 0;
    for (size_t c = 0; c < num_clusters; ++c) {
      float dist = 0.f;
      for (size_t s = 0; s < prefix_subspaces; ++s) {
        dist += cluster_luts[c][books.lut_offset(s) + code[s]];
      }
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    }
    staged[best_c].push_back({std::sqrt(best), static_cast<uint32_t>(r)});
  }
  members->assign(num_clusters, {});
  distances->assign(num_clusters, {});
  for (size_t c = 0; c < num_clusters; ++c) {
    std::sort(staged[c].begin(), staged[c].end());
    for (const auto& [dist, id] : staged[c]) {
      (*distances)[c].push_back(dist);
      (*members)[c].push_back(id);
    }
  }
}

}  // namespace vaq
