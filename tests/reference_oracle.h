// Row-at-a-time references: the loops the blocked kernels replaced, kept
// as the correctness oracle for both index drivers and the TI partition
// build. Every row accumulates its subspaces in ascending order, exactly
// like the blocked kernels, so production must match these bit for bit
// (neighbors and distances, cluster members and cached distances).
// Test-only: no production path runs them.

#ifndef VAQ_TESTS_REFERENCE_ORACLE_H_
#define VAQ_TESTS_REFERENCE_ORACLE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/topk.h"
#include "core/scan.h"
#include "core/vaq_index.h"
#include "index/vaq_ivf.h"

namespace vaq {

/// Row-at-a-time VaqIndex::Search, visiting rows in store order (the
/// positions of VaqIndex::store(), read through its id map). Honors every
/// SearchParams field except `trace`; the deadline and
/// cancellation are checked where production checks them: after
/// projection, after the LUT build, after TI ranking, every 64 store
/// positions, between TI clusters and once per store block a TI window
/// scans in. TI ranks the clusters by (squared distance, cluster id).
/// Work counters are row-granular, so they may differ from the blocked
/// scan's.
Status ReferenceSearch(const VaqIndex& index, const float* query,
                       const SearchParams& params, std::vector<Neighbor>* out,
                       SearchStats* stats = nullptr);

/// Row-at-a-time VaqIvfIndex::Search over the `nprobe` nearest cells
/// (nprobe >= 1), ranked by (squared distance, cell id), with early
/// abandoning checked every four subspaces. The deadline and
/// cancellation in `control` are checked where production checks them:
/// after projection, after the LUT build, after ranking, between cells
/// and once per store block a list scans into.
Status ReferenceIvfSearch(const VaqIvfIndex& index, const float* query,
                          size_t k, size_t nprobe,
                          const QueryControl& control,
                          std::vector<Neighbor>* out,
                          SearchStats* stats = nullptr);

/// Row-at-a-time TI assignment (Algorithm 3 lines 24-32) of every row of
/// `codes` to the nearest row of `centroids` over the first
/// `prefix_subspaces` subspaces: one prefix lookup table per centroid,
/// each row's ADC sum accumulated from 0.f in ascending subspace order,
/// centroids tried in ascending order with strict < (ties go to the
/// smaller index). Fills, per cluster, the member ids and their
/// non-squared cached distances sorted by (distance, id) — what
/// TiPartition::Build produces for the same centroids.
void ReferenceTiAssign(const CodeMatrix& codes, const VariableCodebooks& books,
                       const FloatMatrix& centroids, size_t prefix_subspaces,
                       std::vector<std::vector<uint32_t>>* members,
                       std::vector<std::vector<float>>* distances);

}  // namespace vaq

#endif  // VAQ_TESTS_REFERENCE_ORACLE_H_
