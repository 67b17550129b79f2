// Row-at-a-time reference searches: the scan loops the blocked kernels
// replaced, kept as the correctness oracle for both index drivers. Every
// row accumulates its subspaces in ascending order, exactly like the
// blocked kernels, so the production Search must match these bit for bit
// (neighbors and distances). Test-only: no production path runs them.

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
/// SearchParams field except `kernel` and `trace`; the deadline and
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

}  // namespace vaq

#endif  // VAQ_TESTS_REFERENCE_ORACLE_H_
