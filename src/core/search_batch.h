#ifndef VAQ_CORE_SEARCH_BATCH_H_
#define VAQ_CORE_SEARCH_BATCH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/topk.h"
#include "common/trace.h"
#include "core/scan.h"
#include "core/vaq_encoder.h"

namespace vaq {

/// The partition SearchQuery passes to a flat plan's scan step.
inline constexpr size_t kWholeStore = static_cast<size_t>(-1);

/// What an index decides about a query before projection: the partitions
/// to rank and how many of the nearest to visit.
struct SearchPlan {
  /// One centroid row per partition (TI clusters, IVF cells); nullptr
  /// for a flat scan of the whole store.
  const FloatMatrix* centroids = nullptr;
  /// How many of the ranked partitions the scan visits.
  size_t visit = 0;
};

/// The one query driver behind VaqIndex::Search and VaqIvfIndex::Search
/// (the paper's Algorithm 4; check points in DESIGN.md §9). In order:
///  1. rejects an untrained index and k outside [1, size]
///     (FinalizeRejectedQuery, so the rejection is counted);
///  2. resets `stats` (a local SearchStats when the caller passes
///     nullptr), so that it describes this query alone, and stamps the
///     plan into it (partitions_total, clusters_visited);
///  3. projects the query (kProject)          — deadline check;
///  4. builds the ADC lookup table (kLutBuild) — deadline check;
///  5. with plan.centroids, ranks the partitions into
///     scratch->partition_dist / scratch->order through RankPartitions
///     (kPartitionRank)                          — deadline check;
///  6. inside one kBlockScan span, calls `scan(scratch, stats, stop, p)`:
///     once with p = kWholeStore for a flat plan, otherwise once per
///     partition p = scratch->order[v], v in [0, plan.visit), checking
///     `stop` (nullptr when unarmed) and counting partitions_visited
///     before each. The index's scan reads scratch->lut, fills
///     scratch->heap and counts its work into the (never nullptr) stats;
///  7. FinalizeSearchResult.
template <typename ScanFn>
Status SearchQuery(const VaqEncoder& encoder, size_t size,
                   const float* query, size_t k, const SearchPlan& plan,
                   const QueryControl& control, SearchScratch* scratch,
                   std::vector<Neighbor>* out, SearchStats* stats,
                   ScanFn&& scan) {
  WallTimer timer;
  CpuTimer cpu_timer(CpuTimer::Scope::kThread);
  if (!encoder.trained()) {
    return FinalizeRejectedQuery(
        Status::FailedPrecondition("index is not trained"), stats);
  }
  if (k == 0) {
    return FinalizeRejectedQuery(Status::InvalidArgument("k must be >= 1"),
                                 stats);
  }
  if (k > size) {
    return FinalizeRejectedQuery(
        Status::InvalidArgument("k exceeds the number of indexed vectors"),
        stats);
  }
  StopController stop_state(control.deadline, control.cancel_token);
  StopController* stop = stop_state.armed() ? &stop_state : nullptr;
  auto stopped = [stop] { return stop != nullptr && stop->ShouldStop(); };

  // The query counts its work whether or not the caller asked for it:
  // FinalizeSearchResult feeds these counters to the metrics registry.
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->Reset();
  stats->partitions_total =
      plan.centroids != nullptr ? plan.centroids->rows() : 0;
  stats->clusters_visited = plan.visit;
  QueryTrace* trace = control.trace;
  if (trace != nullptr) trace->Reset();
  scratch->heap.Reset(k);
  {
    TraceSpan span(trace, QueryPhase::kProject);
    encoder.ProjectQuery(query, &scratch->pca_space, &scratch->projected);
  }
  bool scan_now = !stopped();
  if (scan_now) {
    {
      TraceSpan span(trace, QueryPhase::kLutBuild);
      encoder.codebooks().BuildLookupTable(scratch->projected.data(),
                                           &scratch->lut);
    }
    scan_now = !stopped();
  }
  if (scan_now && plan.centroids != nullptr) {
    {
      TraceSpan span(trace, QueryPhase::kPartitionRank);
      RankPartitions(*plan.centroids, scratch->projected.data(), plan.visit,
                     &scratch->partition_dist, &scratch->order);
    }
    scan_now = !stopped();
  }
  if (scan_now) {
    TraceSpan span(trace, QueryPhase::kBlockScan);
    if (plan.centroids == nullptr) {
      scan(scratch, stats, stop, kWholeStore);
    } else {
      for (size_t v = 0; v < plan.visit; ++v) {
        // Between-partition check: on expiry the heap already holds the
        // best-so-far over every partition (and partial block) completed.
        if (stopped()) break;
        ++stats->partitions_visited;
        scan(scratch, stats, stop, scratch->order[v]);
      }
    }
  }
  return FinalizeSearchResult(stop, control.strict_deadline, &scratch->heap,
                              out, stats, trace, timer.ElapsedMicros(),
                              cpu_timer.ElapsedMicros());
}

/// One query of a batch: answers `query` into `out` (and `stats`, which
/// is nullptr when the caller wants none) using the chunk's `scratch`.
using BatchQueryFn =
    std::function<Status(const float* query, SearchScratch* scratch,
                         std::vector<Neighbor>* out, SearchStats* stats)>;

/// Shared batch-execution driver for VaqIndex::SearchBatchInto and
/// VaqIvfIndex::SearchBatchInto. Rejects `queries` unless it has `dim`
/// columns, sizes `results` (and `query_stats`, when given, to fresh
/// SearchStats) to the query count, then runs `run_query` for every row
/// and records one Status per query.
///
/// Execution model (DESIGN.md §9):
///  - num_threads <= 1 runs inline on the caller's thread.
///  - Otherwise the batch is split into `num_threads` contiguous chunks
///    executed on the process-wide ThreadPool — no threads are created or
///    joined per call. Each chunk owns one SearchScratch, preserving the
///    allocation-free steady state of the previous per-call threads.
///  - Parallel batches pass admission control first: when the in-flight
///    query cap would be exceeded the whole batch fast-fails with
///    kUnavailable and `statuses` is left untouched.
///  - A query failure is recorded in its status slot and the chunk moves
///    on; an exception poisons only the chunk's remaining queries (their
///    slots get kInternal) — other chunks' results always survive.
///
/// Returns non-OK only for batch-level failures (dimension mismatch,
/// admission overflow, pool shutdown). When `statuses` is nullptr a
/// per-query failure is instead surfaced as the first non-OK status,
/// preserving the legacy all-or-nothing contract.
///
/// Concurrency discipline: chunk workers write disjoint result, stats and
/// status slots and own their SearchScratch, so the only shared
/// capabilities are inside ThreadPool/TaskGroup (vaq::Mutex, statically
/// checked under VAQ_ENABLE_THREAD_SAFETY_ANALYSIS) and the lock-free
/// AdmissionController (common/thread_pool.h).
Status RunSearchBatch(const FloatMatrix& queries, size_t dim,
                      size_t num_threads, const BatchQueryFn& run_query,
                      std::vector<std::vector<Neighbor>>* results,
                      std::vector<Status>* statuses,
                      std::vector<SearchStats>* query_stats);

}  // namespace vaq

#endif  // VAQ_CORE_SEARCH_BATCH_H_
