#include "core/scan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/cpu_features.h"
#include "common/log.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace vaq {

BlockedCodes BlockedCodes::Build(const CodeMatrix& codes, const uint32_t* ids,
                                 size_t count) {
  BlockedCodes bc;
  bc.rows_ = count;
  bc.num_subspaces_ = codes.cols();
  if (count == 0 || bc.num_subspaces_ == 0) return bc;
  const size_t m = bc.num_subspaces_;
  const size_t blocks = (count + kScanBlockSize - 1) / kScanBlockSize;
  bc.data_.assign(blocks * m * kScanBlockSize, 0);
  for (size_t r = 0; r < count; ++r) {
    const size_t id = ids != nullptr ? ids[r] : r;
    VAQ_DCHECK(id < codes.rows());
    const uint16_t* src = codes.row(id);
    const size_t b = r / kScanBlockSize;
    const size_t lane = r % kScanBlockSize;
    uint16_t* dst = bc.data_.data() + b * m * kScanBlockSize + lane;
    for (size_t s = 0; s < m; ++s) dst[s * kScanBlockSize] = src[s];
  }
  return bc;
}

Result<PartitionedCodes> PartitionedCodes::Build(
    const CodeMatrix& codes,
    const std::vector<std::vector<uint32_t>>& partitions) {
  const size_t n = codes.rows();
  PartitionedCodes store;
  store.ids_.reserve(n);
  store.offsets_.reserve(partitions.size() + 1);
  store.offsets_.push_back(0);
  // The ids index `codes` and come from files, so they are checked before
  // any row is gathered.
  std::vector<bool> seen(n, false);
  for (const std::vector<uint32_t>& partition : partitions) {
    for (uint32_t id : partition) {
      if (id >= n || seen[id]) {
        return Status::Internal("partitions are not a partition of the "
                                "database rows");
      }
      seen[id] = true;
      store.ids_.push_back(id);
    }
    store.offsets_.push_back(store.ids_.size());
  }
  if (store.ids_.size() != n) {
    return Status::Internal("partitions do not cover every database row");
  }
  store.blocked_ = BlockedCodes::Build(codes, store.ids_.data(), n);
  return store;
}

CodeMatrix PartitionedCodes::RowCodes() const {
  const size_t m = blocked_.num_subspaces();
  CodeMatrix codes(rows(), m);
  for (size_t pos = 0; pos < rows(); ++pos) {
    uint16_t* dst = codes.row(ids_[pos]);
    for (size_t s = 0; s < m; ++s) dst[s] = blocked_.code(pos, s);
  }
  return codes;
}

namespace {

void ScalarAccumulate(const uint16_t* block, const float* lut,
                      const uint32_t* lut_offsets, size_t s_begin,
                      size_t s_end, float* acc) {
  for (size_t s = s_begin; s < s_end; ++s) {
    const float* base = lut + lut_offsets[s];
    const uint16_t* codes = block + s * kScanBlockSize;
    for (size_t i = 0; i < kScanBlockSize; ++i) {
      acc[i] += base[codes[i]];
    }
  }
}

void ScalarSpan4Distances(const float* query, const float* rows,
                          size_t count, float* out) {
  for (size_t c = 0; c < count; ++c) {
    out[c] = SquaredL2(query, rows + 4 * c, 4);
  }
}

uint32_t ScalarSpan4Nearest(const float* query, const float* rows,
                            size_t count) {
  float best = std::numeric_limits<float>::max();
  uint32_t best_c = 0;
  for (size_t c = 0; c < count; ++c) {
    const float dist = SquaredL2(query, rows + 4 * c, 4);
    if (dist < best) {
      best = dist;
      best_c = static_cast<uint32_t>(c);
    }
  }
  return best_c;
}

constexpr ScanKernel kScalarKernel{&ScalarAccumulate, &ScalarSpan4Distances,
                                   &ScalarSpan4Nearest, "scalar"};

}  // namespace

#if defined(VAQ_SCAN_AVX2)
namespace internal {
// Defined in scan_avx2.cc, the only translation unit built with -mavx2.
void Avx2Accumulate(const uint16_t* block, const float* lut,
                    const uint32_t* lut_offsets, size_t s_begin, size_t s_end,
                    float* acc);
void Avx2Span4Distances(const float* query, const float* rows, size_t count,
                        float* out);
uint32_t Avx2Span4Nearest(const float* query, const float* rows,
                          size_t count);
}  // namespace internal

namespace {
constexpr ScanKernel kAvx2Kernel{&internal::Avx2Accumulate,
                                 &internal::Avx2Span4Distances,
                                 &internal::Avx2Span4Nearest, "avx2"};
}  // namespace
#endif

bool Avx2ScanAvailable() {
#if defined(VAQ_SCAN_AVX2)
  return CpuHasAvx2();
#else
  return false;
#endif
}

namespace {

bool ScalarForcedByEnv() {
  static const bool forced = [] {
    // getenv is mt-unsafe only against concurrent setenv; this read
    // happens once under the static-local guard and the process never
    // mutates its environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("VAQ_SCAN_KERNEL");
    return env != nullptr && std::strcmp(env, "scalar") == 0;
  }();
  return forced;
}

}  // namespace

const ScanKernel& GetScanKernel(ScanKernelType type) {
#if defined(VAQ_SCAN_AVX2)
  switch (type) {
    case ScanKernelType::kAuto:
      return (Avx2ScanAvailable() && !ScalarForcedByEnv()) ? kAvx2Kernel
                                                           : kScalarKernel;
    case ScanKernelType::kAvx2:
      return Avx2ScanAvailable() ? kAvx2Kernel : kScalarKernel;
    default:
      return kScalarKernel;
  }
#else
  (void)type;
  return kScalarKernel;
#endif
}

void RankPartitions(const FloatMatrix& centroids, const float* query,
                    size_t visit, std::vector<float>* dist,
                    std::vector<size_t>* order) {
  static_assert(sizeof(size_t) >= sizeof(uint64_t),
                "order holds 64-bit packed keys");
  const size_t n = centroids.rows();
  VAQ_DCHECK(n <= std::numeric_limits<uint32_t>::max());
  dist->resize(n);
  order->resize(n);
  for (size_t p = 0; p < n; ++p) {
    const float d = SquaredL2(query, centroids.row(p), centroids.cols());
    (*dist)[p] = d;
    (*order)[p] = uint64_t{std::bit_cast<uint32_t>(d)} << 32 | p;
  }
  const auto last = order->begin() + std::min(visit, n);
  std::nth_element(order->begin(), last, order->end());
  std::sort(order->begin(), last);
  for (auto it = order->begin(); it != last; ++it) *it &= 0xffffffffu;
}

void BlockedFullScan(const BlockedCodes& bc, const uint32_t* ids,
                     const float* lut, const uint32_t* lut_offsets,
                     size_t s_limit, const ScanKernel& kernel, float* acc,
                     TopKHeap* heap, SearchStats* stats,
                     StopController* stop) {
  // An abandon check every s_limit subspaces never runs before the last
  // one, so every row is fully accumulated and pushed.
  BlockedEaScan(bc, 0, bc.rows(), ids, lut, lut_offsets, s_limit,
                /*interval=*/s_limit, kernel, acc, heap, stats, stop);
}

void BlockedEaScan(const BlockedCodes& bc, size_t row_begin, size_t row_end,
                   const uint32_t* ids, const float* lut,
                   const uint32_t* lut_offsets, size_t s_limit,
                   size_t interval, const ScanKernel& kernel, float* acc,
                   TopKHeap* heap, SearchStats* stats,
                   StopController* stop) {
  VAQ_DCHECK(row_end <= bc.rows());
  interval = std::max<size_t>(1, interval);
  size_t row = row_begin;
  while (row < row_end) {
    if (stop != nullptr && stop->ShouldStop()) return;
    const size_t b = row / kScanBlockSize;
    const size_t block_row0 = b * kScanBlockSize;
    const size_t lo = row - block_row0;
    const size_t hi =
        std::min(row_end, block_row0 + kScanBlockSize) - block_row0;
    const uint16_t* block = bc.block(b);
    const float threshold = heap->Threshold();
    std::fill(acc, acc + kScanBlockSize, 0.f);
    size_t s = 0;
    bool abandoned = false;
    while (s < s_limit) {
      const size_t s_stop = std::min(s + interval, s_limit);
      kernel.accumulate(block, lut, lut_offsets, s, s_stop, acc);
      s = s_stop;
      if (s >= s_limit) break;
      float min_partial = acc[lo];
      for (size_t i = lo + 1; i < hi; ++i) {
        min_partial = std::min(min_partial, acc[i]);
      }
      if (min_partial > threshold) {
        abandoned = true;
        break;
      }
    }
    if (stats != nullptr) {
      stats->codes_visited += hi - lo;
      stats->lut_adds += s * (hi - lo);
    }
    if (!abandoned) {
      // Every lane holds a complete distance; Push rejects anything that
      // does not beat the live (distance, id) maximum, so stale-threshold
      // pushes are harmless.
      if (stats != nullptr) stats->rows_scanned += hi - lo;
      for (size_t i = lo; i < hi; ++i) {
        const size_t global = block_row0 + i;
        heap->Push(acc[i], static_cast<int64_t>(
                               ids != nullptr ? ids[global] : global));
      }
    }
    row = block_row0 + kScanBlockSize;
  }
}

namespace {

/// Feeds one finished query into the global metrics registry; see
/// FinalizeSearchResult. Deliberately outside the scan loops so the hot
/// path is untouched.
void RecordQueryTelemetry(const SearchStats& stats, const Status& status,
                          const QueryTrace* trace) {
  // All metric pointers are resolved once per process; afterwards this
  // function is registry-mutex-free and allocation-free (relaxed atomic
  // adds only), which the zero-alloc scan tests rely on.
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* queries = reg.GetCounter(
      "vaq_queries_total", "Queries answered (any outcome)");
  static Counter* failed = reg.GetCounter(
      "vaq_queries_failed_total", "Queries that returned a non-OK status");
  static Counter* truncated = reg.GetCounter(
      "vaq_queries_truncated_total",
      "Queries degraded to best-so-far results by an expired deadline");
  static Counter* deadline_exceeded = reg.GetCounter(
      "vaq_queries_deadline_exceeded_total",
      "Strict-deadline queries failed with kDeadlineExceeded");
  static Counter* cancelled = reg.GetCounter(
      "vaq_queries_cancelled_total", "Queries failed with kCancelled");
  static Counter* rows_scanned = reg.GetCounter(
      "vaq_scan_rows_scanned_total", "Rows fully accumulated by ADC scans");
  static Counter* lut_adds = reg.GetCounter(
      "vaq_scan_lut_adds_total", "Lookup-table additions performed");
  static Counter* codes_skipped = reg.GetCounter(
      "vaq_scan_codes_skipped_ti_total",
      "Codes pruned by the triangle inequality");
  static Counter* codes_visited = reg.GetCounter(
      "vaq_scan_codes_visited_total",
      "Codes whose distance accumulation began");
  static Counter* partitions_visited = reg.GetCounter(
      "vaq_scan_partitions_visited_total",
      "TI clusters / IVF cells entered by scans");
  static Histogram* wall_us = reg.GetHistogram(
      "vaq_query_wall_us", "Per-query wall time in microseconds");
  static Histogram* cpu_us = reg.GetHistogram(
      "vaq_query_cpu_us", "Per-query thread CPU time in microseconds");

  queries->Increment();
  if (!status.ok()) failed->Increment();
  if (status.ok() && stats.truncated) truncated->Increment();
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded->Increment();
  }
  if (status.code() == StatusCode::kCancelled) cancelled->Increment();

  rows_scanned->Increment(stats.rows_scanned);
  lut_adds->Increment(stats.lut_adds);
  codes_skipped->Increment(stats.codes_skipped_ti);
  codes_visited->Increment(stats.codes_visited);
  partitions_visited->Increment(stats.partitions_visited);
  wall_us->Observe(stats.wall_micros);
  cpu_us->Observe(stats.cpu_micros);

  const double slow_threshold = SlowQueryLogThresholdMicros();
  if (slow_threshold > 0.0 && stats.wall_micros > slow_threshold &&
      ShouldLogSlowQuery()) {
    static Counter* slow_logged = reg.GetCounter(
        "vaq_slow_queries_logged_total",
        "Slow queries that were sampled into the log");
    slow_logged->Increment();
    if (trace != nullptr && trace->enabled()) {
      VAQ_LOG(LogLevel::kWarning,
              "slow query: wall=%.1fus cpu=%.1fus rows=%zu truncated=%d "
              "status=%d trace: %s",
              stats.wall_micros, stats.cpu_micros, stats.rows_scanned,
              stats.truncated ? 1 : 0, static_cast<int>(status.code()),
              trace->Format().c_str());
    } else {
      VAQ_LOG(LogLevel::kWarning,
              "slow query: wall=%.1fus cpu=%.1fus rows=%zu truncated=%d "
              "status=%d (tracing off)",
              stats.wall_micros, stats.cpu_micros,
              stats.rows_scanned,
              stats.truncated ? 1 : 0, static_cast<int>(status.code()));
    }
  }
}

}  // namespace

Status FinalizeSearchResult(const StopController* stop, bool strict_deadline,
                            TopKHeap* heap, std::vector<Neighbor>* out,
                            SearchStats* stats, const QueryTrace* trace,
                            double wall_micros, double cpu_micros) {
  const bool stopped = stop != nullptr && stop->stopped();
  stats->truncated = stopped;
  stats->wall_micros = wall_micros;
  stats->cpu_micros = cpu_micros;
  // A scan can never enter more partitions than it planned to visit (see
  // SearchStats): drivers stamp the plan before the first block.
  VAQ_CHECK(stats->partitions_visited <= stats->clusters_visited);
  Status status;
  if (stopped && stop->cause() == StopCause::kCancelled) {
    out->clear();
    status = Status::Cancelled("search cancelled by caller");
  } else if (stopped && strict_deadline) {
    out->clear();
    status = Status::DeadlineExceeded("search deadline expired before the "
                                      "planned work completed");
  } else {
    heap->ExtractSorted(out);
    for (Neighbor& nb : *out) {
      nb.distance = std::sqrt(std::max(0.f, nb.distance));
    }
  }
  RecordQueryTelemetry(*stats, status, trace);
  return status;
}

Status FinalizeRejectedQuery(Status status, SearchStats* stats) {
  VAQ_DCHECK(!status.ok());
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->Reset();
  RecordQueryTelemetry(*stats, status, nullptr);
  return status;
}

}  // namespace vaq
