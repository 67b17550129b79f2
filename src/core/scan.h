#ifndef VAQ_CORE_SCAN_H_
#define VAQ_CORE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"

namespace vaq {

/// Rows per cache block of the transposed code layout. 64 rows x one
/// uint16 per subspace = 128 bytes (two cache lines) per subspace stripe,
/// and 64 float accumulators (256 B) stay resident in L1/registers.
inline constexpr size_t kScanBlockSize = 64;

/// Counters describing how much work one search did; used to quantify
/// pruning power in tests and benchmarks and fed to the metrics registry.
/// SearchQuery resets the struct at the start of every query (a caller
/// that passes none gets a local one), so it always describes one query.
/// Owned by the scan layer so the kernels, the index drivers, and the
/// benchmarks agree on one vocabulary.
struct SearchStats {
  size_t codes_visited = 0;      ///< codes whose distance accumulation began
  /// Store positions pruned by the triangle inequality; a position counts
  /// once, when the TI window first excludes it.
  size_t codes_skipped_ti = 0;
  size_t lut_adds = 0;           ///< lookup-table additions performed

  // The plan, stamped by SearchQuery before projection (assignment, not
  // accumulation): how many partitions the index has and how many the
  // pruning policy selected for this query. Both are 0 for a flat scan.
  size_t partitions_total = 0;   ///< partitions in the index (0 = flat scan)
  size_t clusters_visited = 0;   ///< partitions the query planned to visit

  // Degradation report (DESIGN.md §9): work *actually performed*,
  // accumulated as the scan runs. `partitions_visited` counts partitions
  // the scan entered, so it trails `clusters_visited` while a query runs
  // and equals it only for a query that was never stopped. The invariant
  // partitions_visited <= clusters_visited is checked in
  // FinalizeSearchResult: planned-vs-total is pruning power,
  // entered-vs-planned is deadline progress.
  bool truncated = false;         ///< stopped before the planned work finished
  size_t rows_scanned = 0;        ///< rows whose full distance was accumulated
  size_t partitions_visited = 0;  ///< TI clusters / IVF cells actually entered
  double wall_micros = 0.0;       ///< wall time of the Search() call
  double cpu_micros = 0.0;        ///< thread CPU time of the Search() call

  void Reset() { *this = SearchStats{}; }
};

/// Which kernel table GetScanKernel returns. Both indexes, the TI
/// partition build and the codebooks' LUT build and encoding run kAuto,
/// so the CPU (and VAQ_SCAN_KERNEL=scalar) alone picks the kernel; the
/// explicit values serve kernel benchmarks and tests.
enum class ScanKernelType {
  kAuto,    ///< best blocked kernel the CPU supports (the default)
  kScalar,  ///< blocked scalar kernel (always available)
  kAvx2,    ///< blocked AVX2 gather kernel; falls back to kScalar when
            ///< the binary or CPU lacks AVX2
};

/// Subspace-major, cache-blocked copy of an encoded dataset.
///
/// Rows are grouped into blocks of kScanBlockSize; within a block the
/// codes are transposed so that the kScanBlockSize codes of one subspace
/// are contiguous:
///
///   data[(block * m + s) * kScanBlockSize + i]  ==  codes(block*64 + i, s)
///
/// A kernel therefore streams one subspace stripe at a time, turning the
/// per-row LUT gather into a vectorizable inner loop while every row still
/// accumulates its subspaces in ascending order — bit-identical to the
/// row-major reference scan. The last block is padded with code 0 (always
/// a valid dictionary index); padded lanes are computed and discarded.
class BlockedCodes {
 public:
  BlockedCodes() = default;

  /// Blocks every row of `codes` in row order.
  static BlockedCodes Build(const CodeMatrix& codes) {
    return Build(codes, nullptr, codes.rows());
  }

  /// Blocks rows `ids[0..count)` of `codes`, in that order (nullptr ids =
  /// rows 0..count).
  static BlockedCodes Build(const CodeMatrix& codes, const uint32_t* ids,
                            size_t count);

  size_t rows() const { return rows_; }
  size_t num_subspaces() const { return num_subspaces_; }
  size_t num_blocks() const {
    return data_.empty() ? 0
                         : data_.size() / (num_subspaces_ * kScanBlockSize);
  }
  /// Bytes held, block padding included.
  size_t bytes() const { return data_.size() * sizeof(uint16_t); }

  /// Start of block `b`'s transposed codes (m * kScanBlockSize entries).
  const uint16_t* block(size_t b) const {
    return data_.data() + b * num_subspaces_ * kScanBlockSize;
  }
  /// Code of subspace `s` at blocked row `row`.
  uint16_t code(size_t row, size_t s) const {
    return block(row / kScanBlockSize)[s * kScanBlockSize +
                                       row % kScanBlockSize];
  }

 private:
  size_t rows_ = 0;
  size_t num_subspaces_ = 0;
  std::vector<uint16_t> data_;
};

/// The one copy of an index's codes (DESIGN.md §7): every row blocked
/// once, partition by partition, plus the position -> row-id map. A
/// partition (a TI cluster or an IVF list) is the position range
/// [partition_begin(p), partition_end(p)); a flat scan walks all
/// positions. Ranges need not start on a block boundary.
class PartitionedCodes {
 public:
  PartitionedCodes() = default;

  /// Blocks the rows of `codes` partition by partition, each partition in
  /// its given order. Fails with kInternal unless the partitions hold
  /// every row of `codes` exactly once.
  static Result<PartitionedCodes> Build(
      const CodeMatrix& codes,
      const std::vector<std::vector<uint32_t>>& partitions);

  size_t rows() const { return ids_.size(); }
  size_t num_partitions() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t partition_begin(size_t p) const { return offsets_[p]; }
  size_t partition_end(size_t p) const { return offsets_[p + 1]; }
  /// Row id stored at each position.
  const std::vector<uint32_t>& ids() const { return ids_; }
  const BlockedCodes& blocked() const { return blocked_; }

  /// The codes row-major, row r holding vector r (a fresh copy).
  CodeMatrix RowCodes() const;

 private:
  BlockedCodes blocked_;
  std::vector<uint32_t> ids_;
  std::vector<size_t> offsets_;
};

/// One kernel table: the ADC accumulation of the block scan plus the
/// two span-4 codeword kernels behind lookup-table builds and encoding.
/// Every implementation returns bit-identical results.
///
/// `accumulate` adds, for every lane i in [0, kScanBlockSize), the LUT
/// entries of subspaces [s_begin, s_end) selected by the block's
/// transposed codes:
///
///   acc[i] += sum_{s in [s_begin, s_end)} lut[lut_offsets[s] + block[s*64+i]]
///
/// with the per-lane additions performed in ascending subspace order.
///
/// `span4_distances` writes out[c] = SquaredL2(query, rows + 4c, 4) for
/// every c in [0, count) of a row-major dictionary of 4-wide codewords,
/// summed in SquaredL2's order ((d0² + d1²) + d2²) + d3², so each entry
/// equals SquaredL2's bit for bit.
///
/// `span4_nearest` returns the first c in [0, count) whose such distance
/// is the smallest and below FLT_MAX (0 when none is), the rule of a
/// strict-< scan over the dictionary in order.
struct ScanKernel {
  using AccumulateFn = void (*)(const uint16_t* block, const float* lut,
                                const uint32_t* lut_offsets, size_t s_begin,
                                size_t s_end, float* acc);
  using Span4DistancesFn = void (*)(const float* query, const float* rows,
                                    size_t count, float* out);
  using Span4NearestFn = uint32_t (*)(const float* query, const float* rows,
                                      size_t count);
  AccumulateFn accumulate = nullptr;
  Span4DistancesFn span4_distances = nullptr;
  Span4NearestFn span4_nearest = nullptr;
  const char* name = "";
};

/// Resolves a kernel choice against what this binary/CPU supports.
const ScanKernel& GetScanKernel(ScanKernelType type);

/// True when the AVX2 kernel was compiled in and the CPU supports it.
bool Avx2ScanAvailable();

/// Reusable per-thread query state. Threading one of these through
/// Search/SearchBatch makes the steady-state query path allocation-free:
/// every vector reaches its high-water size during warmup and is only
/// resized (never reallocated) afterwards.
struct SearchScratch {
  std::vector<float> lut;               ///< ADC lookup table
  std::vector<float> pca_space;         ///< query in PCA space
  std::vector<float> projected;         ///< query in permuted PCA space
  std::vector<float> partition_dist;    ///< squared centroid distances
  std::vector<size_t> order;            ///< partition visit order (and
                                        ///< RankPartitions' sort keys)
  TopKHeap heap{1};                     ///< reused best-so-far structure
  float acc[kScanBlockSize] = {};       ///< per-block partial sums
};

/// Ranks the partitions of an index for one query (DESIGN.md §7), the
/// one ranking behind TI clusters and IVF lists: `dist[p]` is the squared
/// L2 distance from `query` to row p of `centroids` over its
/// centroids.cols() leading dimensions, and `order[0, visit)` holds the
/// `visit` nearest partitions ascending by (distance, p) — ties go to the
/// smaller partition index. Entries of `order` past `visit` are
/// unspecified; `visit` is capped at centroids.rows().
///
/// `order` doubles as the sort buffer: entry p first holds the packed key
/// bits(dist[p]) << 32 | p. A distance is a sum of squares (>= +0), so
/// its float bits order like its value and the keys order like
/// (distance, p); nth_element and a sort of the first `visit` keys
/// select and order the nearest, and masking the keys leaves the
/// indices. Needs fewer than 2^32 partitions.
void RankPartitions(const FloatMatrix& centroids, const float* query,
                    size_t visit, std::vector<float>* dist,
                    std::vector<size_t>* order);

/// Full blocked scan (SearchMode::kHeap): accumulates all `s_limit`
/// subspaces for every row of `bc` and pushes every distance. It is
/// BlockedEaScan over all rows with `interval = s_limit`, whose abandon
/// check never runs; see there for `ids`, `acc` and `stop`.
void BlockedFullScan(const BlockedCodes& bc, const uint32_t* ids,
                     const float* lut, const uint32_t* lut_offsets,
                     size_t s_limit, const ScanKernel& kernel, float* acc,
                     TopKHeap* heap, SearchStats* stats,
                     StopController* stop = nullptr);

/// Blocked early-abandoning scan of rows [row_begin, row_end) of `bc`,
/// the one block loop behind every search mode. `ids` maps blocked row
/// index -> global id (nullptr = identity). `acc` is a caller-owned
/// kScanBlockSize buffer (SearchScratch::acc).
/// The best-so-far threshold is read once per block; after every
/// `interval` subspaces the block is abandoned when the minimum partial
/// sum over its active lanes already exceeds that threshold (no lane can
/// improve the heap; a lane equal to it may still win its tie by id).
/// Only fully-accumulated rows are ever pushed, so an abandoned partial
/// sum is never mistaken for a distance — the same invariant as the
/// reference per-row early abandon, and therefore the same final top-k.
/// [row_begin, row_end) may start and end inside blocks.
///
/// `stop` (optional) is consulted once per 64-row block; when it fires
/// the scan returns immediately with the heap holding the best-so-far
/// top-k over the rows already processed. Passing nullptr (the default)
/// keeps the loop free of any deadline overhead.
void BlockedEaScan(const BlockedCodes& bc, size_t row_begin, size_t row_end,
                   const uint32_t* ids, const float* lut,
                   const uint32_t* lut_offsets, size_t s_limit,
                   size_t interval, const ScanKernel& kernel, float* acc,
                   TopKHeap* heap, SearchStats* stats,
                   StopController* stop = nullptr);

/// Shared tail of every Search() driver: stamps the degradation report
/// into `stats`, then either extracts the (possibly partial) best-so-far
/// heap into `out` — converting squared ADC estimates to distances — or
/// maps the stop cause to a Status. Cancellation always fails with
/// kCancelled and clears `out`; an expired deadline fails with
/// kDeadlineExceeded only when `strict_deadline` is set, and otherwise
/// degrades gracefully: OK status, partial results, stats->truncated.
///
/// Finally feeds the query into the global metrics registry (DESIGN.md
/// §10): outcome counters, latency histograms (wall + CPU), and the
/// scan-work counters of `*stats`, which must describe this query alone
/// (SearchQuery resets it first). Also emits the sampled slow-query log
/// line (common/trace.h), with `trace` when it is enabled.
Status FinalizeSearchResult(const StopController* stop, bool strict_deadline,
                            TopKHeap* heap, std::vector<Neighbor>* out,
                            SearchStats* stats, const QueryTrace* trace,
                            double wall_micros, double cpu_micros);

/// The tail of a query rejected before it ran (untrained index, k or a
/// search parameter out of range): resets `stats` (a local SearchStats
/// when nullptr) so that it describes this query, which did no work and
/// took no measured time, feeds it with `status` into the metrics
/// registry like FinalizeSearchResult, and returns `status`.
Status FinalizeRejectedQuery(Status status, SearchStats* stats);

}  // namespace vaq

#endif  // VAQ_CORE_SCAN_H_
