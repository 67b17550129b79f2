#ifndef VAQ_CORE_VAQ_INDEX_H_
#define VAQ_CORE_VAQ_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"
#include "common/trace.h"
#include "core/scan.h"
#include "core/ti_partition.h"
#include "core/vaq_encoder.h"

namespace vaq {

class SectionSource;

/// Query-time pruning strategy (Figure 7's variants).
enum class SearchMode {
  kHeap,             ///< plain ADC scan into a top-k heap
  kEarlyAbandon,     ///< + subspace skipping (EA)
  kTriangleInequality  ///< + data skipping (TI) cascading into EA
};

/// VaqIndex query parameters; the execution controls (deadline,
/// cancellation, strict mode, trace) come from QueryControl.
struct SearchParams : QueryControl {
  size_t k = 100;
  SearchMode mode = SearchMode::kTriangleInequality;
  /// Fraction of TI clusters visited (paper evaluates 0.25 and 0.1).
  double visit_fraction = 0.25;
  /// Use only the first `num_subspaces_used` subspaces when accumulating
  /// distances (0 = all). Supports the subspace-omission study (Figure 4);
  /// TI mode requires all subspaces and falls back to EA when set.
  size_t num_subspaces_used = 0;
  /// How many subspaces to accumulate between early-abandon threshold
  /// checks (Section III-E notes checks "after every four subspaces" to
  /// amortize the branch). The blocked scan checks once per block after
  /// every `ea_check_interval` subspaces.
  size_t ea_check_interval = 4;
};

/// Variance-Aware Quantization index: the paper's end-to-end system
/// (Algorithm 5). Train() runs the VaqEncoder pipeline (VarPCA, subspace
/// construction, partial balancing, adaptive bit allocation,
/// variable-size dictionaries), encodes the data, and builds the TI
/// partition; Search() answers k-NN queries with ADC plus the two
/// skipping strategies.
class VaqIndex {
 public:
  VaqIndex() = default;

  /// Trains the index on `data` (n x d) and encodes all of it as the
  /// database. Requires n >= 2 and options.num_subspaces <= d.
  static Result<VaqIndex> Train(const FloatMatrix& data,
                                const VaqOptions& options);

  /// Encodes additional vectors and appends them to the database, then
  /// rebuilds the TI partition and the code store.
  Status Add(const FloatMatrix& data);

  size_t size() const { return store_.rows(); }
  size_t dim() const { return encoder_.dim(); }
  size_t num_subspaces() const { return encoder_.num_subspaces(); }
  const std::vector<int>& bits_per_subspace() const {
    return encoder_.bits();
  }
  /// PCA, permutation, layout, variance profile and codebooks.
  const VaqEncoder& encoder() const { return encoder_; }
  const VariableCodebooks& codebooks() const { return encoder_.codebooks(); }
  /// The encoded database: the one blocked copy of the codes, in TI
  /// cluster order (partition c = cluster c's members).
  const PartitionedCodes& store() const { return store_; }
  const TiPartition& ti_partition() const { return ti_; }
  const VaqOptions& options() const { return options_; }

  /// Bytes used by the encoded database: 2 bytes per subspace per vector,
  /// rounded up to whole 64-row blocks.
  size_t code_bytes() const { return store_.blocked().bytes(); }

  /// k-NN search for a raw (unprojected) query of length dim(). Results
  /// are ADC distance estimates (non-squared), ascending. This overload
  /// allocates a fresh SearchScratch per call.
  Status Search(const float* query, const SearchParams& params,
                std::vector<Neighbor>* out, SearchStats* stats = nullptr) const;

  /// Same, but reuses caller-owned scratch. After a warmup query the hot
  /// path performs no heap allocations: the lookup table, projection
  /// buffers, TI ordering, and top-k heap all live in `scratch`, and `out`
  /// is refilled in place.
  Status Search(const float* query, const SearchParams& params,
                SearchScratch* scratch, std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Batch search over the rows of `queries`. `num_threads` > 1 answers
  /// queries concurrently (each query remains single-threaded, matching
  /// the paper's per-query CPU accounting); 0 = hardware concurrency.
  Result<std::vector<std::vector<Neighbor>>> SearchBatch(
      const FloatMatrix& queries, const SearchParams& params,
      size_t num_threads = 1) const;

  /// Batch search into a caller-owned result buffer. `results` is resized
  /// to the query count; per-query vectors and per-worker scratches are
  /// reused across calls, so a steady-state serving loop that recycles
  /// `results` performs no per-query allocations after its first batch.
  ///
  /// Parallel batches run on the process-wide ThreadPool (no threads are
  /// spawned per call) behind admission control: when the global
  /// in-flight query cap would be exceeded the call fast-fails with
  /// kUnavailable before doing any work. `params.deadline` is shared by
  /// every query, bounding the whole batch; a query that fails mid-batch
  /// no longer discards the others.
  ///
  /// `statuses` (optional) receives one Status per query; when provided,
  /// the return value reports only batch-level failures (admission,
  /// shutdown) and per-query errors never mask other queries' results.
  /// When omitted, the first per-query error is returned (legacy
  /// contract). `query_stats` (optional) receives per-query SearchStats,
  /// including the truncation report for deadline-degraded queries.
  Status SearchBatchInto(const FloatMatrix& queries,
                         const SearchParams& params, size_t num_threads,
                         std::vector<std::vector<Neighbor>>* results,
                         std::vector<Status>* statuses = nullptr,
                         std::vector<SearchStats>* query_stats = nullptr)
      const;

  /// Projects a raw vector into the index's (permuted PCA) code space.
  void ProjectQuery(const float* query, std::vector<float>* projected) const;

  /// Persists the index as a versioned, checksummed container (DESIGN.md
  /// §8), staged to a temp file and renamed into place so a crash or full
  /// disk mid-save never destroys an existing index.
  Status Save(const std::string& path) const;
  /// Restores an index saved by Save (container format) or by the legacy
  /// unversioned v0 layout. Checksums (container files) and
  /// ValidateInvariants() both gate success: a file that decodes but is
  /// semantically inconsistent is rejected with a non-OK Status.
  static Result<VaqIndex> Load(const std::string& path);

  /// Semantic consistency of the full index state: the encoder's checks
  /// (VaqEncoder::ValidateInvariants), bits summing to the configured
  /// budget, every stored code addressing an existing dictionary entry, a
  /// finite variance profile, and TI clusters matching the store's
  /// partitions. Run automatically after Load and before Save.
  Status ValidateInvariants() const;

 private:
  /// Reads every section of a container or legacy v0 file.
  Status LoadSections(const SectionSource& source);
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  /// ValidateInvariants given `codes`, the store's codes row-major (Load
  /// and Save hold them already).
  Status CheckInvariants(const CodeMatrix& codes) const;
  Status ValidateSearchParams(const SearchParams& params) const;
  TiPartitionOptions TiOptions(size_t prefix_subspaces) const;
  /// The scan step of SearchQuery: scans into scratch->heap in `mode`
  /// over `s_limit` subspaces — heap and EA the whole store, TI the one
  /// ranked cluster `partition`.
  void Scan(const SearchParams& params, SearchMode mode, size_t s_limit,
            size_t partition, SearchScratch* scratch, SearchStats* stats,
            StopController* stop) const;

  VaqOptions options_;
  VaqEncoder encoder_;
  TiPartition ti_;          ///< centroids and cached member distances
  PartitionedCodes store_;  ///< the codes, blocked once in cluster order
};

}  // namespace vaq

#endif  // VAQ_CORE_VAQ_INDEX_H_
