#include "core/vaq_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/io.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "core/search_batch.h"

namespace vaq {
namespace {

constexpr char kMagic[8] = {'V', 'A', 'Q', 'I', 'D', 'X', '0', '1'};

}  // namespace

Result<VaqIndex> VaqIndex::Train(const FloatMatrix& data,
                                 const VaqOptions& options) {
  VaqIndex index;
  index.options_ = options;
  CodeMatrix codes;
  VAQ_ASSIGN_OR_RETURN(index.encoder_,
                       VaqEncoder::Train(data, options, &codes));

  MetricsRegistry& reg = MetricsRegistry::Global();
  double ti_us = 0.0, scan_us = 0.0;
  const size_t m = options.num_subspaces;
  const std::vector<double>& subspace_variances =
      index.encoder_.subspace_variances();

  // Step 6 (Algorithm 3 lines 24-48): TI partition for data skipping.
  std::vector<std::vector<uint32_t>> members;
  {
    StageTimer st(reg.GetCounter("vaq_build_ti_us_total",
                                 "Cumulative TI partition build time (us)"),
                  &ti_us);
    size_t prefix = options.ti_prefix_subspaces;
    if (prefix == 0) {
      // Auto: smallest prefix explaining >= 90% of the variance.
      double acc = 0.0;
      const double total = std::accumulate(subspace_variances.begin(),
                                           subspace_variances.end(), 0.0);
      prefix = m;
      for (size_t s = 0; s < m; ++s) {
        acc += subspace_variances[s];
        if (total > 0.0 && acc >= 0.9 * total) {
          prefix = s + 1;
          break;
        }
      }
    }
    VAQ_RETURN_IF_ERROR(index.ti_.Build(codes, index.codebooks(),
                                        index.TiOptions(prefix), &members));
  }
  {
    StageTimer st(
        reg.GetCounter("vaq_build_scan_layout_us_total",
                       "Cumulative blocked scan-layout build time (us)"),
        &scan_us);
    VAQ_ASSIGN_OR_RETURN(index.store_,
                         PartitionedCodes::Build(codes, members));
  }
  reg.GetCounter("vaq_builds_total", "Index builds completed")->Increment();
  VAQ_LOG(LogLevel::kDebug,
          "VaqIndex build report: n=%zu ti=%.0fus scan_layout=%.0fus",
          data.rows(), ti_us, scan_us);
  return index;
}

TiPartitionOptions VaqIndex::TiOptions(size_t prefix_subspaces) const {
  TiPartitionOptions topts;
  topts.num_clusters = options_.ti_clusters;
  topts.num_threads = options_.train_threads;
  topts.prefix_subspaces = prefix_subspaces;
  topts.seed = options_.seed ^ 0x7153A9F2ULL;
  return topts;
}

Status VaqIndex::Add(const FloatMatrix& data) {
  if (!encoder_.trained()) {
    return Status::FailedPrecondition("index is not trained");
  }
  if (data.cols() != dim()) {
    return Status::InvalidArgument("dimension mismatch in Add");
  }
  VAQ_ASSIGN_OR_RETURN(CodeMatrix fresh,
                       encoder_.Encode(data, options_.train_threads));

  // The store is the only copy of the codes: merge row-major, then
  // re-partition and re-block everything.
  const CodeMatrix old = store_.RowCodes();
  CodeMatrix merged(old.rows() + fresh.rows(), old.cols());
  std::copy_n(old.data(), old.size(), merged.data());
  std::copy_n(fresh.data(), fresh.size(), merged.data() + old.size());

  std::vector<std::vector<uint32_t>> members;
  VAQ_RETURN_IF_ERROR(ti_.Build(merged, codebooks(),
                                TiOptions(ti_.prefix_subspaces()), &members));
  VAQ_ASSIGN_OR_RETURN(store_, PartitionedCodes::Build(merged, members));
  return Status::OK();
}

void VaqIndex::ProjectQuery(const float* query,
                            std::vector<float>* projected) const {
  std::vector<float> pca_space;
  encoder_.ProjectQuery(query, &pca_space, projected);
}

Status VaqIndex::Search(const float* query, const SearchParams& params,
                        std::vector<Neighbor>* out,
                        SearchStats* stats) const {
  SearchScratch scratch;
  return Search(query, params, &scratch, out, stats);
}

/// User-supplied SearchParams never abort: every reachable misuse maps to
/// InvalidArgument (the same rule as for untrusted files). SearchQuery
/// checks that the index is trained and k.
Status VaqIndex::ValidateSearchParams(const SearchParams& params) const {
  if (params.visit_fraction <= 0.0 || params.visit_fraction > 1.0) {
    return Status::InvalidArgument("visit_fraction must be in (0, 1]");
  }
  switch (params.mode) {
    case SearchMode::kHeap:
    case SearchMode::kEarlyAbandon:
    case SearchMode::kTriangleInequality:
      break;
    default:
      return Status::InvalidArgument("unknown SearchMode value");
  }
  return Status::OK();
}

Status VaqIndex::Search(const float* query, const SearchParams& params,
                        SearchScratch* scratch, std::vector<Neighbor>* out,
                        SearchStats* stats) const {
  VAQ_RETURN_IF_ERROR(ValidateSearchParams(params));
  const size_t m = num_subspaces();
  const size_t s_limit = params.num_subspaces_used == 0
                             ? m
                             : std::min(params.num_subspaces_used, m);
  SearchMode mode = params.mode;
  if (mode == SearchMode::kTriangleInequality && s_limit != m) {
    mode = SearchMode::kEarlyAbandon;  // TI caches assume full distances
  }
  // TI ranks the clusters and visits ceil(visit_fraction * clusters) of
  // them; heap and EA scan the whole store.
  SearchPlan plan;
  if (mode == SearchMode::kTriangleInequality) {
    const size_t clusters = ti_.num_clusters();
    plan.centroids = &ti_.centroids();
    const double wanted =
        std::ceil(params.visit_fraction * static_cast<double>(clusters));
    plan.visit =
        std::min(clusters, std::max<size_t>(1, static_cast<size_t>(wanted)));
  }
  return SearchQuery(encoder_, size(), query, params.k, plan, params,
                     scratch, out, stats,
                     [&](SearchScratch* s, SearchStats* st,
                         StopController* stop, size_t partition) {
                       Scan(params, mode, s_limit, partition, s, st, stop);
                     });
}

/// Blocked scan dispatch: every SearchMode is BlockedEaScan over store
/// ranges, through the kernel the CPU supports. Accumulation order per
/// row is identical to the row-at-a-time oracle in
/// tests/reference_oracle.cc, so neighbors and distances match it bit for
/// bit; only the work counters reflect the block-granular (rather than
/// row-granular) abandoning decisions.
void VaqIndex::Scan(const SearchParams& params, SearchMode mode,
                    size_t s_limit, size_t partition, SearchScratch* scratch,
                    SearchStats* stats, StopController* stop) const {
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  const uint32_t* lut_offsets = codebooks().lut_offsets();
  const float* lut = scratch->lut.data();
  TopKHeap* heap = &scratch->heap;
  const BlockedCodes& blocked = store_.blocked();
  const uint32_t* ids = store_.ids().data();

  // Heap and EA walk the whole store; its cluster order does not change
  // their answers, because the heap keeps the k smallest (distance, id).
  // Heap is EA whose abandon check never runs before the last subspace.
  if (mode != SearchMode::kTriangleInequality) {
    const size_t interval =
        mode == SearchMode::kHeap ? s_limit : params.ea_check_interval;
    BlockedEaScan(blocked, 0, blocked.rows(), ids, lut, lut_offsets, s_limit,
                  interval, kernel, scratch->acc, heap, stats, stop);
    return;
  }

  // Triangle inequality cascade (Algorithm 4) over one of the clusters
  // nearest the query; SearchQuery ranks them and calls this once per
  // visited cluster. A member x can beat the best-so-far radius r only if
  // |dq - d(x, centroid)| < r, i.e. d(x, centroid) in (dq - r, dq + r).
  // The cluster's store positions ascend by that cached distance, so
  // while the heap is full the window [begin, end) is narrowed by binary
  // search from the live threshold before each block rather than before
  // each row. A position counts as skipped when the window first
  // excludes it.
  size_t begin = store_.partition_begin(partition);
  size_t end = store_.partition_end(partition);
  const float dq = std::sqrt(scratch->partition_dist[partition]);
  const float* cached = ti_.distances().data();
  while (begin < end) {
    if (heap->full()) {
      const float r = std::sqrt(heap->Threshold());
      const size_t lo =
          std::upper_bound(cached + begin, cached + end, dq - r) - cached;
      const size_t hi =
          std::lower_bound(cached + lo, cached + end, dq + r) - cached;
      if (stats != nullptr) stats->codes_skipped_ti += lo - begin + end - hi;
      begin = lo;
      end = hi;
      if (begin == end) break;
    }
    // Scan to the window's end or the store's next block boundary,
    // whichever is nearer, then narrow again.
    const size_t chunk_end =
        std::min(end, (begin / kScanBlockSize + 1) * kScanBlockSize);
    BlockedEaScan(blocked, begin, chunk_end, ids, lut, lut_offsets, s_limit,
                  params.ea_check_interval, kernel, scratch->acc, heap,
                  stats, stop);
    if (stop != nullptr && stop->stopped()) return;
    begin = chunk_end;
  }
}

Result<std::vector<std::vector<Neighbor>>> VaqIndex::SearchBatch(
    const FloatMatrix& queries, const SearchParams& params,
    size_t num_threads) const {
  std::vector<std::vector<Neighbor>> results;
  VAQ_RETURN_IF_ERROR(SearchBatchInto(queries, params, num_threads, &results));
  return results;
}

Status VaqIndex::SearchBatchInto(
    const FloatMatrix& queries, const SearchParams& params,
    size_t num_threads, std::vector<std::vector<Neighbor>>* results,
    std::vector<Status>* statuses,
    std::vector<SearchStats>* query_stats) const {
  // params.deadline is an absolute expiry shared by every query: the
  // whole batch is bounded by one budget, and queries still queued when
  // it passes degrade (or strict-fail) at their first check point instead
  // of wedging the batch. A single QueryTrace is not thread-safe, so the
  // per-query workers do not share params.trace (batch callers trace via
  // single-query calls).
  SearchParams query_params = params;
  query_params.trace = nullptr;
  return RunSearchBatch(
      queries, dim(), num_threads,
      [this, &query_params](const float* query, SearchScratch* scratch,
                            std::vector<Neighbor>* out, SearchStats* stats) {
        return Search(query, query_params, scratch, out, stats);
      },
      results, statuses, query_stats);
}

void VaqIndex::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.num_subspaces);
  WritePod<uint64_t>(os, options_.total_bits);
  WritePod<uint64_t>(os, options_.min_bits);
  WritePod<uint64_t>(os, options_.max_bits);
  WritePod<double>(os, options_.target_variance);
  WritePod<uint8_t>(os, options_.clustered_subspaces);
  WritePod<uint8_t>(os, options_.partial_balance);
  WritePod<uint8_t>(os, options_.adaptive_allocation);
  WritePod<uint8_t>(os, options_.center_pca);
  WritePod<uint64_t>(os, options_.ti_clusters);
  WritePod<uint64_t>(os, options_.ti_prefix_subspaces);
  WritePod<int32_t>(os, options_.kmeans_iters);
  WritePod<uint64_t>(os, options_.seed);
}

Status VaqIndex::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  int32_t i32 = 0;
  double f64 = 0.0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.num_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.total_bits = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.min_bits = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.max_bits = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &f64));
  options_.target_variance = f64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.clustered_subspaces = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.partial_balance = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.adaptive_allocation = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.center_pca = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.ti_clusters = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.ti_prefix_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.kmeans_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.seed = u64;
  return Status::OK();
}

Status VaqIndex::ValidateInvariants() const {
  return CheckInvariants(store_.RowCodes());
}

Status VaqIndex::CheckInvariants(const CodeMatrix& codes) const {
  VAQ_RETURN_IF_ERROR(encoder_.ValidateInvariants());
  const size_t m = num_subspaces();
  if (m != options_.num_subspaces) {
    return Status::Internal("subspace count disagrees with options");
  }
  size_t bit_sum = 0;
  for (int b : bits_per_subspace()) bit_sum += static_cast<size_t>(b);
  if (bit_sum != options_.total_bits) {
    return Status::Internal("per-subspace bits do not sum to the configured "
                            "budget");
  }
  const std::vector<double>& variances = encoder_.subspace_variances();
  if (variances.size() != m) {
    return Status::Internal("subspace variance profile length disagrees "
                            "with subspace count");
  }
  for (double v : variances) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::Internal("subspace variances contain invalid values");
    }
  }
  if (codes.rows() == 0) {
    return Status::Internal("index holds no encoded vectors");
  }
  VAQ_RETURN_IF_ERROR(codebooks().ValidateCodes(codes));
  const size_t p = ti_.prefix_subspaces();
  if (p == 0 || p > m) {
    return Status::Internal("TI prefix_subspaces outside [1, m]");
  }
  const SubspaceSpan& last = encoder_.layout().span(p - 1);
  return ti_.ValidateInvariants(store_, m, last.offset + last.length);
}

namespace {
/// Container payload schema version for VaqIndex files. The legacy
/// unversioned layout predating the container is "v0".
constexpr uint32_t kVaqIndexFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecPca = SectionTag('P', 'C', 'A', '0');
constexpr uint32_t kSecLayout = SectionTag('L', 'A', 'Y', 'T');
constexpr uint32_t kSecBooks = SectionTag('B', 'O', 'O', 'K');
constexpr uint32_t kSecCodes = SectionTag('C', 'O', 'D', 'E');
constexpr uint32_t kSecTi = SectionTag('T', 'I', 'P', 'T');
}  // namespace

Status VaqIndex::Save(const std::string& path) const {
  // The CODE section stays row-major (format v1), rebuilt from the store.
  const CodeMatrix codes = store_.RowCodes();
  // Refuse to persist a broken index: the file would checksum correctly
  // but fail validation on load.
  VAQ_RETURN_IF_ERROR(CheckInvariants(codes));
  ContainerWriter writer(kMagic, kVaqIndexFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  encoder_.SavePca(writer.AddSection(kSecPca));
  std::ostream& layout = writer.AddSection(kSecLayout);
  encoder_.SavePermutation(layout);
  encoder_.SaveProfile(layout);
  encoder_.SaveCodebooks(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), codes);
  ti_.Save(writer.AddSection(kSecTi), store_);
  return writer.Commit(path);
}

Status VaqIndex::LoadSections(const SectionSource& source) {
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecOptions, [&](std::istream& is) { return LoadOptionsSection(is); }));
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecPca, [&](std::istream& is) { return encoder_.LoadPca(is); }));
  VAQ_RETURN_IF_ERROR(source.Read(kSecLayout, [&](std::istream& is) {
    const Status st = encoder_.LoadPermutation(is);
    return st.ok() ? encoder_.LoadProfile(is) : st;
  }));
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecBooks, [&](std::istream& is) { return encoder_.LoadCodebooks(is); }));
  CodeMatrix codes;
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecCodes, [&](std::istream& is) { return ReadMatrix(is, &codes); }));
  std::vector<std::vector<uint32_t>> members;
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecTi, [&](std::istream& is) { return ti_.Load(is, &members); }));
  // Build checks that the cluster ids partition the rows before it
  // gathers any code through them; the rest is checked on the codes as
  // read.
  VAQ_ASSIGN_OR_RETURN(store_, PartitionedCodes::Build(codes, members));
  return CheckInvariants(codes);
}

Result<VaqIndex> VaqIndex::Load(const std::string& path) {
  VaqIndex index;
  VAQ_RETURN_IF_ERROR(ReadIndexFile(
      path, kMagic, kVaqIndexFormatVersion,
      [&](const SectionSource& source) { return index.LoadSections(source); }));
  return index;
}

}  // namespace vaq
