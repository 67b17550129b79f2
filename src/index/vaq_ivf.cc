#include "index/vaq_ivf.h"

#include <algorithm>
#include <cmath>

#include "common/io.h"
#include "common/log.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "core/search_batch.h"

namespace vaq {

Result<VaqIvfIndex> VaqIvfIndex::Train(const FloatMatrix& data,
                                       const VaqIvfOptions& options) {
  if (options.coarse_k == 0) {
    return Status::InvalidArgument("coarse_k must be >= 1");
  }
  if (options.default_nprobe == 0) {
    return Status::InvalidArgument("default_nprobe must be >= 1");
  }

  VaqIvfIndex index;
  index.options_ = options;
  CodeMatrix codes;
  FloatMatrix projected;
  VAQ_ASSIGN_OR_RETURN(
      index.encoder_,
      VaqEncoder::Train(data, options.vaq, &codes, &projected));

  // IVF part: trained coarse k-means over the projected vectors (instead
  // of VaqIndex's random-sample TI centroids), same build accounting as
  // VaqIndex::Train with a coarse-quantizer stage (DESIGN.md §10).
  MetricsRegistry& reg = MetricsRegistry::Global();
  double coarse_us = 0.0, scan_us = 0.0;
  std::vector<std::vector<uint32_t>> lists;
  {
    StageTimer st(
        reg.GetCounter("vaq_build_coarse_us_total",
                       "Cumulative coarse quantizer training time (us)"),
        &coarse_us);
    KMeansOptions kopts;
    kopts.k = std::min(options.coarse_k, data.rows());
    kopts.max_iters = options.vaq.kmeans_iters;
    kopts.seed = options.vaq.seed ^ 0x51F15EEDULL;
    VAQ_RETURN_IF_ERROR(index.coarse_.Train(projected, kopts));
    lists.assign(index.coarse_.k(), {});
    const std::vector<uint32_t> assign = index.coarse_.AssignAll(projected);
    for (size_t r = 0; r < data.rows(); ++r) {
      lists[assign[r]].push_back(static_cast<uint32_t>(r));
    }
  }
  {
    StageTimer st(
        reg.GetCounter("vaq_build_scan_layout_us_total",
                       "Cumulative blocked scan-layout build time (us)"),
        &scan_us);
    VAQ_ASSIGN_OR_RETURN(index.store_, PartitionedCodes::Build(codes, lists));
  }
  reg.GetCounter("vaq_builds_total", "Index builds completed")->Increment();
  VAQ_LOG(LogLevel::kDebug,
          "VaqIvfIndex build report: n=%zu coarse=%.0fus scan_layout=%.0fus",
          data.rows(), coarse_us, scan_us);
  return index;
}

namespace {
constexpr char kIvfMagic[8] = {'V', 'A', 'Q', 'I', 'V', 'F', '0', '1'};
constexpr uint32_t kIvfFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecPca = SectionTag('P', 'C', 'A', '0');
constexpr uint32_t kSecBooks = SectionTag('B', 'O', 'O', 'K');
constexpr uint32_t kSecCodes = SectionTag('C', 'O', 'D', 'E');
constexpr uint32_t kSecCoarse = SectionTag('C', 'R', 'S', 'E');
constexpr uint32_t kSecLists = SectionTag('L', 'I', 'S', 'T');
}  // namespace

void VaqIvfIndex::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.coarse_k);
  WritePod<uint64_t>(os, options_.default_nprobe);
}

Status VaqIvfIndex::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.coarse_k = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.default_nprobe = u64;
  return Status::OK();
}

void VaqIvfIndex::SaveListsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, store_.num_partitions());
  for (size_t c = 0; c < store_.num_partitions(); ++c) {
    const size_t begin = store_.partition_begin(c);
    WriteSpan(os, store_.ids().data() + begin,
              store_.partition_end(c) - begin);
  }
}

Status VaqIvfIndex::LoadListsSection(
    std::istream& is, std::vector<std::vector<uint32_t>>* lists) {
  uint64_t num = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &num));
  // Every list costs at least an 8-byte length header; bound the resize
  // on seekable streams so a corrupted count cannot drive a huge
  // allocation.
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0 && num > static_cast<uint64_t>(remaining) / 8) {
    return Status::IoError("inverted list count exceeds remaining payload "
                           "(corrupted file?)");
  }
  lists->assign(num, {});
  for (auto& list : *lists) {
    VAQ_RETURN_IF_ERROR(ReadVector(is, &list));
  }
  return Status::OK();
}

Status VaqIvfIndex::ValidateInvariants() const {
  return CheckInvariants(store_.RowCodes());
}

Status VaqIvfIndex::CheckInvariants(const CodeMatrix& codes) const {
  VAQ_RETURN_IF_ERROR(encoder_.ValidateInvariants());
  if (codes.rows() == 0) {
    return Status::Internal("index holds no encoded vectors");
  }
  VAQ_RETURN_IF_ERROR(encoder_.codebooks().ValidateCodes(codes));
  if (options_.default_nprobe == 0) {
    return Status::Internal("default nprobe is 0: a default query would "
                            "probe no list");
  }
  if (coarse_.k() == 0 || coarse_.centroids().cols() != dim()) {
    return Status::Internal("coarse centroid shape disagrees with the "
                            "projected dimension");
  }
  for (size_t i = 0; i < coarse_.centroids().size(); ++i) {
    if (!std::isfinite(coarse_.centroids().data()[i])) {
      return Status::Internal("coarse centroids contain non-finite values");
    }
  }
  if (store_.num_partitions() != coarse_.k()) {
    return Status::Internal("inverted list count disagrees with the coarse "
                            "partition size");
  }
  return Status::OK();
}

Status VaqIvfIndex::Save(const std::string& path) const {
  if (!encoder_.trained()) {
    return Status::FailedPrecondition("index is not trained");
  }
  // The CODE section stays row-major (format v1), rebuilt from the store.
  const CodeMatrix codes = store_.RowCodes();
  VAQ_RETURN_IF_ERROR(CheckInvariants(codes));
  ContainerWriter writer(kIvfMagic, kIvfFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  // Unlike VaqIndex (LAYT section), IVF files keep the permutation here.
  std::ostream& pca = writer.AddSection(kSecPca);
  encoder_.SavePca(pca);
  encoder_.SavePermutation(pca);
  encoder_.SaveCodebooks(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), codes);
  WriteMatrix(writer.AddSection(kSecCoarse), coarse_.centroids());
  SaveListsSection(writer.AddSection(kSecLists));
  return writer.Commit(path);
}

Status VaqIvfIndex::LoadSections(const SectionSource& source) {
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecOptions, [&](std::istream& is) { return LoadOptionsSection(is); }));
  VAQ_RETURN_IF_ERROR(source.Read(kSecPca, [&](std::istream& is) {
    const Status st = encoder_.LoadPca(is);
    return st.ok() ? encoder_.LoadPermutation(is) : st;
  }));
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecBooks, [&](std::istream& is) { return encoder_.LoadCodebooks(is); }));
  CodeMatrix codes;
  VAQ_RETURN_IF_ERROR(source.Read(
      kSecCodes, [&](std::istream& is) { return ReadMatrix(is, &codes); }));
  VAQ_RETURN_IF_ERROR(source.Read(kSecCoarse, [&](std::istream& is) {
    FloatMatrix centroids;
    const Status st = ReadMatrix(is, &centroids);
    return st.ok() ? coarse_.Restore(std::move(centroids)) : st;
  }));
  std::vector<std::vector<uint32_t>> lists;
  VAQ_RETURN_IF_ERROR(source.Read(kSecLists, [&](std::istream& is) {
    return LoadListsSection(is, &lists);
  }));
  // Build checks that the lists partition the rows before it gathers any
  // code through them.
  VAQ_ASSIGN_OR_RETURN(store_, PartitionedCodes::Build(codes, lists));
  return CheckInvariants(codes);
}

Result<VaqIvfIndex> VaqIvfIndex::Load(const std::string& path) {
  VaqIvfIndex index;
  VAQ_RETURN_IF_ERROR(ReadIndexFile(
      path, kIvfMagic, kIvfFormatVersion,
      [&](const SectionSource& source) { return index.LoadSections(source); }));
  return index;
}

Status VaqIvfIndex::Search(const float* query, size_t k, size_t nprobe,
                           std::vector<Neighbor>* out,
                           SearchStats* stats) const {
  SearchScratch scratch;
  return Search(query, k, nprobe, QueryControl{}, &scratch, out, stats);
}

Status VaqIvfIndex::Search(const float* query, size_t k, size_t nprobe,
                           const QueryControl& control,
                           SearchScratch* scratch, std::vector<Neighbor>* out,
                           SearchStats* stats) const {
  if (nprobe == 0) nprobe = options_.default_nprobe;
  const SearchPlan plan{&coarse_.centroids(), std::min(nprobe, coarse_.k())};
  // Blocked early-abandoned ADC scan of the probed lists, each a position
  // range of the store (importance-ordered subspaces, threshold checked
  // once per block every 4 subspaces, same kernels as VaqIndex).
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  const VariableCodebooks& books = encoder_.codebooks();
  return SearchQuery(
      encoder_, size(), query, k, plan, control, scratch, out, stats,
      [&](SearchScratch* s, SearchStats* st, StopController* stop,
          size_t c) {
        BlockedEaScan(store_.blocked(), store_.partition_begin(c),
                      store_.partition_end(c), store_.ids().data(),
                      s->lut.data(), books.lut_offsets(),
                      books.num_subspaces(), /*interval=*/4, kernel, s->acc,
                      &s->heap, st, stop);
      });
}

Status VaqIvfIndex::SearchBatchInto(
    const FloatMatrix& queries, size_t k, size_t nprobe,
    const QueryControl& control, size_t num_threads,
    std::vector<std::vector<Neighbor>>* results,
    std::vector<Status>* statuses,
    std::vector<SearchStats>* query_stats) const {
  // A single QueryTrace is not thread-safe across the batch workers.
  QueryControl query_control = control;
  query_control.trace = nullptr;
  return RunSearchBatch(
      queries, dim(), num_threads,
      [this, k, nprobe, &query_control](const float* query,
                                        SearchScratch* scratch,
                                        std::vector<Neighbor>* out,
                                        SearchStats* stats) {
        return Search(query, k, nprobe, query_control, scratch, out, stats);
      },
      results, statuses, query_stats);
}

}  // namespace vaq
