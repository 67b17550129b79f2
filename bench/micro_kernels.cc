// Google-benchmark microbenchmarks of the hot kernels behind every
// table/figure: distance computation, lookup-table builds, ADC scans with
// and without the pruning cascade, k-means assignment, and encoding.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "common/rng.h"
#include "core/scan.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"

namespace vaq {
namespace {

FloatMatrix RandomData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return data;
}

void BM_SquaredL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const FloatMatrix data = RandomData(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(data.row(0), data.row(1), d));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_SquaredL2)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

void BM_KMeansAssign(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const FloatMatrix data = RandomData(4096, 16, 2);
  KMeans km;
  KMeansOptions opts;
  opts.k = k;
  opts.max_iters = 5;
  VAQ_CHECK(km.Train(data, opts).ok());
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(km.Assign(data.row(row)));
    row = (row + 1) & 4095;
  }
}
BENCHMARK(BM_KMeansAssign)->Arg(16)->Arg(256)->Arg(1024);

struct ScanFixture {
  FloatMatrix base;
  FloatMatrix queries;
  VaqIndex index;

  static const ScanFixture& Get() {
    static const ScanFixture* fixture = [] {
      auto* f = new ScanFixture();
      f->base = GenerateSynthetic(SyntheticKind::kSiftLike, 20000, 3);
      f->queries = GenerateSyntheticQueries(SyntheticKind::kSiftLike, 64, 3);
      VaqOptions opts;
      opts.num_subspaces = 16;
      opts.total_bits = 128;
      opts.ti_clusters = 500;
      auto index = VaqIndex::Train(f->base, opts);
      VAQ_CHECK(index.ok());
      f->index = std::move(*index);
      return f;
    }();
    return *fixture;
  }
};

void ScanBenchmark(benchmark::State& state, SearchMode mode, double visit) {
  const ScanFixture& fixture = ScanFixture::Get();
  SearchParams params;
  params.k = 100;
  params.mode = mode;
  params.visit_fraction = visit;
  SearchScratch scratch;
  std::vector<Neighbor> out;
  size_t q = 0;
  for (auto _ : state) {
    VAQ_CHECK(fixture.index.Search(fixture.queries.row(q), params, &scratch,
                                   &out)
                  .ok());
    benchmark::DoNotOptimize(out.data());
    q = (q + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * fixture.index.size());
}

void BM_VaqScanHeap(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kHeap, 1.0);
}
void BM_VaqScanEarlyAbandon(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kEarlyAbandon, 1.0);
}
void BM_VaqScanTiEa25(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kTriangleInequality, 0.25);
}
void BM_VaqScanTiEa10(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kTriangleInequality, 0.10);
}
BENCHMARK(BM_VaqScanHeap);
BENCHMARK(BM_VaqScanEarlyAbandon);
BENCHMARK(BM_VaqScanTiEa25);
BENCHMARK(BM_VaqScanTiEa10);

// ---------------------------------------------------------------------------
// Kernel-level ADC scan: the acceptance benchmark for the blocked scan
// layer. Synthetic codes and LUT (no training) at the paper's default
// width m=32 over n >= 100k codes, full accumulation into a top-100 heap
// (SearchMode::kHeap). "Reference" is the pre-blocking row-at-a-time
// gather; the blocked scalar and AVX2 kernels must beat it.
// ---------------------------------------------------------------------------

struct AdcScanFixture {
  static constexpr size_t kRows = 131072;
  static constexpr size_t kSubspaces = 32;
  static constexpr size_t kBitsPerSubspace = 8;

  CodeMatrix codes;
  std::vector<float> lut;
  std::vector<uint32_t> lut_offsets;
  BlockedCodes blocked;

  static const AdcScanFixture& Get() {
    static const AdcScanFixture* fixture = [] {
      auto* f = new AdcScanFixture();
      Rng rng(99);
      const size_t dict = size_t{1} << kBitsPerSubspace;
      f->lut.resize(kSubspaces * dict);
      for (float& v : f->lut) v = rng.NextFloat();
      f->lut_offsets.resize(kSubspaces);
      for (size_t s = 0; s < kSubspaces; ++s) {
        f->lut_offsets[s] = static_cast<uint32_t>(s * dict);
      }
      f->codes.Resize(kRows, kSubspaces);
      for (size_t i = 0; i < f->codes.size(); ++i) {
        f->codes.data()[i] = static_cast<uint16_t>(rng.NextIndex(dict));
      }
      f->blocked = BlockedCodes::Build(f->codes);
      return f;
    }();
    return *fixture;
  }
};

void BM_AdcFullScanReference(benchmark::State& state) {
  const AdcScanFixture& f = AdcScanFixture::Get();
  TopKHeap heap(100);
  for (auto _ : state) {
    heap.Reset(100);
    for (size_t r = 0; r < AdcScanFixture::kRows; ++r) {
      const uint16_t* code = f.codes.row(r);
      float acc = 0.f;
      for (size_t s = 0; s < AdcScanFixture::kSubspaces; ++s) {
        acc += f.lut[f.lut_offsets[s] + code[s]];
      }
      heap.Push(acc, static_cast<int64_t>(r));
    }
    benchmark::DoNotOptimize(heap.Threshold());
  }
  state.SetItemsProcessed(state.iterations() * AdcScanFixture::kRows);
}
BENCHMARK(BM_AdcFullScanReference);

void AdcBlockedScanBenchmark(benchmark::State& state, ScanKernelType type) {
  const AdcScanFixture& f = AdcScanFixture::Get();
  const ScanKernel& kernel = GetScanKernel(type);
  TopKHeap heap(100);
  float acc[kScanBlockSize];
  for (auto _ : state) {
    heap.Reset(100);
    BlockedFullScan(f.blocked, nullptr, f.lut.data(), f.lut_offsets.data(),
                    AdcScanFixture::kSubspaces, kernel, acc, &heap,
                    nullptr);
    benchmark::DoNotOptimize(heap.Threshold());
  }
  state.SetLabel(kernel.name);
  state.SetItemsProcessed(state.iterations() * AdcScanFixture::kRows);
}

void BM_AdcFullScanBlockedScalar(benchmark::State& state) {
  AdcBlockedScanBenchmark(state, ScanKernelType::kScalar);
}
void BM_AdcFullScanBlockedSimd(benchmark::State& state) {
  if (!Avx2ScanAvailable()) {
    state.SkipWithError("AVX2 scan kernel not available on this machine");
    return;
  }
  AdcBlockedScanBenchmark(state, ScanKernelType::kAvx2);
}
BENCHMARK(BM_AdcFullScanBlockedScalar);
BENCHMARK(BM_AdcFullScanBlockedSimd);

void BM_VaqEncodeRow(benchmark::State& state) {
  const ScanFixture& fixture = ScanFixture::Get();
  const auto& books = fixture.index.codebooks();
  std::vector<float> projected;
  fixture.index.ProjectQuery(fixture.queries.row(0), &projected);
  std::vector<uint16_t> code(books.num_subspaces());
  for (auto _ : state) {
    books.EncodeRow(projected.data(), code.data());
    benchmark::DoNotOptimize(code.data());
  }
}
BENCHMARK(BM_VaqEncodeRow);

void BM_BuildLookupTable(benchmark::State& state) {
  const ScanFixture& fixture = ScanFixture::Get();
  const auto& books = fixture.index.codebooks();
  std::vector<float> projected;
  fixture.index.ProjectQuery(fixture.queries.row(0), &projected);
  std::vector<float> lut;
  for (auto _ : state) {
    books.BuildLookupTable(projected.data(), &lut);
    benchmark::DoNotOptimize(lut.data());
  }
}
BENCHMARK(BM_BuildLookupTable);

}  // namespace
}  // namespace vaq

// Custom main instead of BENCHMARK_MAIN(): supports `--scan_json[=path]`,
// which expands to google-benchmark's JSON file reporter (default path
// BENCH_scan.json in the working directory) so perf-trajectory runs can
// diff scan throughput across commits without bespoke parsing.
int main(int argc, char** argv) {
  std::vector<std::string> storage(argv, argv + argc);
  std::string out_path;
  for (auto it = storage.begin(); it != storage.end();) {
    if (*it == "--scan_json") {
      out_path = "BENCH_scan.json";
      it = storage.erase(it);
    } else if (it->rfind("--scan_json=", 0) == 0) {
      out_path = it->substr(std::string("--scan_json=").size());
      it = storage.erase(it);
    } else {
      ++it;
    }
  }
  if (!out_path.empty()) {
    storage.push_back("--benchmark_out=" + out_path);
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int argc_adjusted = static_cast<int>(args.size());
  benchmark::Initialize(&argc_adjusted, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_adjusted, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
