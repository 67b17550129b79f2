// Figure 7: impact of the query-time pruning cascade. For each dataset,
// VAQ (256 bits, 32 subspaces, 1000 TI clusters) is queried with the plain
// Heap scan, Early Abandoning (EA), and the TI+EA cascade visiting 25% and
// 10% of the clusters. Each of kPasses passes answers every query
// with each variant in turn, timed per variant on the thread's CPU clock;
// the report gives each variant's median per-query time over the passes,
// its min-max spread, the speedup of the medians over Heap, recall, and
// the codes visited per query.
//
// Flags: --n=<base vectors> --queries=<count> --clusters=<TI clusters>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_common.h"
#include "core/vaq_index.h"
#include "eval/metrics.h"

using namespace vaq;
using namespace vaq::bench;

namespace {

constexpr size_t kK = 100;
constexpr size_t kPasses = 5;

void RunDataset(SyntheticKind kind, size_t n, size_t nq, size_t clusters) {
  const Workload w = MakeWorkload(kind, n, nq, kK, 77);

  VaqOptions opts;
  opts.num_subspaces = 32;
  opts.total_bits = 256;
  opts.ti_clusters = clusters;
  auto index = VaqIndex::Train(w.base, opts);
  VAQ_CHECK(index.ok());

  struct Variant {
    const char* name;
    SearchMode mode;
    double visit;
  };
  const Variant variants[] = {
      {"Heap", SearchMode::kHeap, 1.0},
      {"EA", SearchMode::kEarlyAbandon, 1.0},
      {"TI+EA-0.25", SearchMode::kTriangleInequality, 0.25},
      {"TI+EA-0.1", SearchMode::kTriangleInequality, 0.10},
  };

  // Pass-major order: every pass times each variant once, so a change in
  // host load between passes reaches all four variants alike. Results and
  // work counters are deterministic; only the time varies between passes.
  constexpr size_t kVariants = std::size(variants);
  std::vector<double> pass_ms[kVariants];
  std::vector<std::vector<Neighbor>> results[kVariants];
  size_t visited[kVariants] = {};
  for (size_t pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < kVariants; ++i) {
      SearchParams params;
      params.k = kK;
      params.mode = variants[i].mode;
      params.visit_fraction = variants[i].visit;
      results[i].resize(w.queries.rows());
      visited[i] = 0;
      CpuTimer timer(CpuTimer::Scope::kThread);
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        SearchStats stats;
        (void)index->Search(w.queries.row(q), params, &results[i][q],
                            &stats);
        visited[i] += stats.codes_visited;
      }
      pass_ms[i].push_back(timer.ElapsedMillis() /
                           static_cast<double>(w.queries.rows()));
    }
  }

  std::printf("%-14s %-12s %10s %17s %9s %8s %11s\n", w.name.c_str(),
              "strategy", "query(ms)", "min-max(ms)", "speedup", "recall",
              "codes seen");
  double heap_ms = 0.0;
  for (size_t i = 0; i < kVariants; ++i) {
    std::vector<double>& ms_sorted = pass_ms[i];
    std::sort(ms_sorted.begin(), ms_sorted.end());
    const double ms = ms_sorted[ms_sorted.size() / 2];
    if (variants[i].mode == SearchMode::kHeap) heap_ms = ms;
    std::printf("%-14s %-12s %10.3f %8.3f-%-8.3f %8.1fx %8.4f %11zu\n", "",
                variants[i].name, ms, ms_sorted.front(), ms_sorted.back(),
                ms > 0 ? heap_ms / ms : 0.0,
                Recall(results[i], w.ground_truth, kK),
                visited[i] / w.queries.rows());
  }
  std::fflush(stdout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = FlagValue(argc, argv, "--n", 20000);
  const size_t nq = FlagValue(argc, argv, "--queries", 50);
  const size_t clusters = FlagValue(argc, argv, "--clusters", 1000);
  std::printf("== Figure 7: early abandoning (EA) and triangle inequality "
              "(TI) pruning (k=%zu, %zu TI clusters, median of %zu "
              "passes) ==\n\n",
              kK, clusters, kPasses);
  for (SyntheticKind kind :
       {SyntheticKind::kSiftLike, SyntheticKind::kSaldLike,
        SyntheticKind::kDeepLike, SyntheticKind::kAstroLike,
        SyntheticKind::kSeismicLike}) {
    RunDataset(kind, n, nq, clusters);
  }
  return 0;
}
