// Tests for the blocked, SIMD-dispatched ADC scan layer: kernel-level
// equivalence against a hand-rolled row-wise oracle, end-to-end
// equivalence of every kernel across all three SearchModes (neighbors,
// distances, and SearchStats), odd bit allocations, block-remainder
// sizes, subspace prefixes, and the allocation-free scratch reuse
// contract of the steady-state query path.

#include "core/scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"
#include "reference_oracle.h"

// Global allocation counter used by the scratch-reuse test. Counting in
// operator new (instead of hooking malloc) keeps the test portable; the
// passthrough is cheap enough to leave enabled for the whole binary.
namespace {
std::atomic<size_t> g_live_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vaq {
namespace {

size_t AllocCount() { return g_live_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Kernel-level tests against a synthetic codebook-free setup: odd bit
// widths, prefixes, and block remainders without k-means training cost.
// ---------------------------------------------------------------------------

struct RawAdcProblem {
  std::vector<int> bits;
  std::vector<uint32_t> lut_offsets;
  std::vector<float> lut;
  CodeMatrix codes;

  static RawAdcProblem Make(size_t n, std::vector<int> bits, uint64_t seed) {
    RawAdcProblem p;
    p.bits = std::move(bits);
    const size_t m = p.bits.size();
    p.lut_offsets.resize(m);
    size_t entries = 0;
    for (size_t s = 0; s < m; ++s) {
      p.lut_offsets[s] = static_cast<uint32_t>(entries);
      entries += size_t{1} << p.bits[s];
    }
    Rng rng(seed);
    p.lut.resize(entries);
    for (float& v : p.lut) v = rng.NextFloat();
    p.codes.Resize(n, m);
    for (size_t r = 0; r < n; ++r) {
      for (size_t s = 0; s < m; ++s) {
        const size_t k = size_t{1} << p.bits[s];
        p.codes(r, s) = static_cast<uint16_t>(rng.NextIndex(k));
      }
    }
    return p;
  }

  // Row-wise oracle with the canonical ascending-subspace accumulation.
  float RowDistance(size_t r, size_t s_limit) const {
    float acc = 0.f;
    for (size_t s = 0; s < s_limit; ++s) {
      acc += lut[lut_offsets[s] + codes(r, s)];
    }
    return acc;
  }
};

std::vector<ScanKernelType> BlockedKernels() {
  std::vector<ScanKernelType> kernels{ScanKernelType::kScalar};
  if (Avx2ScanAvailable()) kernels.push_back(ScanKernelType::kAvx2);
  return kernels;
}

TEST(BlockedCodesTest, TransposesRowsIntoSubspaceStripes) {
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/130, {3, 1, 5, 2}, 11);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  ASSERT_EQ(bc.rows(), 130u);
  ASSERT_EQ(bc.num_subspaces(), 4u);
  ASSERT_EQ(bc.num_blocks(), 3u);  // 130 = 2*64 + 2
  for (size_t r = 0; r < bc.rows(); ++r) {
    const size_t b = r / kScanBlockSize;
    const size_t lane = r % kScanBlockSize;
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(bc.block(b)[s * kScanBlockSize + lane], p.codes(r, s))
          << "r=" << r << " s=" << s;
    }
  }
  // Padded lanes of the last block hold code 0 (a valid LUT index).
  for (size_t lane = 2; lane < kScanBlockSize; ++lane) {
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(bc.block(2)[s * kScanBlockSize + lane], 0u);
    }
  }
}

TEST(BlockedCodesTest, SubsetBuildFollowsIdOrder) {
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/100, {4, 2}, 13);
  const std::vector<uint32_t> ids = {99, 0, 42, 7, 7, 65};
  const BlockedCodes bc = BlockedCodes::Build(p.codes, ids.data(), ids.size());
  ASSERT_EQ(bc.rows(), ids.size());
  for (size_t r = 0; r < ids.size(); ++r) {
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(bc.block(0)[s * kScanBlockSize + r], p.codes(ids[r], s));
    }
  }
}

TEST(PartitionedCodesTest, BlocksPartitionsInOrderAndRestoresRowCodes) {
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/150, {4, 2, 7}, 17);
  // Three partitions whose boundaries fall inside blocks, plus an empty one.
  std::vector<std::vector<uint32_t>> partitions(4);
  for (uint32_t r = 0; r < 150; ++r) partitions[(r * 7) % 3].push_back(r);
  std::swap(partitions[1], partitions[3]);
  auto store = PartitionedCodes::Build(p.codes, partitions);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store->rows(), 150u);
  ASSERT_EQ(store->num_partitions(), 4u);
  size_t pos = 0;
  for (size_t c = 0; c < partitions.size(); ++c) {
    EXPECT_EQ(store->partition_begin(c), pos);
    for (uint32_t id : partitions[c]) {
      EXPECT_EQ(store->ids()[pos], id);
      for (size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(store->blocked().code(pos, s), p.codes(id, s));
      }
      ++pos;
    }
    EXPECT_EQ(store->partition_end(c), pos);
  }
  // One blocked copy: 2 bytes x m x 64 x ceil(n / 64).
  EXPECT_EQ(store->blocked().bytes(), 2u * 3u * 64u * 3u);
  EXPECT_TRUE(store->RowCodes() == p.codes);
}

TEST(PartitionedCodesTest, RejectsIdsThatAreNotAPartition) {
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/5, {3}, 19);
  const std::vector<std::vector<std::vector<uint32_t>>> bad = {
      {{0, 1, 2}, {3}},           // row 4 missing
      {{0, 1, 2}, {3, 4, 1}},     // row 1 twice
      {{0, 1, 2, 3}, {4, 5}},     // id out of range
  };
  for (const auto& partitions : bad) {
    auto store = PartitionedCodes::Build(p.codes, partitions);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInternal);
  }
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KernelEquivalenceTest, FullScanMatchesRowOracleBitExactly) {
  const auto [n, s_limit_param] = GetParam();
  // Odd, mixed 1..13-bit allocation exercising every LUT stride class.
  RawAdcProblem p =
      RawAdcProblem::Make(n, {13, 11, 7, 5, 3, 2, 1, 9, 1, 13}, 17 + n);
  const size_t s_limit = s_limit_param == 0 ? p.bits.size() : s_limit_param;
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  for (ScanKernelType type : BlockedKernels()) {
    const ScanKernel& kernel = GetScanKernel(type);
    TopKHeap heap(n);  // keep everything: exposes each row's distance
    SearchStats stats;
    float acc[kScanBlockSize];
    BlockedFullScan(bc, nullptr, p.lut.data(), p.lut_offsets.data(), s_limit,
                    kernel, acc, &heap, &stats);
    EXPECT_EQ(stats.codes_visited, n);
    EXPECT_EQ(stats.lut_adds, n * s_limit);
    const std::vector<Neighbor> got = heap.TakeSorted();
    ASSERT_EQ(got.size(), n);
    for (const Neighbor& nb : got) {
      // Bit-exact float equality, not approximate: same accumulation order.
      EXPECT_EQ(nb.distance, p.RowDistance(nb.id, s_limit))
          << "kernel=" << kernel.name << " id=" << nb.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPrefixes, KernelEquivalenceTest,
    ::testing::Combine(
        // Block remainders: exact multiple, off-by-one both ways, tiny.
        ::testing::Values<size_t>(1, 63, 64, 65, 128, 500),
        // Subspace prefixes (0 = all 10).
        ::testing::Values<size_t>(0, 1, 3, 10)),
    // `p`, not `info`: the INSTANTIATE_TEST_SUITE_P expansion wraps this
    // lambda in a function whose parameter is already named `info`.
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& p) {
      return "n" + std::to_string(std::get<0>(p.param)) + "_s" +
             std::to_string(std::get<1>(p.param));
    });

TEST(KernelEquivalenceTest, ScalarAndSimdAgreeOnEaScanIncludingStats) {
  if (!Avx2ScanAvailable()) GTEST_SKIP() << "no AVX2 kernel in this build";
  RawAdcProblem p = RawAdcProblem::Make(777, {8, 6, 5, 4, 3, 2, 1, 1}, 23);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  for (size_t interval : {1, 4, 7}) {
    TopKHeap heap_scalar(10), heap_simd(10);
    SearchStats stats_scalar, stats_simd;
    float acc[kScanBlockSize];
    BlockedEaScan(bc, 0, bc.rows(), nullptr, p.lut.data(),
                  p.lut_offsets.data(), p.bits.size(), interval,
                  GetScanKernel(ScanKernelType::kScalar), acc, &heap_scalar,
                  &stats_scalar);
    BlockedEaScan(bc, 0, bc.rows(), nullptr, p.lut.data(),
                  p.lut_offsets.data(), p.bits.size(), interval,
                  GetScanKernel(ScanKernelType::kAvx2), acc, &heap_simd,
                  &stats_simd);
    // The abandoning decisions depend on the partial sums, so identical
    // counters are only possible if the kernels agree bit for bit.
    EXPECT_EQ(stats_scalar.codes_visited, stats_simd.codes_visited);
    EXPECT_EQ(stats_scalar.lut_adds, stats_simd.lut_adds);
    const std::vector<Neighbor> a = heap_scalar.TakeSorted();
    const std::vector<Neighbor> b = heap_simd.TakeSorted();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Span-4 codeword kernels (LUT build and encoding) and the partition
// ranking, against SquaredL2 and partial_sort oracles, bit for bit.
// ---------------------------------------------------------------------------

/// `count` row-major 4-wide Gaussian codewords in which about one row in
/// four repeats an earlier row, so equal distances (ties) occur both
/// within a SIMD lane and across lanes.
std::vector<float> Span4Dictionary(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> rows(4 * count);
  for (float& v : rows) v = static_cast<float>(rng.Gaussian());
  for (size_t c = 1; c < count; ++c) {
    if (rng.NextIndex(4) != 0) continue;
    const size_t from = rng.NextIndex(c);
    std::copy_n(rows.begin() + 4 * from, 4, rows.begin() + 4 * c);
  }
  return rows;
}

/// The strict-< scan over SquaredL2 that VariableCodebooks::EncodeRow
/// performs for every other width.
uint32_t NearestBySquaredL2(const float* query, const float* rows,
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

TEST(Span4KernelTest, DistancesAndNearestMatchSquaredL2BitExactly) {
  // Dictionary sizes 2^1..2^13 plus counts that are not multiples of 8.
  const size_t counts[] = {1, 2, 3, 4, 7, 8, 9, 13, 16, 100, 256, 8192};
  for (ScanKernelType type : BlockedKernels()) {
    const ScanKernel& kernel = GetScanKernel(type);
    for (size_t count : counts) {
      const std::vector<float> rows = Span4Dictionary(count, 100 + count);
      Rng rng(7 * count);
      std::vector<float> out(count);
      for (size_t q = 0; q < 24; ++q) {
        float query[4];
        if (q % 3 == 0) {
          // On a (possibly repeated) codeword: a tie at distance 0.
          std::copy_n(rows.begin() + 4 * rng.NextIndex(count), 4, query);
        } else {
          for (float& v : query) v = static_cast<float>(rng.Gaussian());
        }
        kernel.span4_distances(query, rows.data(), count, out.data());
        for (size_t c = 0; c < count; ++c) {
          const float want = SquaredL2(query, rows.data() + 4 * c, 4);
          ASSERT_EQ(std::bit_cast<uint32_t>(out[c]),
                    std::bit_cast<uint32_t>(want))
              << kernel.name << " count=" << count << " c=" << c;
        }
        EXPECT_EQ(kernel.span4_nearest(query, rows.data(), count),
                  NearestBySquaredL2(query, rows.data(), count))
            << kernel.name << " count=" << count << " q=" << q;
      }
    }
  }
}

TEST(Span4KernelTest, NearestKeepsCodeZeroWhenNoDistanceIsBelowFltMax) {
  // Every squared distance overflows to +inf, so no strict < ever fires.
  const std::vector<float> rows(4 * 20, 3e30f);
  const float query[4] = {-3e30f, -3e30f, -3e30f, -3e30f};
  for (ScanKernelType type : BlockedKernels()) {
    const ScanKernel& kernel = GetScanKernel(type);
    EXPECT_EQ(kernel.span4_nearest(query, rows.data(), 20), 0u)
        << kernel.name;
  }
}

/// The (distance, index) order RankPartitions promises, by partial_sort.
std::vector<size_t> RankByPartialSort(const std::vector<float>& dist,
                                      size_t visit) {
  std::vector<size_t> order(dist.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::partial_sort(order.begin(), order.begin() + visit, order.end(),
                    [&](size_t a, size_t b) {
                      return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
                    });
  order.resize(visit);
  return order;
}

TEST(RankPartitionsTest, MatchesPartialSortOracleWithDuplicateCentroids) {
  const size_t n = 203;
  const size_t dim = 6;
  Rng rng(5);
  FloatMatrix centroids(n, dim);
  for (size_t p = 0; p < n; ++p) {
    if (p > 0 && rng.NextIndex(3) == 0) {
      // A duplicate centroid: the same distance under a larger index.
      const size_t from = rng.NextIndex(p);
      std::copy_n(centroids.row(from), dim, centroids.row(p));
      continue;
    }
    for (size_t j = 0; j < dim; ++j) {
      centroids(p, j) = static_cast<float>(rng.Gaussian());
    }
  }
  std::vector<float> dist;
  std::vector<size_t> order;
  for (size_t q = 0; q < 8; ++q) {
    std::vector<float> query(dim);
    if (q % 2 == 0) {
      std::copy_n(centroids.row(rng.NextIndex(n)), dim, query.begin());
    } else {
      for (float& v : query) v = static_cast<float>(rng.Gaussian());
    }
    for (size_t visit : {size_t{1}, n / 4, n}) {
      RankPartitions(centroids, query.data(), visit, &dist, &order);
      ASSERT_EQ(dist.size(), n);
      ASSERT_EQ(order.size(), n);
      for (size_t p = 0; p < n; ++p) {
        ASSERT_EQ(std::bit_cast<uint32_t>(dist[p]),
                  std::bit_cast<uint32_t>(
                      SquaredL2(query.data(), centroids.row(p), dim)));
      }
      const std::vector<size_t> want = RankByPartialSort(dist, visit);
      for (size_t v = 0; v < visit; ++v) {
        ASSERT_EQ(order[v], want[v]) << "q=" << q << " visit=" << visit
                                     << " v=" << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end equivalence on a trained index: every kernel must return the
// reference path's neighbors and distances bit for bit, in all modes.
// ---------------------------------------------------------------------------

class ScanSearchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 1200 rows = 18 full blocks + a 48-row remainder.
    data_ = GenerateSpectrumMixture(1200, 32, PowerLawSpectrum(32, 1.2), 8,
                                    1.0, 3);
    queries_ = GenerateSpectrumMixture(16, 32, PowerLawSpectrum(32, 1.2), 8,
                                       1.0, 1003);
    VaqOptions opts;
    opts.num_subspaces = 8;
    opts.total_bits = 48;  // adaptive: mixed odd widths across subspaces
    opts.min_bits = 1;
    opts.max_bits = 13;
    opts.ti_clusters = 32;
    opts.kmeans_iters = 10;
    opts.seed = 7;
    auto index = VaqIndex::Train(data_, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  /// Every query must return the oracle's neighbors and distances.
  void ExpectMatchesOracle(const SearchParams& params) {
    for (size_t q = 0; q < queries_.rows(); ++q) {
      std::vector<Neighbor> want, got;
      ASSERT_TRUE(ReferenceSearch(index_, queries_.row(q), params, &want).ok());
      ASSERT_TRUE(index_.Search(queries_.row(q), params, &got).ok());
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << "q=" << q << " i=" << i;
        EXPECT_EQ(want[i].distance, got[i].distance) << "q=" << q;
      }
    }
  }

  FloatMatrix data_;
  FloatMatrix queries_;
  VaqIndex index_;
};

// Search runs the kernel the CPU picks; ctest re-runs this suite with
// VAQ_SCAN_KERNEL=scalar (tests/CMakeLists.txt), so both kernels are
// checked end to end on AVX2 machines.
TEST_F(ScanSearchEquivalenceTest, AllKernelsMatchReferenceInAllModes) {
  for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                          SearchMode::kTriangleInequality}) {
    for (double visit : {0.25, 1.0}) {
      SearchParams params;
      params.k = 15;
      params.mode = mode;
      params.visit_fraction = visit;
      ExpectMatchesOracle(params);
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, SubspacePrefixesMatchReference) {
  for (size_t used : {size_t{1}, size_t{3}, size_t{5}}) {
    for (SearchMode mode :
         {SearchMode::kHeap, SearchMode::kEarlyAbandon,
          SearchMode::kTriangleInequality /* falls back to EA */}) {
      SearchParams params;
      params.k = 10;
      params.mode = mode;
      params.num_subspaces_used = used;
      ExpectMatchesOracle(params);
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, ScalarAndSimdReportIdenticalStats) {
  if (!Avx2ScanAvailable()) GTEST_SKIP() << "no AVX2 kernel in this build";
  // Both kernels scan the index's own store with each query's LUT: a full
  // scan, an EA scan of the whole store, and EA scans of every partition
  // (ranges that start and end inside blocks). The abandoning decisions
  // depend on the partial sums, so identical counters are only possible
  // if the kernels agree bit for bit.
  const PartitionedCodes& store = index_.store();
  const BlockedCodes& blocked = store.blocked();
  const VariableCodebooks& books = index_.codebooks();
  const size_t m = books.num_subspaces();
  enum class Variant { kFull, kEa, kEaPerPartition };
  std::vector<float> projected, lut;
  float acc[kScanBlockSize];
  auto run = [&](ScanKernelType type, Variant variant, TopKHeap* heap,
                 SearchStats* stats) {
    const ScanKernel& kernel = GetScanKernel(type);
    if (variant == Variant::kFull) {
      BlockedFullScan(blocked, store.ids().data(), lut.data(),
                      books.lut_offsets(), m, kernel, acc, heap, stats);
    } else if (variant == Variant::kEa) {
      BlockedEaScan(blocked, 0, blocked.rows(), store.ids().data(),
                    lut.data(), books.lut_offsets(), m, /*interval=*/4,
                    kernel, acc, heap, stats);
    } else {
      for (size_t c = 0; c < store.num_partitions(); ++c) {
        BlockedEaScan(blocked, store.partition_begin(c),
                      store.partition_end(c), store.ids().data(), lut.data(),
                      books.lut_offsets(), m, /*interval=*/1, kernel, acc,
                      heap, stats);
      }
    }
  };
  for (size_t q = 0; q < queries_.rows(); ++q) {
    index_.ProjectQuery(queries_.row(q), &projected);
    books.BuildLookupTable(projected.data(), &lut);
    for (Variant variant :
         {Variant::kFull, Variant::kEa, Variant::kEaPerPartition}) {
      TopKHeap scalar_heap(15), simd_heap(15);
      SearchStats scalar_stats, simd_stats;
      run(ScanKernelType::kScalar, variant, &scalar_heap, &scalar_stats);
      run(ScanKernelType::kAvx2, variant, &simd_heap, &simd_stats);
      EXPECT_EQ(scalar_stats.codes_visited, simd_stats.codes_visited);
      EXPECT_EQ(scalar_stats.rows_scanned, simd_stats.rows_scanned);
      EXPECT_EQ(scalar_stats.lut_adds, simd_stats.lut_adds);
      const std::vector<Neighbor> a = scalar_heap.TakeSorted();
      const std::vector<Neighbor> b = simd_heap.TakeSorted();
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "q=" << q << " i=" << i;
        EXPECT_EQ(a[i].distance, b[i].distance) << "q=" << q;
      }
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, HeapModeCountsExactWork) {
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  params.num_subspaces_used = 2;
  SearchStats stats;
  std::vector<Neighbor> out;
  ASSERT_TRUE(index_.Search(queries_.row(0), params, &out, &stats).ok());
  EXPECT_EQ(stats.codes_visited, index_.size());
  EXPECT_EQ(stats.lut_adds, index_.size() * 2);
}

TEST_F(ScanSearchEquivalenceTest, HeapEqualsEaWithoutAnAbandonCheck) {
  // Heap mode is the EA scan whose abandon check never runs before the
  // last subspace, so EA at an interval >= m must return its answer and
  // do exactly its work: every SearchStats field but the two clocks.
  const size_t m = index_.num_subspaces();
  for (size_t used : {size_t{0}, size_t{3}}) {
    for (size_t interval : {m, 2 * m}) {
      SearchParams heap_params;
      heap_params.k = 15;
      heap_params.mode = SearchMode::kHeap;
      heap_params.num_subspaces_used = used;
      SearchParams ea_params = heap_params;
      ea_params.mode = SearchMode::kEarlyAbandon;
      ea_params.ea_check_interval = interval;
      for (size_t q = 0; q < queries_.rows(); ++q) {
        SCOPED_TRACE(::testing::Message() << "used=" << used << " interval="
                                          << interval << " q=" << q);
        std::vector<Neighbor> heap_out, ea_out;
        SearchStats heap_stats, ea_stats;
        ASSERT_TRUE(index_.Search(queries_.row(q), heap_params, &heap_out,
                                  &heap_stats).ok());
        ASSERT_TRUE(
            index_.Search(queries_.row(q), ea_params, &ea_out, &ea_stats)
                .ok());
        ASSERT_EQ(heap_out.size(), ea_out.size());
        for (size_t i = 0; i < heap_out.size(); ++i) {
          EXPECT_EQ(heap_out[i].id, ea_out[i].id) << "i=" << i;
          EXPECT_EQ(heap_out[i].distance, ea_out[i].distance) << "i=" << i;
        }
        EXPECT_EQ(heap_stats.codes_visited, ea_stats.codes_visited);
        EXPECT_EQ(heap_stats.codes_skipped_ti, ea_stats.codes_skipped_ti);
        EXPECT_EQ(heap_stats.lut_adds, ea_stats.lut_adds);
        EXPECT_EQ(heap_stats.partitions_total, ea_stats.partitions_total);
        EXPECT_EQ(heap_stats.clusters_visited, ea_stats.clusters_visited);
        EXPECT_EQ(heap_stats.truncated, ea_stats.truncated);
        EXPECT_EQ(heap_stats.rows_scanned, ea_stats.rows_scanned);
        EXPECT_EQ(heap_stats.partitions_visited,
                  ea_stats.partitions_visited);
        EXPECT_EQ(heap_stats.rows_scanned, index_.size());
      }
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, SaveLoadRebuildsBlockedLayout) {
  const std::string path = "/tmp/vaq_scan_test.bin";
  ASSERT_TRUE(index_.Save(path).ok());
  auto loaded = VaqIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SearchParams params;
  params.k = 10;
  for (size_t q = 0; q < 4; ++q) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(index_.Search(queries_.row(q), params, &a).ok());
    ASSERT_TRUE(loaded->Search(queries_.row(q), params, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
  std::remove(path.c_str());
}

TEST_F(ScanSearchEquivalenceTest, AddRebuildsBlockedLayout) {
  const FloatMatrix extra = GenerateSpectrumMixture(
      100, 32, PowerLawSpectrum(32, 1.2), 8, 1.0, 555);
  ASSERT_TRUE(index_.Add(extra).ok());
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  ExpectMatchesOracle(params);
}

TEST_F(ScanSearchEquivalenceTest, IndexHoldsOneBlockedCopyOfItsCodes) {
  const size_t m = index_.num_subspaces();
  const size_t blocks = (index_.size() + kScanBlockSize - 1) / kScanBlockSize;
  EXPECT_EQ(index_.code_bytes(), 2 * m * kScanBlockSize * blocks);
  // The store's partitions are the TI clusters, member for member, and
  // the TI cached distances are indexed by store position.
  const PartitionedCodes& store = index_.store();
  ASSERT_EQ(store.num_partitions(), index_.ti_partition().num_clusters());
  EXPECT_EQ(index_.ti_partition().distances().size(), store.rows());
}

TEST(DuplicateHeavyEquivalenceTest, HeapAndEaMatchOracleOnTies) {
  // Tiled rows, as in VaqStressTest.DuplicateHeavyData: every code occurs
  // ten times, so most top-k boundaries fall inside a run of equal
  // distances and only the (distance, id) order decides the answer. The
  // store's cluster order differs from row order, so an answer that
  // depended on scan order would differ from the oracle's. TI runs too:
  // its centroids are sampled rows, so some are duplicates with tied
  // query distances, and at visit 0.25 the (distance, cluster id) ranking
  // decides which clusters are scanned; the oracle ranks in its own code.
  const FloatMatrix base = GenerateSpectrumMixture(
      40, 8, PowerLawSpectrum(8, 1.2), 4, 1.0, 7);
  FloatMatrix tiled(400, 8);
  for (size_t r = 0; r < 400; ++r) {
    std::copy_n(base.row(r % 40), 8, tiled.row(r));
  }
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 20;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 5;
  auto index = VaqIndex::Train(tiled, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const std::pair<SearchMode, double> cases[] = {
      {SearchMode::kHeap, 1.0},
      {SearchMode::kEarlyAbandon, 1.0},
      {SearchMode::kTriangleInequality, 0.25},
      {SearchMode::kTriangleInequality, 1.0}};
  for (const auto& [mode, visit] : cases) {
    for (size_t k : {5, 15, 25}) {
      for (size_t q = 0; q < 40; ++q) {  // every distinct row
        SearchParams params;
        params.k = k;
        params.mode = mode;
        params.visit_fraction = visit;
        std::vector<Neighbor> want, got;
        SearchStats want_stats, got_stats;
        ASSERT_TRUE(
            ReferenceSearch(*index, tiled.row(q), params, &want, &want_stats)
                .ok());
        ASSERT_TRUE(index->Search(tiled.row(q), params, &got, &got_stats).ok());
        EXPECT_EQ(want, got) << "mode " << static_cast<int>(mode)
                             << " visit=" << visit << " k=" << k
                             << " q=" << q;
        // Each member of a visited cluster is either scanned or skipped by
        // TI (0 for heap and EA), so equal sums mean equally large
        // clusters were visited: a tie ranked the other way would visit
        // an empty duplicate-centroid cluster instead of its twin.
        EXPECT_EQ(want_stats.partitions_visited, got_stats.partitions_visited);
        EXPECT_EQ(want_stats.codes_visited + want_stats.codes_skipped_ti,
                  got_stats.codes_visited + got_stats.codes_skipped_ti)
            << "visit=" << visit << " k=" << k << " q=" << q;
        // Ties resolve to the smallest ids.
        for (size_t i = 1; i < got.size(); ++i) {
          if (got[i].distance == got[i - 1].distance) {
            EXPECT_LT(got[i - 1].id, got[i].id);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IVF reuse of the scan kernels.
// ---------------------------------------------------------------------------

TEST(VaqIvfScanTest, BlockedKernelsMatchReferenceScan) {
  const FloatMatrix data = GenerateSpectrumMixture(
      900, 24, PowerLawSpectrum(24, 1.1), 6, 1.0, 31);
  const FloatMatrix queries = GenerateSpectrumMixture(
      8, 24, PowerLawSpectrum(24, 1.1), 6, 1.0, 131);
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 6;
  opts.vaq.total_bits = 36;
  opts.vaq.kmeans_iters = 8;
  opts.coarse_k = 16;
  opts.default_nprobe = 16;  // all lists: results must be exhaustive-exact
  auto index = VaqIvfIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> want, got;
    ASSERT_TRUE(ReferenceIvfSearch(*index, queries.row(q), 10,
                                   opts.default_nprobe, QueryControl{}, &want)
                    .ok());
    ASSERT_TRUE(index->Search(queries.row(q), 10, 0, &got).ok());
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].id, got[i].id) << "q=" << q << " i=" << i;
      EXPECT_EQ(want[i].distance, got[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Scratch reuse: the steady-state query path must not touch the heap.
// ---------------------------------------------------------------------------

TEST_F(ScanSearchEquivalenceTest, ScratchReuseMakesSearchAllocationFree) {
  // TI runs at one cluster, a quarter and all of them, so RankPartitions
  // selects and sorts its keys in SearchScratch at every visit size.
  const std::pair<SearchMode, double> runs[] = {
      {SearchMode::kHeap, 1.0},
      {SearchMode::kEarlyAbandon, 1.0},
      {SearchMode::kTriangleInequality, 1e-6},
      {SearchMode::kTriangleInequality, 0.25},
      {SearchMode::kTriangleInequality, 1.0}};
  for (const auto& [mode, visit_fraction] : runs) {
    SearchParams params;
    params.k = 20;
    params.mode = mode;
    params.visit_fraction = visit_fraction;
    SearchScratch scratch;
    std::vector<Neighbor> out;
    SearchStats stats;
    // Warmup grows every scratch vector to its high-water size.
    for (size_t q = 0; q < 4; ++q) {
      ASSERT_TRUE(
          index_.Search(queries_.row(q), params, &scratch, &out, &stats)
              .ok());
    }
    const size_t before = AllocCount();
    for (size_t rep = 0; rep < 3; ++rep) {
      for (size_t q = 0; q < queries_.rows(); ++q) {
        stats.Reset();
        ASSERT_TRUE(
            index_.Search(queries_.row(q), params, &scratch, &out, &stats)
                .ok());
      }
    }
    EXPECT_EQ(AllocCount() - before, 0u)
        << "mode=" << static_cast<int>(mode)
        << " visit_fraction=" << visit_fraction
        << ": steady-state Search allocated";
  }
}

TEST(VaqIvfScanTest, ScratchReuseMakesSearchAllocationFree) {
  const FloatMatrix data = GenerateSpectrumMixture(
      900, 24, PowerLawSpectrum(24, 1.1), 6, 1.0, 31);
  const FloatMatrix queries = GenerateSpectrumMixture(
      8, 24, PowerLawSpectrum(24, 1.1), 6, 1.0, 131);
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 6;
  opts.vaq.total_bits = 36;
  opts.vaq.kmeans_iters = 8;
  opts.coarse_k = 16;
  auto index = VaqIvfIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (size_t nprobe : {size_t{1}, size_t{4}, size_t{16}}) {
    SearchScratch scratch;
    std::vector<Neighbor> out;
    SearchStats stats;
    for (size_t q = 0; q < 4; ++q) {
      ASSERT_TRUE(index->Search(queries.row(q), 10, nprobe, QueryControl{},
                                &scratch, &out, &stats)
                      .ok());
    }
    const size_t before = AllocCount();
    for (size_t rep = 0; rep < 3; ++rep) {
      for (size_t q = 0; q < queries.rows(); ++q) {
        ASSERT_TRUE(index->Search(queries.row(q), 10, nprobe, QueryControl{},
                                  &scratch, &out, &stats)
                        .ok());
      }
    }
    EXPECT_EQ(AllocCount() - before, 0u)
        << "nprobe=" << nprobe << ": steady-state IVF Search allocated";
  }
}

TEST_F(ScanSearchEquivalenceTest, BatchIntoReusesResultBuffers) {
  SearchParams params;
  params.k = 20;
  std::vector<std::vector<Neighbor>> results;
  // First batch sizes the result vectors; second batch must reuse them.
  ASSERT_TRUE(index_.SearchBatchInto(queries_, params, 1, &results).ok());
  const size_t before = AllocCount();
  ASSERT_TRUE(index_.SearchBatchInto(queries_, params, 1, &results).ok());
  const size_t per_batch = AllocCount() - before;
  // The only steady-state allocations are the one fresh SearchScratch per
  // batch (a handful of vectors), independent of the query count.
  EXPECT_LT(per_batch, 16u) << "per-batch allocations should not scale "
                               "with the number of queries";
}

TEST(ScanDispatchTest, AutoResolvesToSupportedKernel) {
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  ASSERT_NE(kernel.accumulate, nullptr);
  if (Avx2ScanAvailable() &&
      std::getenv("VAQ_SCAN_KERNEL") == nullptr) {
    EXPECT_STREQ(kernel.name, "avx2");
    EXPECT_TRUE(CpuHasAvx2());
  } else {
    EXPECT_STREQ(kernel.name, "scalar");
  }
  // Requesting AVX2 must degrade gracefully rather than crash.
  ASSERT_NE(GetScanKernel(ScanKernelType::kAvx2).accumulate, nullptr);
  EXPECT_STREQ(GetScanKernel(ScanKernelType::kScalar).name, "scalar");
}

}  // namespace
}  // namespace vaq
