// Tests for the extension features: exact re-ranking, symmetric distance
// computation (SDC), the configurable early-abandon interval, parallel
// encoding, and baseline persistence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/rerank.h"
#include "quant/pq.h"

namespace vaq {
namespace {

FloatMatrix RandomData(size_t n, size_t d, uint64_t seed) {
  return GenerateSpectrumMixture(n, d, PowerLawSpectrum(d, 1.0), 8, 1.0,
                                 seed);
}

TEST(RerankTest, ReordersByExactDistance) {
  FloatMatrix base(3, 2, std::vector<float>{0, 0, 5, 0, 1, 0});
  const float query[2] = {1.1f, 0.f};
  // Candidates in a deliberately wrong order with wrong distances.
  std::vector<Neighbor> candidates = {{9.f, 1}, {8.f, 0}, {7.f, 2}};
  const auto result = RerankWithOriginal(base, query, candidates, 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 2);  // distance 0.1
  EXPECT_EQ(result[1].id, 0);  // distance 1.1
  EXPECT_NEAR(result[0].distance, 0.1f, 1e-5f);
}

TEST(RerankTest, ImprovesApproximateRecall) {
  const FloatMatrix base = RandomData(2000, 24, 5);
  const FloatMatrix queries = RandomData(10, 24, 105);
  auto gt = BruteForceKnn(base, queries, 10, 1);
  ASSERT_TRUE(gt.ok());

  PqOptions opts;
  opts.num_subspaces = 6;
  opts.bits_per_subspace = 4;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(base).ok());

  std::vector<std::vector<Neighbor>> raw(queries.rows());
  std::vector<std::vector<Neighbor>> reranked(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> wide;
    ASSERT_TRUE(pq.Search(queries.row(q), 100, &wide).ok());
    raw[q].assign(wide.begin(), wide.begin() + 10);
    reranked[q] = RerankWithOriginal(base, queries.row(q), wide, 10);
  }
  EXPECT_GE(Recall(reranked, *gt, 10), Recall(raw, *gt, 10));
  // Reranked distances are exact: the top-1, if correct, matches GT.
  EXPECT_GT(Recall(reranked, *gt, 10), 0.5);
}

TEST(SdcTest, MatchesDecodedPairDistances) {
  const FloatMatrix data = RandomData(400, 16, 7);
  auto layout = SubspaceLayout::Uniform(16, 4);
  ASSERT_TRUE(layout.ok());
  VariableCodebooks books;
  CodebookOptions copts;
  ASSERT_TRUE(books.Train(data, *layout, {4, 4, 3, 3}, copts).ok());
  auto codes = books.Encode(data);
  ASSERT_TRUE(codes.ok());
  auto sdc = books.BuildSdcTables();
  ASSERT_TRUE(sdc.ok());

  std::vector<float> da(16), db(16);
  for (size_t a = 0; a < 10; ++a) {
    for (size_t b = 0; b < 10; ++b) {
      books.DecodeRow(codes->row(a), da.data());
      books.DecodeRow(codes->row(b), db.data());
      const float exact = SquaredL2(da.data(), db.data(), 16);
      const float via_sdc =
          books.SdcDistance(codes->row(a), codes->row(b), *sdc);
      EXPECT_NEAR(via_sdc, exact, 1e-3f * std::max(1.f, exact));
    }
  }
}

TEST(SdcTest, SelfDistanceIsZero) {
  const FloatMatrix data = RandomData(200, 8, 9);
  auto layout = SubspaceLayout::Uniform(8, 2);
  ASSERT_TRUE(layout.ok());
  VariableCodebooks books;
  ASSERT_TRUE(books.Train(data, *layout, {4, 4}, CodebookOptions{}).ok());
  auto codes = books.Encode(data);
  auto sdc = books.BuildSdcTables();
  ASSERT_TRUE(sdc.ok());
  for (size_t r = 0; r < 20; ++r) {
    EXPECT_FLOAT_EQ(books.SdcDistance(codes->row(r), codes->row(r), *sdc),
                    0.f);
  }
}

TEST(SdcTest, RejectsHugeDictionaries) {
  const FloatMatrix data = RandomData(200, 8, 11);
  auto layout = SubspaceLayout::Uniform(8, 1);
  ASSERT_TRUE(layout.ok());
  VariableCodebooks books;
  ASSERT_TRUE(books.Train(data, *layout, {13}, CodebookOptions{}).ok());
  EXPECT_FALSE(books.BuildSdcTables().ok());
}

TEST(SdcTest, PqSdcSearchCloseToAdc) {
  const FloatMatrix base = RandomData(1500, 16, 13);
  const FloatMatrix queries = RandomData(10, 16, 113);
  auto gt = BruteForceKnn(base, queries, 10, 1);
  ASSERT_TRUE(gt.ok());
  PqOptions opts;
  opts.num_subspaces = 4;
  opts.bits_per_subspace = 6;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(base).ok());
  std::vector<Neighbor> out;
  EXPECT_FALSE(pq.SearchSdc(queries.row(0), 5, &out).ok());  // not prepared
  ASSERT_TRUE(pq.PrepareSdc().ok());

  std::vector<std::vector<Neighbor>> adc(queries.rows()), sdc(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_TRUE(pq.Search(queries.row(q), 10, &adc[q]).ok());
    ASSERT_TRUE(pq.SearchSdc(queries.row(q), 10, &sdc[q]).ok());
  }
  const double adc_recall = Recall(adc, *gt, 10);
  const double sdc_recall = Recall(sdc, *gt, 10);
  // SDC quantizes the query too, so it cannot beat ADC by much, and
  // should stay in the same ballpark.
  EXPECT_LE(sdc_recall, adc_recall + 0.05);
  EXPECT_GE(sdc_recall, adc_recall - 0.25);
}

TEST(EaIntervalTest, AnyIntervalGivesIdenticalResults) {
  const FloatMatrix base = RandomData(1000, 24, 17);
  const FloatMatrix queries = RandomData(8, 24, 117);
  VaqOptions opts;
  opts.num_subspaces = 8;
  opts.total_bits = 40;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 8;
  auto index = VaqIndex::Train(base, opts);
  ASSERT_TRUE(index.ok());

  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> reference;
    SearchParams params;
    params.k = 10;
    params.mode = SearchMode::kEarlyAbandon;
    params.ea_check_interval = 1;
    ASSERT_TRUE(index->Search(queries.row(q), params, &reference).ok());
    for (size_t interval : {2, 4, 7, 100}) {
      params.ea_check_interval = interval;
      std::vector<Neighbor> result;
      ASSERT_TRUE(index->Search(queries.row(q), params, &result).ok());
      ASSERT_EQ(result.size(), reference.size());
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i].id, reference[i].id) << "interval " << interval;
      }
    }
  }
}

TEST(ParallelEncodeTest, MatchesSingleThreaded) {
  const FloatMatrix data = RandomData(2000, 16, 19);
  auto layout = SubspaceLayout::Uniform(16, 4);
  ASSERT_TRUE(layout.ok());
  VariableCodebooks books;
  ASSERT_TRUE(
      books.Train(data, *layout, {5, 4, 4, 3}, CodebookOptions{}).ok());
  auto serial = books.Encode(data, 1);
  auto parallel = books.Encode(data, 4);
  auto automatic = books.Encode(data, 0);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(automatic.ok());
  EXPECT_TRUE(*serial == *parallel);
  EXPECT_TRUE(*serial == *automatic);
}

TEST(ParallelTrainTest, ThreadedVaqIndexMatchesSerial) {
  const FloatMatrix base = RandomData(1500, 16, 23);
  VaqOptions serial_opts;
  serial_opts.num_subspaces = 4;
  serial_opts.total_bits = 24;
  serial_opts.ti_clusters = 16;
  serial_opts.kmeans_iters = 8;
  VaqOptions threaded_opts = serial_opts;
  threaded_opts.train_threads = 4;
  auto a = VaqIndex::Train(base, serial_opts);
  auto b = VaqIndex::Train(base, threaded_opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  SearchParams params;
  params.k = 10;
  std::vector<Neighbor> ra, rb;
  ASSERT_TRUE(a->Search(base.row(0), params, &ra).ok());
  ASSERT_TRUE(b->Search(base.row(0), params, &rb).ok());
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
}

TEST(PqPersistenceTest, SaveLoadRoundtrip) {
  const FloatMatrix base = RandomData(800, 16, 43);
  PqOptions opts;
  opts.num_subspaces = 4;
  opts.bits_per_subspace = 5;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(base).ok());
  const std::string path = "/tmp/vaq_pq_test.bin";
  ASSERT_TRUE(pq.Save(path).ok());
  auto loaded = ProductQuantizer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), pq.size());
  EXPECT_DOUBLE_EQ(loaded->train_error(), pq.train_error());
  std::vector<Neighbor> a, b;
  ASSERT_TRUE(pq.Search(base.row(3), 5, &a).ok());
  ASSERT_TRUE(loaded->Search(base.row(3), 5, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
  }
  std::remove(path.c_str());
}

TEST(PqPersistenceTest, RejectsCorruptedFile) {
  const std::string path = "/tmp/vaq_pq_corrupt.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not a PQ index";
  }
  EXPECT_FALSE(ProductQuantizer::Load(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(ProductQuantizer::Load("/tmp/missing_vaq_pq.bin").ok());
}

}  // namespace
}  // namespace vaq
