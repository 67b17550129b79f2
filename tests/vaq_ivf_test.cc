#include "index/vaq_ivf.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace vaq {
namespace {

class VaqIvfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = GenerateSpectrumMixture(2000, 32, PowerLawSpectrum(32, 1.2), 12,
                                    1.5, 51);
    queries_ = GenerateSpectrumMixture(12, 32, PowerLawSpectrum(32, 1.2), 12,
                                       1.5, 151);
    auto gt = BruteForceKnn(base_, queries_, 10, 1);
    ASSERT_TRUE(gt.ok());
    gt_ = std::move(*gt);

    VaqIvfOptions opts;
    opts.vaq.num_subspaces = 8;
    opts.vaq.total_bits = 48;
    opts.vaq.kmeans_iters = 10;
    opts.coarse_k = 32;
    auto index = VaqIvfIndex::Train(base_, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  FloatMatrix base_;
  FloatMatrix queries_;
  std::vector<std::vector<Neighbor>> gt_;
  VaqIvfIndex index_;
};

TEST_F(VaqIvfTest, TrainBuildsValidState) {
  EXPECT_EQ(index_.size(), 2000u);
  EXPECT_EQ(index_.dim(), 32u);
  EXPECT_EQ(index_.coarse_k(), 32u);
  int total_bits = 0;
  for (int b : index_.bits_per_subspace()) total_bits += b;
  EXPECT_EQ(total_bits, 48);
}

TEST_F(VaqIvfTest, FullProbeScansEverything) {
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(
      index_.Search(queries_.row(0), 10, index_.coarse_k(), &result, &stats)
          .ok());
  EXPECT_EQ(stats.codes_visited, index_.size());
  EXPECT_EQ(result.size(), 10u);
}

TEST_F(VaqIvfTest, RecallGrowsWithNprobe) {
  auto recall_at = [&](size_t nprobe) {
    std::vector<std::vector<Neighbor>> results(queries_.rows());
    for (size_t q = 0; q < queries_.rows(); ++q) {
      EXPECT_TRUE(
          index_.Search(queries_.row(q), 10, nprobe, &results[q]).ok());
    }
    return Recall(results, gt_, 10);
  };
  const double low = recall_at(1);
  const double high = recall_at(32);
  EXPECT_GE(high + 1e-9, low);
  EXPECT_GT(high, 0.35);  // full probe == exhaustive quantized scan
}

TEST_F(VaqIvfTest, ProbingReducesWork) {
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), 10, 4, &result, &stats).ok());
  EXPECT_LT(stats.codes_visited, index_.size());
  EXPECT_EQ(stats.clusters_visited, 4u);
}

TEST_F(VaqIvfTest, DefaultNprobeUsed) {
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), 10, 0, &result, &stats).ok());
  EXPECT_EQ(stats.clusters_visited, 8u);  // the configured default
}

TEST_F(VaqIvfTest, RejectsBadInputs) {
  std::vector<Neighbor> out;
  EXPECT_FALSE(index_.Search(queries_.row(0), 0, 4, &out).ok());
  VaqIvfIndex untrained;
  EXPECT_FALSE(untrained.Search(queries_.row(0), 5, 4, &out).ok());
  VaqIvfOptions opts;
  opts.coarse_k = 0;
  EXPECT_FALSE(VaqIvfIndex::Train(base_, opts).ok());
  opts = VaqIvfOptions{};
  opts.default_nprobe = 0;  // a default query would probe no list
  EXPECT_EQ(VaqIvfIndex::Train(base_, opts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(VaqIvfIndex::Train(FloatMatrix(1, 32), VaqIvfOptions{}).ok());
}

TEST_F(VaqIvfTest, EveryVectorLandsInSomeList) {
  // Full probe must be able to return any specific vector as its own NN.
  std::vector<Neighbor> result;
  for (size_t r = 0; r < 25; ++r) {
    ASSERT_TRUE(
        index_.Search(base_.row(r), 1, index_.coarse_k(), &result).ok());
    ASSERT_EQ(result.size(), 1u);
    // Quantized distances may confuse near-duplicates, but the returned
    // distance cannot exceed the query's own reconstruction distance by
    // much; just require a sane, small value.
    EXPECT_LT(result[0].distance, 1e3f);
  }
}

/// Both indexes encode through one VaqEncoder: with the same VaqOptions on
/// the same data they must agree on bits, permutation and every code. The
/// 300-vector SALD-like case needs the log2(n) dictionary cap (8 bits).
TEST(VaqIvfEncoderTest, MatchesVaqIndexEncoding) {
  struct Case {
    FloatMatrix data;
    size_t num_subspaces;
    size_t total_bits;
  };
  const Case cases[] = {
      {GenerateSynthetic(SyntheticKind::kSaldLike, 300, 5), 16, 128},
      {GenerateSpectrumMixture(2000, 32, PowerLawSpectrum(32, 1.2), 12, 1.5,
                               51),
       8, 48},
  };
  for (const Case& c : cases) {
    VaqIvfOptions opts;
    opts.vaq.num_subspaces = c.num_subspaces;
    opts.vaq.total_bits = c.total_bits;
    opts.vaq.kmeans_iters = 5;
    opts.vaq.ti_clusters = 16;
    opts.coarse_k = 8;
    auto flat = VaqIndex::Train(c.data, opts.vaq);
    auto ivf = VaqIvfIndex::Train(c.data, opts);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
    EXPECT_EQ(ivf->bits_per_subspace(), flat->bits_per_subspace());
    for (int b : ivf->bits_per_subspace()) {
      EXPECT_LE(size_t{1} << b, c.data.rows()) << "dictionary above n";
    }
    EXPECT_EQ(ivf->encoder().permutation(), flat->encoder().permutation());
    const CodeMatrix a = flat->store().RowCodes();
    const CodeMatrix b = ivf->store().RowCodes();
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_TRUE(std::equal(a.data(), a.data() + a.size(), b.data()));
  }
}

}  // namespace
}  // namespace vaq
