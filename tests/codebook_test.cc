#include "core/codebook.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.h"

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

class CodebookTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = RandomData(500, 12, 7);
    auto layout = SubspaceLayout::Uniform(12, 3);
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
    CodebookOptions opts;
    opts.seed = 11;
    ASSERT_TRUE(books_.Train(data_, layout_, {5, 3, 2}, opts).ok());
  }

  FloatMatrix data_;
  SubspaceLayout layout_;
  VariableCodebooks books_;
};

TEST_F(CodebookTest, DictionarySizesMatchBits) {
  EXPECT_EQ(books_.centroids(0).rows(), 32u);
  EXPECT_EQ(books_.centroids(1).rows(), 8u);
  EXPECT_EQ(books_.centroids(2).rows(), 4u);
  EXPECT_EQ(books_.centroids(0).cols(), 4u);
  EXPECT_EQ(books_.lut_entries(), 32u + 8u + 4u);
  EXPECT_EQ(books_.lut_offset(0), 0u);
  EXPECT_EQ(books_.lut_offset(1), 32u);
  EXPECT_EQ(books_.lut_offset(2), 40u);
}

TEST_F(CodebookTest, CodesWithinDictionaryRange) {
  auto codes = books_.Encode(data_);
  ASSERT_TRUE(codes.ok());
  for (size_t r = 0; r < codes->rows(); ++r) {
    EXPECT_LT(codes->at(r, 0), 32u);
    EXPECT_LT(codes->at(r, 1), 8u);
    EXPECT_LT(codes->at(r, 2), 4u);
  }
}

TEST_F(CodebookTest, EncodePicksNearestDictionaryItem) {
  std::vector<uint16_t> code(3);
  books_.EncodeRow(data_.row(0), code.data());
  for (size_t s = 0; s < 3; ++s) {
    const auto& span = layout_.span(s);
    const float chosen = SquaredL2(data_.row(0) + span.offset,
                                   books_.centroids(s).row(code[s]),
                                   span.length);
    for (size_t c = 0; c < books_.centroids(s).rows(); ++c) {
      const float other = SquaredL2(data_.row(0) + span.offset,
                                    books_.centroids(s).row(c), span.length);
      EXPECT_LE(chosen, other + 1e-6f);
    }
  }
}

TEST_F(CodebookTest, AdcDistanceEqualsDecodedDistance) {
  // ADC(q, code) must equal the exact distance between q and the decoded
  // vector — the core correctness property of the lookup tables.
  const FloatMatrix queries = RandomData(10, 12, 99);
  auto codes = books_.Encode(data_);
  ASSERT_TRUE(codes.ok());
  std::vector<float> lut;
  std::vector<float> decoded(12);
  for (size_t q = 0; q < queries.rows(); ++q) {
    books_.BuildLookupTable(queries.row(q), &lut);
    for (size_t r = 0; r < 20; ++r) {
      const float adc = books_.AdcDistance(codes->row(r), lut.data());
      books_.DecodeRow(codes->row(r), decoded.data());
      const float exact = SquaredL2(queries.row(q), decoded.data(), 12);
      EXPECT_NEAR(adc, exact, 1e-3f * std::max(1.f, exact));
    }
  }
}

TEST_F(CodebookTest, PrefixAdcMatchesPartialSum) {
  // A prefix table holds the full table's entries bit for bit for its
  // subspaces and leaves the rest alone, so ADC sums over the prefix agree
  // exactly whichever table they read.
  const FloatMatrix queries = RandomData(3, 12, 101);
  auto codes = books_.Encode(data_);
  ASSERT_TRUE(codes.ok());
  constexpr float kUntouched = -1.f;
  for (size_t prefix : {size_t{1}, size_t{2}}) {
    const size_t prefix_end = books_.lut_offset(prefix);
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::vector<float> full_lut;
      std::vector<float> prefix_lut(books_.lut_entries(), kUntouched);
      books_.BuildLookupTable(queries.row(q), &full_lut);
      books_.BuildLookupTable(queries.row(q), &prefix_lut, prefix);
      ASSERT_EQ(prefix_lut.size(), full_lut.size());
      for (size_t e = 0; e < prefix_end; ++e) {
        EXPECT_EQ(prefix_lut[e], full_lut[e]) << "entry " << e;
      }
      for (size_t e = prefix_end; e < prefix_lut.size(); ++e) {
        EXPECT_EQ(prefix_lut[e], kUntouched) << "entry " << e;
      }
      for (size_t r = 0; r < 10; ++r) {
        float via_prefix = 0.f, via_full = 0.f;
        for (size_t s = 0; s < prefix; ++s) {
          const size_t e = books_.lut_offset(s) + codes->at(r, s);
          via_prefix += prefix_lut[e];
          via_full += full_lut[e];
        }
        EXPECT_EQ(via_prefix, via_full);
      }
    }
  }
}

TEST_F(CodebookTest, ReconstructionErrorDecreasesWithMoreBits) {
  VariableCodebooks small, large;
  CodebookOptions opts;
  opts.seed = 21;
  ASSERT_TRUE(small.Train(data_, layout_, {2, 2, 2}, opts).ok());
  ASSERT_TRUE(large.Train(data_, layout_, {6, 6, 6}, opts).ok());
  auto err_small = small.ReconstructionError(data_);
  auto err_large = large.ReconstructionError(data_);
  ASSERT_TRUE(err_small.ok());
  ASSERT_TRUE(err_large.ok());
  EXPECT_LT(*err_large, *err_small);
}

TEST_F(CodebookTest, SaveLoadRoundtrip) {
  std::stringstream ss;
  books_.Save(ss);
  VariableCodebooks loaded;
  ASSERT_TRUE(loaded.Load(ss).ok());
  EXPECT_EQ(loaded.bits(), books_.bits());
  EXPECT_EQ(loaded.num_subspaces(), books_.num_subspaces());
  EXPECT_TRUE(loaded.centroids(0) == books_.centroids(0));
  // Encoding behaviour must be identical.
  std::vector<uint16_t> a(3), b(3);
  books_.EncodeRow(data_.row(5), a.data());
  loaded.EncodeRow(data_.row(5), b.data());
  EXPECT_EQ(a, b);
}

TEST_F(CodebookTest, HierarchicalPathForLargeDictionaries) {
  // 11 bits exceeds the default 2^10 threshold and takes the hierarchical
  // path; dictionary must still have exactly 2^11 entries.
  const FloatMatrix big = RandomData(3000, 4, 31);
  auto layout = SubspaceLayout::Uniform(4, 1);
  ASSERT_TRUE(layout.ok());
  VariableCodebooks books;
  CodebookOptions opts;
  opts.seed = 41;
  ASSERT_TRUE(books.Train(big, *layout, {11}, opts).ok());
  EXPECT_EQ(books.centroids(0).rows(), 2048u);
}

TEST(CodebookErrorsTest, RejectsBadInputs) {
  VariableCodebooks books;
  auto layout = SubspaceLayout::Uniform(8, 2);
  ASSERT_TRUE(layout.ok());
  CodebookOptions opts;
  const FloatMatrix data = RandomData(50, 8, 3);
  EXPECT_FALSE(books.Train(FloatMatrix(), *layout, {4, 4}, opts).ok());
  EXPECT_FALSE(books.Train(data, *layout, {4}, opts).ok());       // width
  EXPECT_FALSE(books.Train(data, *layout, {4, 0}, opts).ok());    // bits
  EXPECT_FALSE(books.Train(data, *layout, {4, 17}, opts).ok());   // bits
  EXPECT_FALSE(books.Encode(data).ok());                          // untrained
  EXPECT_FALSE(books.ReconstructionError(data).ok());

  ASSERT_TRUE(books.Train(data, *layout, {4, 4}, opts).ok());
  EXPECT_FALSE(books.Encode(RandomData(5, 9, 5)).ok());  // wrong width
}

TEST(CodebookDeterminismTest, SameSeedSameDictionaries) {
  const FloatMatrix data = RandomData(200, 8, 17);
  auto layout = SubspaceLayout::Uniform(8, 2);
  ASSERT_TRUE(layout.ok());
  CodebookOptions opts;
  opts.seed = 5;
  VariableCodebooks a, b;
  ASSERT_TRUE(a.Train(data, *layout, {4, 4}, opts).ok());
  ASSERT_TRUE(b.Train(data, *layout, {4, 4}, opts).ok());
  EXPECT_TRUE(a.centroids(0) == b.centroids(0));
  EXPECT_TRUE(a.centroids(1) == b.centroids(1));
}

}  // namespace
}  // namespace vaq
