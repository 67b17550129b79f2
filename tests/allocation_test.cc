#include "core/allocation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vaq {
namespace {

std::vector<double> PowerSpectrum(size_t m, double decay) {
  std::vector<double> vars(m);
  for (size_t i = 0; i < m; ++i) vars[i] = std::pow(decay, double(i));
  return vars;
}

void CheckInvariants(const std::vector<int>& bits,
                     const AllocationOptions& opts) {
  long long total = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_GE(bits[i], static_cast<int>(opts.min_bits)) << i;
    EXPECT_LE(bits[i], static_cast<int>(opts.max_bits)) << i;
    if (i > 0) {
      EXPECT_LE(bits[i], bits[i - 1]) << i;
    }
    total += bits[i];
  }
  EXPECT_EQ(total, static_cast<long long>(opts.total_bits));
}

TEST(AllocationTest, PaperConfiguration256Bits32Subspaces) {
  AllocationOptions opts;
  opts.total_bits = 256;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(PowerSpectrum(32, 0.8), opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->size(), 32u);
  CheckInvariants(*alloc, opts);
  // Skewed spectrum: the most important subspace must get strictly more
  // bits than the least important one.
  EXPECT_GT(alloc->front(), alloc->back());
}

TEST(AllocationTest, UniformVariancesGiveNearUniformBits) {
  AllocationOptions opts;
  opts.total_bits = 64;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(std::vector<double>(8, 1.0), opts);
  ASSERT_TRUE(alloc.ok());
  CheckInvariants(*alloc, opts);
  EXPECT_EQ(alloc->front(), 8);
  EXPECT_EQ(alloc->back(), 8);
}

TEST(AllocationTest, ExtremeSkewHitsMaxBits) {
  // One overwhelmingly dominant subspace grabs its cap.
  std::vector<double> vars = {1e9, 1, 1, 1};
  AllocationOptions opts;
  opts.total_bits = 16;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(vars, opts);
  ASSERT_TRUE(alloc.ok());
  CheckInvariants(*alloc, opts);
  EXPECT_EQ((*alloc)[0], 13);
}

TEST(AllocationTest, BudgetExactlyMinimal) {
  AllocationOptions opts;
  opts.total_bits = 4;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(PowerSpectrum(4, 0.5), opts);
  ASSERT_TRUE(alloc.ok());
  for (int b : *alloc) EXPECT_EQ(b, 1);
}

TEST(AllocationTest, BudgetExactlyMaximal) {
  AllocationOptions opts;
  opts.total_bits = 4 * 13;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(PowerSpectrum(4, 0.5), opts);
  ASSERT_TRUE(alloc.ok());
  for (int b : *alloc) EXPECT_EQ(b, 13);
}

TEST(AllocationTest, RejectsInfeasibleBudgets) {
  AllocationOptions opts;
  opts.min_bits = 2;
  opts.max_bits = 8;
  opts.total_bits = 7;  // < 4 * 2
  EXPECT_FALSE(AllocateBits(PowerSpectrum(4, 0.5), opts).ok());
  opts.total_bits = 33;  // > 4 * 8
  EXPECT_FALSE(AllocateBits(PowerSpectrum(4, 0.5), opts).ok());
}

TEST(AllocationTest, RejectsUnsortedVariances) {
  AllocationOptions opts;
  opts.total_bits = 16;
  EXPECT_FALSE(AllocateBits({1.0, 2.0}, opts).ok());
}

TEST(AllocationTest, RejectsNegativeVariance) {
  AllocationOptions opts;
  opts.total_bits = 16;
  EXPECT_FALSE(AllocateBits({2.0, -1.0}, opts).ok());
}

TEST(AllocationTest, AllZeroVariancesFallBackToUniform) {
  AllocationOptions opts;
  opts.total_bits = 32;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(std::vector<double>(8, 0.0), opts);
  ASSERT_TRUE(alloc.ok());
  CheckInvariants(*alloc, opts);
}

TEST(AllocationTest, ProportionalReferenceInvariants) {
  AllocationOptions opts;
  opts.total_bits = 128;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(PowerSpectrum(16, 0.6), opts);
  ASSERT_TRUE(alloc.ok());
  CheckInvariants(*alloc, opts);
  EXPECT_GT(alloc->front(), alloc->back());
}

class AllocationPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double>> {};

TEST_P(AllocationPropertyTest, InvariantsHoldAcrossConfigurations) {
  const auto [m, budget_selector, decay] = GetParam();
  static constexpr size_t kBitsPerSubspace[] = {1, 4, 8};
  AllocationOptions opts;
  opts.total_bits = m * kBitsPerSubspace[budget_selector];
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(PowerSpectrum(m, decay), opts);
  ASSERT_TRUE(alloc.ok());
  CheckInvariants(*alloc, opts);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, AllocationPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(4, 8, 16, 32, 64),
                       ::testing::Values<size_t>(0, 1, 2),  // budget selector
                       ::testing::Values(0.5, 0.8, 0.95)),
    // `p`, not `info`: the INSTANTIATE_TEST_SUITE_P expansion wraps this
    // lambda in a function whose parameter is already named `info`.
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t, double>>&
           p) {
      return "m" + std::to_string(std::get<0>(p.param)) + "_b" +
             std::to_string(std::get<1>(p.param)) + "_d" +
             std::to_string(static_cast<int>(std::get<2>(p.param) * 100));
    });

}  // namespace
}  // namespace vaq
