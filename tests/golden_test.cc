// Golden tests: hand-computed expected outputs for the paper's algorithms
// on tiny inputs, pinning the exact semantics of Algorithm 2's swap
// schedule and the bit allocator so behavioural drift is caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/allocation.h"
#include "core/balance.h"
#include "core/subspace.h"

namespace vaq {
namespace {

TEST(BalanceGoldenTest, TwoSubspacesSingleSwap) {
  // Variances 8,4,2,1 in two subspaces of width 2: [8,4][2,1].
  // Round 0, source subspace 0, i=1: swap position 1 (value 4) with the
  // worst unconsumed of subspace 1 = position 3 (value 1):
  //   [8,1][2,4] -> sums 9 vs 6: ordering holds, swap kept.
  // next_worst[1] moves to position 2 — the target subspace's *leading*
  // element, which targets never give up (mirroring "keep the first PC in
  // place" on the receiving side) -> schedule ends after one swap.
  const std::vector<double> vars = {8, 4, 2, 1};
  auto layout = SubspaceLayout::Uniform(4, 2);
  ASSERT_TRUE(layout.ok());
  const BalanceResult result = PartialBalance(vars, *layout);
  EXPECT_EQ(result.num_swaps, 1u);
  EXPECT_EQ(result.permutation, std::vector<size_t>({0, 3, 2, 1}));
  EXPECT_EQ(result.permuted_variances, std::vector<double>({8, 1, 2, 4}));
}

TEST(BalanceGoldenTest, SwapRevertedWhenOrderingWouldBreak) {
  // Variances 4,3,2,1 in two subspaces: [4,3][2,1], sums 7 vs 3.
  // Swap pos1 (3) with pos3 (1): [4,1][2,3] -> 5 vs 5: ordering holds
  // (ties allowed); the target's leading element (pos 2) is then
  // untouchable, so the schedule ends after one swap.
  const std::vector<double> vars = {4, 3, 2, 1};
  auto layout = SubspaceLayout::Uniform(4, 2);
  ASSERT_TRUE(layout.ok());
  const BalanceResult result = PartialBalance(vars, *layout);
  EXPECT_EQ(result.num_swaps, 1u);
  EXPECT_EQ(result.permuted_variances, std::vector<double>({4, 1, 2, 3}));
}

TEST(BalanceGoldenTest, DominantFirstSubspaceBlocksSwaps) {
  // [100,1][1,1]: swapping pos1 with pos3 gives [100,1][1,1] (values
  // equal) — counts as a swap but leaves variances identical; ordering
  // always holds. The interesting golden property: permuted variance
  // content is unchanged as a multiset and first position never moves.
  const std::vector<double> vars = {100, 1, 1, 1};
  auto layout = SubspaceLayout::Uniform(4, 2);
  ASSERT_TRUE(layout.ok());
  const BalanceResult result = PartialBalance(vars, *layout);
  EXPECT_EQ(result.permutation[0], 0u);
  std::vector<double> sorted = result.permuted_variances;
  std::sort(sorted.rbegin(), sorted.rend());
  EXPECT_EQ(sorted, vars);
}

TEST(BalanceGoldenTest, ThreeSubspaceScheduleMatchesPaperText) {
  // Section III-C: "starting from the first subspace, keep the first PC
  // in place and swap the second best PC with the worst PC of the second
  // subspace ... the third best PC of the first subspace with the worst
  // PC of the third subspace."
  // Layout [a,b,c][d,e,f][g,h,i] with strictly decreasing variances
  // 9..1 = [9,8,7][6,5,4][3,2,1].
  // Round r=0: i=1: swap pos1(8) with worst of subspace 1 = pos5(4):
  //   [9,4,7][6,5,8][3,2,1] -> sums 20,19,6: ok.
  //   i=2: swap pos2(7) with worst of subspace 2 = pos8(1):
  //   [9,4,1][6,5,8][3,2,7] -> sums 14,19,12: VIOLATION -> revert, end
  //   round for r=0.
  // r=1: i=1: swap pos4(5) with next worst of subspace 2 = pos8(1):
  //   [9,4,7][6,1,8][3,2,5] -> sums 20,15,10: ok.
  // r=2: no target to the right.
  // Next sweep repeats sources; r=0 i=1: swap pos1(4) with next worst of
  //   subspace 1 = pos4(1): [9,1,7][6,4,8][3,2,5] -> 17,18,10: VIOLATION
  //   -> revert. r=1: next_worst[2]=7: swap pos4(1) with pos7(2):
  //   [9,4,7][6,2,8][3,1,5] -> 20,16,9: ok.
  // Sweep 3: r=0 blocked again (same violation), r=1: next_worst[2]=6:
  //   swap pos4(2) with pos6(3): [9,4,7][6,3,8][2,1,5] -> 20,17,8: ok.
  //   next_worst[2] hits span start.
  // Sweep 4: r=0 swap pos1(4)/pos4(3): [9,3,7][6,4,8][...] -> 19,18 ok!
  //   ... the schedule continues until no swap fits. Rather than chase
  // every step, pin the critical invariants the text specifies:
  const std::vector<double> vars = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  auto layout = SubspaceLayout::Uniform(9, 3);
  ASSERT_TRUE(layout.ok());
  const BalanceResult result = PartialBalance(vars, *layout);
  // First PC of the first subspace stays in place.
  EXPECT_EQ(result.permutation[0], 0u);
  // The first swap of the schedule (8 <-> worst of subspace 2) happened.
  EXPECT_NE(result.permuted_variances[1], 8.0);
  // Global ordering preserved.
  const auto sums = layout->SubspaceVariances(result.permuted_variances);
  EXPECT_TRUE(SubspaceLayout::IsImportanceSorted(sums));
  // Balancing strictly reduced the leading gap.
  const auto before = layout->SubspaceVariances(vars);
  EXPECT_LT(sums[0] - sums[2], before[0] - before[2]);
}

TEST(AllocationGoldenTest, TextbookRateAllocation) {
  // Two subspaces with a 4:1 variance ratio and an 8-bit budget:
  // y_i = theta + 0.5*log2(V_i): difference = 0.5*log2(4) = 1 bit.
  // Budget 8 -> ideal (4.5, 3.5); largest-remainder floors to (4, 3) and
  // the leftover bit goes to the larger fractional part — an exact tie
  // here, deterministically resolved to subspace 1 -> (4, 4).
  AllocationOptions opts;
  opts.total_bits = 8;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits({4.0, 1.0}, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0] + (*alloc)[1], 8);
  EXPECT_EQ((*alloc)[0], 4);
  EXPECT_EQ((*alloc)[1], 4);
}

TEST(AllocationGoldenTest, SixteenToOneRatioGivesTwoBitGap) {
  // 0.5*log2(16) = 2 bits of separation at an even budget.
  AllocationOptions opts;
  opts.total_bits = 10;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits({16.0, 1.0}, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 6);
  EXPECT_EQ((*alloc)[1], 4);
}

TEST(AllocationGoldenTest, ClampAtMaxRedistributesToTail) {
  // Dominant subspace saturates at max_bits; the excess flows down.
  AllocationOptions opts;
  opts.total_bits = 12;
  opts.min_bits = 1;
  opts.max_bits = 6;
  auto alloc = AllocateBits({1e6, 1.0, 1.0}, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 6);                // clamped
  EXPECT_EQ((*alloc)[1] + (*alloc)[2], 6);  // remainder split
  EXPECT_EQ((*alloc)[1], (*alloc)[2]);      // equal variances
}

TEST(AllocationGoldenTest, PaperConfiguration32Subspaces) {
  // The paper's configuration (m = 32, B = 256, bits in [1, 13]) over a
  // geometric spectrum 0.85^i; recorded when the allocation still went
  // through a MILP whose only feasible point was this water-filling.
  std::vector<double> vars(32);
  for (size_t i = 0; i < vars.size(); ++i) {
    vars[i] = std::pow(0.85, static_cast<double>(i));
  }
  AllocationOptions opts;
  opts.total_bits = 256;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = AllocateBits(vars, opts);
  ASSERT_TRUE(alloc.ok());
  const std::vector<int> expected = {10, 10, 10, 9, 9, 9, 9, 9, 9, 9, 9,
                                     9,  8,  8,  8, 8, 8, 8, 8, 8, 7, 7,
                                     7,  7,  7,  7, 7, 7, 7, 6, 6, 6};
  EXPECT_EQ(*alloc, expected);
}

}  // namespace
}  // namespace vaq
