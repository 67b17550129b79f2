#ifndef VAQ_CORE_ALLOCATION_H_
#define VAQ_CORE_ALLOCATION_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace vaq {

struct AllocationOptions {
  /// Total bit budget (C3: allocations sum to exactly this).
  size_t total_bits = 256;
  /// C2 bounds per subspace.
  size_t min_bits = 1;
  size_t max_bits = 13;
};

/// Adaptive subspace budget allocation (Section III-C, Algorithm 2).
///
/// The paper picks the bits y by maximizing W^T y (W: the normalized
/// subspace variances, sorted non-increasing) under C1-C4. Here C4 caps
/// every subspace at its share of the reverse water-filling allocation of
/// transform coding, y_i = theta + (1/2) log2(V_i), clamped to
/// [min_bits, max_bits] (C2), with the water level theta chosen so the
/// bits sum to exactly B (C3), then rounded by largest remainder and
/// sorted non-increasing. Those caps sum to B, so they are the program's
/// only feasible point, and this function computes that point directly.
/// C1 (a bit for every subspace of the leading variance prefix) is
/// implied by min_bits >= 1, which VaqEncoder requires.
///
/// Returns the bits per subspace, aligned with the importance-ordered
/// subspaces, or kInvalidArgument when the budget cannot satisfy the
/// bounds (B < m*min or B > m*max) or the variances are negative or not
/// non-increasing.
Result<std::vector<int>> AllocateBits(
    const std::vector<double>& subspace_variances,
    const AllocationOptions& options);

}  // namespace vaq

#endif  // VAQ_CORE_ALLOCATION_H_
