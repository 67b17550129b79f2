// Budget planning: uses the adaptive bit allocator directly (no index) to
// show how VAQ splits an encoding budget across subspaces as the variance
// profile and budget change — the Section III-C machinery in isolation.
// Useful when sizing an index for a storage or latency target.
//
// Run: ./build/examples/budget_planning

#include <cstdio>

#include "core/allocation.h"
#include "datasets/synthetic.h"
#include "linalg/pca.h"

namespace {

/// Prints the allocation of `budget` bits over `subspace_vars`; returns
/// false when the allocator rejects the configuration.
bool PrintAllocation(const char* label,
                     const std::vector<double>& subspace_vars,
                     size_t budget) {
  vaq::AllocationOptions opts;
  opts.total_bits = budget;
  opts.min_bits = 1;
  opts.max_bits = 13;
  auto alloc = vaq::AllocateBits(subspace_vars, opts);
  if (!alloc.ok()) {
    std::printf("%-24s budget=%3zu  -> %s\n", label, budget,
                alloc.status().ToString().c_str());
    return false;
  }
  std::printf("%-24s budget=%3zu  bits:", label, budget);
  for (int b : *alloc) std::printf(" %2d", b);
  std::printf("\n");
  return true;
}

}  // namespace

int main() {
  using namespace vaq;

  // Synthetic variance profiles for 16 subspaces.
  auto profile = [](double decay) {
    std::vector<double> vars(16);
    double v = 1.0;
    for (auto& var : vars) {
      var = v;
      v *= decay;
    }
    return vars;
  };

  bool ok = true;
  std::printf("== Hand-crafted variance profiles ==\n");
  for (size_t budget : {32, 64, 128, 192}) {
    ok &= PrintAllocation("uniform profile", profile(1.0), budget);
    ok &= PrintAllocation("mild skew (0.9)", profile(0.9), budget);
    ok &= PrintAllocation("strong skew (0.6)", profile(0.6), budget);
    std::printf("\n");
  }

  // Real profile measured from data: run PCA on a seismic-like workload
  // and feed the per-subspace eigenvalue energy into the allocator.
  std::printf("== Measured profile (SEISMIC-like, 16 subspaces) ==\n");
  const FloatMatrix data =
      GenerateSynthetic(SyntheticKind::kSeismicLike, 5000, 3);
  Pca pca;
  if (!pca.Fit(data).ok()) return 1;
  const auto ratio = pca.ExplainedVarianceRatio();
  const size_t per = ratio.size() / 16;
  std::vector<double> measured(16, 0.0);
  for (size_t s = 0; s < 16; ++s) {
    for (size_t j = 0; j < per; ++j) measured[s] += ratio[s * per + j];
  }
  for (size_t budget : {64, 128, 208}) {
    ok &= PrintAllocation("seismic eigen-profile", measured, budget);
  }

  std::printf(
      "\nReading the rows: with skewed profiles VAQ gives leading\n"
      "subspaces up to 13 bits (8192-entry dictionaries) and trailing\n"
      "ones as little as 1 bit, while a PQ/OPQ layout would force the\n"
      "same size everywhere.\n");
  return ok ? 0 : 1;
}
