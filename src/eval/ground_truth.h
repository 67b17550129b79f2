#ifndef VAQ_EVAL_GROUND_TRUTH_H_
#define VAQ_EVAL_GROUND_TRUTH_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"

namespace vaq {

/// Exact k-NN under Euclidean distance by brute force, parallelized over
/// queries with ParallelFor (common/parallel.h). Distances returned are non-squared and the
/// lists are sorted ascending — the reference answers against which every
/// approximate method's Recall/MAP is measured.
///
/// `num_threads` == 0 picks the hardware concurrency.
Result<std::vector<std::vector<Neighbor>>> BruteForceKnn(
    const FloatMatrix& base, const FloatMatrix& queries, size_t k,
    size_t num_threads = 0);

/// Exact k-NN for a single query.
std::vector<Neighbor> BruteForceKnnSingle(const FloatMatrix& base,
                                          const float* query, size_t k);

}  // namespace vaq

#endif  // VAQ_EVAL_GROUND_TRUTH_H_
