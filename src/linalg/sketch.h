#ifndef VAQ_LINALG_SKETCH_H_
#define VAQ_LINALG_SKETCH_H_

#include <cstddef>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

/// Frequent Directions matrix sketching (Liberty, KDD 2013) — the method
/// Section III-B cites for reducing VarPCA's cost on long streams: an
/// (l x d) sketch B of a row stream A guaranteeing
///   0 <= x^T (A^T A - B^T B) x <= ||A||_F^2 / (l/2)   for unit x,
/// so B^T B is a deterministic spectral surrogate for the covariance.
///
/// Rows are Append()ed one at a time; the shrink step runs every l rows
/// and costs O(l^2 d), i.e. amortized O(l d) per row — linear in the
/// stream length instead of the n d^2 covariance accumulation.
class FrequentDirections {
 public:
  /// `sketch_size` (l) rows are retained; the implementation buffers 2l.
  FrequentDirections(size_t dim, size_t sketch_size);

  size_t dim() const { return dim_; }
  size_t sketch_size() const { return sketch_size_; }

  /// Feeds one row of length dim().
  void Append(const float* row);

  /// Feeds every row of `data` (must have dim() columns).
  void AppendAll(const FloatMatrix& data);

  /// Final (l x d) sketch; shrinks any buffered rows first.
  const FloatMatrix& Finalize();

  /// Approximate covariance (1/n) B^T B of the appended rows (call after
  /// Finalize or let it finalize internally). Requires at least one
  /// appended row.
  Result<DoubleMatrix> ApproximateCovariance();

 private:
  void Shrink();

  size_t dim_;
  size_t sketch_size_;
  size_t rows_seen_ = 0;
  size_t filled_ = 0;       ///< occupied rows of buffer_
  FloatMatrix buffer_;      ///< (2l x d)
};

}  // namespace vaq

#endif  // VAQ_LINALG_SKETCH_H_
