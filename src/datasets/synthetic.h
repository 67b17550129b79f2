#ifndef VAQ_DATASETS_SYNTHETIC_H_
#define VAQ_DATASETS_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

/// Families of synthetic corpora standing in for the paper's five
/// large-scale datasets (see DESIGN.md §4). Each family reproduces the
/// statistical property VAQ exploits — the skew of the PCA eigenvalue
/// spectrum — at laptop scale:
///
///  * kSiftLike:    128-d local image descriptors; Gaussian mixture with a
///                  moderately skewed spectrum (alpha ~ 1).
///  * kDeepLike:    96-d CNN embeddings, L2-normalized, mild spectrum
///                  decay (the paper's DEEP is nearly whitened).
///  * kSaldLike:    128-long MRI-derived series; smooth random walks with
///                  strongly concentrated low-frequency energy.
///  * kSeismicLike: 256-long seismic recordings; random walks with
///                  transient high-frequency bursts.
///  * kAstroLike:   256-long celestial light curves; periodic components
///                  plus trends, very skewed spectrum.
enum class SyntheticKind {
  kSiftLike,
  kDeepLike,
  kSaldLike,
  kSeismicLike,
  kAstroLike,
};

/// Human-readable name ("SIFT-like", ...).
std::string SyntheticKindName(SyntheticKind kind);

/// Native dimensionality of the family (matches the paper's datasets).
size_t SyntheticKindDim(SyntheticKind kind);

/// Generates `count` vectors of the family. Deterministic in `seed`.
FloatMatrix GenerateSynthetic(SyntheticKind kind, size_t count,
                              uint64_t seed);

/// Generates a query workload for the family: GenerateSynthetic(kind,
/// count, seed ^ 0x9E3779B9) plus `noise` (fraction of the per-dimension
/// RMS of the queries) of additive Gaussian noise. The derived seed draws
/// a new mixture (its own centres and rotation), not fresh samples of the
/// mixture behind a corpus made with another seed, so these queries need
/// not lie near such a corpus. For queries from a corpus's own process,
/// generate `n + count` rows and hold out the last `count`.
FloatMatrix GenerateSyntheticQueries(SyntheticKind kind, size_t count,
                                     uint64_t seed, double noise = 0.1);

/// Z-normalizes every row in place (zero mean, unit variance; rows with
/// zero variance become all-zero). The UCR archive convention.
void ZNormalizeRows(FloatMatrix* data);

/// Low-level generator: X = centers[assignment] + G * diag(sqrt(spectrum))
/// * R, i.e. a Gaussian mixture whose within-cluster covariance has the
/// given eigen-spectrum (random orthonormal basis). Exposed for tests and
/// ablations that need precise spectrum control.
FloatMatrix GenerateSpectrumMixture(size_t count, size_t dim,
                                    const std::vector<double>& spectrum,
                                    size_t num_clusters, double cluster_scale,
                                    uint64_t seed);

/// Power-law spectrum lambda_i = (i+1)^-alpha, normalized to sum 1.
std::vector<double> PowerLawSpectrum(size_t dim, double alpha);

}  // namespace vaq

#endif  // VAQ_DATASETS_SYNTHETIC_H_
