#include "core/codebook.h"

#include <cmath>
#include <limits>
#include <algorithm>
#include <vector>

#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "common/io.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "core/scan.h"

namespace vaq {
namespace {

/// Dictionaries larger than 2^this are trained by hierarchical k-means
/// (Section III-D: "beyond 2^10 entries").
constexpr int kHierarchicalThresholdBits = 10;

}  // namespace

Status VariableCodebooks::Train(const FloatMatrix& projected,
                                const SubspaceLayout& layout,
                                const std::vector<int>& bits,
                                const CodebookOptions& options) {
  if (projected.rows() == 0) {
    return Status::InvalidArgument("codebook training requires data");
  }
  if (projected.cols() != layout.dim()) {
    return Status::InvalidArgument("data width does not match layout");
  }
  if (bits.size() != layout.num_subspaces()) {
    return Status::InvalidArgument("bits vector must match subspace count");
  }
  for (int b : bits) {
    if (b < 1 || b > 16) {
      return Status::InvalidArgument("bits per subspace must be in [1, 16]");
    }
  }

  layout_ = layout;
  bits_ = bits;
  centroids_.clear();
  centroids_.reserve(bits.size());

  for (size_t s = 0; s < layout.num_subspaces(); ++s) {
    const SubspaceSpan& span = layout.span(s);
    const FloatMatrix sub = projected.SliceColumns(span.offset, span.length);
    const size_t k = size_t{1} << bits[s];
    if (bits[s] > kHierarchicalThresholdBits) {
      HierarchicalKMeansOptions hopts;
      hopts.k = k;
      hopts.coarse_k = 64;
      hopts.max_iters = options.kmeans_iters;
      hopts.seed = options.seed + 31 * s;
      auto centroids = HierarchicalKMeans(sub, hopts);
      if (!centroids.ok()) return centroids.status();
      centroids_.push_back(std::move(*centroids));
    } else {
      KMeans km;
      KMeansOptions kopts;
      kopts.k = k;
      kopts.max_iters = options.kmeans_iters;
      kopts.seed = options.seed + 31 * s;
      VAQ_RETURN_IF_ERROR(km.Train(sub, kopts));
      centroids_.push_back(km.centroids());
    }
  }

  ComputeLutOffsets();
  trained_ = true;
  return Status::OK();
}

void VariableCodebooks::ComputeLutOffsets() {
  lut_offsets_.resize(bits_.size());
  lut_entries_ = 0;
  for (size_t s = 0; s < bits_.size(); ++s) {
    // A table past 2^32 entries wraps here; ValidateInvariants rejects it.
    lut_offsets_[s] = static_cast<uint32_t>(lut_entries_);
    lut_entries_ += size_t{1} << bits_[s];
  }
}

void VariableCodebooks::EncodeRow(const float* x, uint16_t* code) const {
  VAQ_DCHECK(trained_);
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    const SubspaceSpan& span = layout_.span(s);
    const FloatMatrix& dict = centroids_[s];
    const float* sub = x + span.offset;
    if (span.length == 4) {
      code[s] = static_cast<uint16_t>(
          kernel.span4_nearest(sub, dict.data(), dict.rows()));
      continue;
    }
    float best = std::numeric_limits<float>::max();
    uint16_t best_code = 0;
    for (size_t c = 0; c < dict.rows(); ++c) {
      const float dist = SquaredL2(sub, dict.row(c), span.length);
      if (dist < best) {
        best = dist;
        best_code = static_cast<uint16_t>(c);
      }
    }
    code[s] = best_code;
  }
}

Result<CodeMatrix> VariableCodebooks::Encode(const FloatMatrix& data,
                                             size_t num_threads) const {
  if (!trained_) return Status::FailedPrecondition("codebooks not trained");
  if (data.cols() != dim()) {
    return Status::InvalidArgument("data width does not match codebooks");
  }
  CodeMatrix codes(data.rows(), num_subspaces());
  ParallelFor(data.rows(), num_threads, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) EncodeRow(data.row(r), codes.row(r));
  });
  return codes;
}

void VariableCodebooks::DecodeRow(const uint16_t* code, float* out) const {
  VAQ_DCHECK(trained_);
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    const SubspaceSpan& span = layout_.span(s);
    const float* centroid = centroids_[s].row(code[s]);
    for (size_t j = 0; j < span.length; ++j) {
      out[span.offset + j] = centroid[j];
    }
  }
}

void VariableCodebooks::BuildLookupTable(const float* query,
                                         std::vector<float>* lut,
                                         size_t prefix_subspaces) const {
  VAQ_DCHECK(trained_);
  lut->resize(lut_entries_);
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  const size_t end = std::min(prefix_subspaces, layout_.num_subspaces());
  for (size_t s = 0; s < end; ++s) {
    const SubspaceSpan& span = layout_.span(s);
    const FloatMatrix& dict = centroids_[s];
    const float* sub = query + span.offset;
    float* block = lut->data() + lut_offsets_[s];
    if (span.length == 4) {
      kernel.span4_distances(sub, dict.data(), dict.rows(), block);
      continue;
    }
    for (size_t c = 0; c < dict.rows(); ++c) {
      block[c] = SquaredL2(sub, dict.row(c), span.length);
    }
  }
}

float VariableCodebooks::AdcDistance(const uint16_t* code,
                                     const float* lut) const {
  float acc = 0.f;
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    acc += lut[lut_offsets_[s] + code[s]];
  }
  return acc;
}

Result<VariableCodebooks::SdcTables> VariableCodebooks::BuildSdcTables()
    const {
  if (!trained_) return Status::FailedPrecondition("codebooks not trained");
  for (int b : bits_) {
    if (b > 12) {
      return Status::InvalidArgument(
          "SDC tables above 12 bits per subspace are impractically large; "
          "use asymmetric distances instead");
    }
  }
  SdcTables sdc;
  sdc.tables.resize(num_subspaces());
  for (size_t s = 0; s < num_subspaces(); ++s) {
    const FloatMatrix& dict = centroids_[s];
    const size_t k = dict.rows();
    const size_t len = dict.cols();
    auto& table = sdc.tables[s];
    table.assign(k * k, 0.f);
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = a + 1; b < k; ++b) {
        const float dist = SquaredL2(dict.row(a), dict.row(b), len);
        table[a * k + b] = dist;
        table[b * k + a] = dist;
      }
    }
  }
  return sdc;
}

float VariableCodebooks::SdcDistance(const uint16_t* a, const uint16_t* b,
                                     const SdcTables& sdc) const {
  float acc = 0.f;
  for (size_t s = 0; s < num_subspaces(); ++s) {
    const size_t k = size_t{1} << bits_[s];
    acc += sdc.tables[s][static_cast<size_t>(a[s]) * k + b[s]];
  }
  return acc;
}

Result<double> VariableCodebooks::ReconstructionError(
    const FloatMatrix& data) const {
  if (!trained_) return Status::FailedPrecondition("codebooks not trained");
  if (data.cols() != dim()) {
    return Status::InvalidArgument("data width does not match codebooks");
  }
  std::vector<uint16_t> code(num_subspaces());
  std::vector<float> decoded(dim());
  double acc = 0.0;
  for (size_t r = 0; r < data.rows(); ++r) {
    EncodeRow(data.row(r), code.data());
    DecodeRow(code.data(), decoded.data());
    acc += SquaredL2(data.row(r), decoded.data(), dim());
  }
  return acc / static_cast<double>(data.rows());
}

void VariableCodebooks::Save(std::ostream& os) const {
  WritePod<uint8_t>(os, trained_ ? 1 : 0);
  WritePod<uint64_t>(os, layout_.num_subspaces());
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    WritePod<uint64_t>(os, layout_.span(s).offset);
    WritePod<uint64_t>(os, layout_.span(s).length);
  }
  WriteVector(os, std::vector<int32_t>(bits_.begin(), bits_.end()));
  for (const auto& c : centroids_) WriteMatrix(os, c);
}

Status VariableCodebooks::Load(std::istream& is) {
  uint8_t trained = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &trained));
  uint64_t m = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &m));
  // Each span costs 16 payload bytes; a seekable stream bounds the
  // plausible count so a corrupted header cannot drive a huge resize.
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0 && m > static_cast<uint64_t>(remaining) / 16) {
    return Status::IoError("subspace count exceeds remaining payload "
                           "(corrupted file?)");
  }
  // The SubspaceLayout constructor hard-aborts on malformed spans, so the
  // contiguity invariant must be checked here, on untrusted bytes.
  std::vector<SubspaceSpan> spans(m);
  uint64_t expect_offset = 0;
  for (auto& span : spans) {
    uint64_t offset = 0, length = 0;
    VAQ_RETURN_IF_ERROR(ReadPod(is, &offset));
    VAQ_RETURN_IF_ERROR(ReadPod(is, &length));
    if (offset != expect_offset || length == 0) {
      return Status::IoError("corrupted codebooks: subspace spans are not "
                             "contiguous");
    }
    expect_offset = offset + length;
    span.offset = offset;
    span.length = length;
  }
  std::vector<int32_t> bits32;
  VAQ_RETURN_IF_ERROR(ReadVector(is, &bits32));
  if (bits32.size() != m) {
    return Status::IoError("corrupted codebooks: bits count does not match "
                           "subspace count");
  }
  for (int32_t b : bits32) {
    if (b < 1 || b > 16) {
      return Status::IoError("corrupted codebooks: bits per subspace " +
                             std::to_string(b) + " outside [1, 16]");
    }
  }
  std::vector<FloatMatrix> centroids(m);
  for (size_t s = 0; s < m; ++s) {
    VAQ_RETURN_IF_ERROR(ReadMatrix(is, &centroids[s]));
    if (centroids[s].rows() != size_t{1} << bits32[s] ||
        centroids[s].cols() != spans[s].length) {
      return Status::IoError("corrupted codebooks: dictionary " +
                             std::to_string(s) +
                             " shape disagrees with its bits/span");
    }
  }
  // All bytes parsed and validated; commit the state.
  layout_ = SubspaceLayout(std::move(spans));
  bits_.assign(bits32.begin(), bits32.end());
  centroids_ = std::move(centroids);
  ComputeLutOffsets();
  trained_ = trained != 0;
  return Status::OK();
}

Status VariableCodebooks::ValidateInvariants() const {
  if (!trained_) {
    return Status::FailedPrecondition("codebooks are not trained");
  }
  const size_t m = layout_.num_subspaces();
  if (m == 0) return Status::Internal("codebooks have no subspaces");
  if (bits_.size() != m || centroids_.size() != m ||
      lut_offsets_.size() != m) {
    return Status::Internal("codebook state sizes disagree");
  }
  size_t entries = 0;
  for (size_t s = 0; s < m; ++s) {
    if (bits_[s] < 1 || bits_[s] > 16) {
      return Status::Internal("bits per subspace outside [1, 16]");
    }
    if (centroids_[s].rows() != size_t{1} << bits_[s] ||
        centroids_[s].cols() != layout_.span(s).length) {
      return Status::Internal("dictionary shape disagrees with bits/span");
    }
    if (lut_offsets_[s] != entries) {
      return Status::Internal("lookup-table offsets are inconsistent");
    }
    entries += size_t{1} << bits_[s];
    for (size_t i = 0; i < centroids_[s].size(); ++i) {
      if (!std::isfinite(centroids_[s].data()[i])) {
        return Status::Internal("dictionary contains non-finite values");
      }
    }
  }
  if (lut_entries_ != entries) {
    return Status::Internal("lookup-table entry count is inconsistent");
  }
  return Status::OK();
}

Status VariableCodebooks::ValidateCodes(const CodeMatrix& codes) const {
  const size_t m = num_subspaces();
  if (codes.cols() != m) {
    return Status::Internal("code width disagrees with subspace count");
  }
  for (size_t s = 0; s < m; ++s) {
    const uint16_t limit = static_cast<uint16_t>((size_t{1} << bits_[s]) - 1);
    for (size_t r = 0; r < codes.rows(); ++r) {
      if (codes.at(r, s) > limit) {
        return Status::Internal("stored code exceeds its dictionary size "
                                "(subspace " + std::to_string(s) + ")");
      }
    }
  }
  return Status::OK();
}

}  // namespace vaq
