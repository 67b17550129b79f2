// AVX2 kernel table: ADC accumulation and the span-4 codeword kernels.
// This is the only translation unit compiled with -mavx2 (see
// src/core/CMakeLists.txt); callers reach it through the runtime dispatch
// in scan.cc, so the binary stays safe on CPUs without AVX2.
//
// The accumulation kernel is gather-bound: for each subspace stripe it
// widens 8 uint16 codes to lane indices, gathers 8 LUT floats, and adds
// them into 8 register-resident accumulators covering the 64-row block.
// Each lane adds its subspaces in ascending order — the same float
// addition sequence as the scalar kernel — so the sums are bit-identical,
// not just close.
//
// The span-4 kernels read 8 row-major codewords, transpose them in
// registers and sum the squared differences as ((d0² + d1²) + d2²) + d3²,
// SquaredL2's order, so every lookup-table entry and every chosen code
// equals the scalar kernel's. The file is deliberately built without
// -mfma: GCC contracts a*b + c into a fused multiply-add wherever the ISA
// allows (-ffp-contract=fast), and its single rounding would change the
// low bits of these sums against the scalar kernel.

#include <cstddef>
#include <cstdint>
#include <limits>

#if !defined(__AVX2__)
#error "scan_avx2.cc must be compiled with -mavx2 (src/core/CMakeLists.txt)"
#endif

#include <immintrin.h>

#include <algorithm>

#include "core/scan.h"

namespace vaq {
namespace internal {

void Avx2Accumulate(const uint16_t* block, const float* lut,
                    const uint32_t* lut_offsets, size_t s_begin, size_t s_end,
                    float* acc) {
  static_assert(kScanBlockSize == 64,
                "kernel unrolls 8 vectors of 8 lanes per block");
  __m256 a0 = _mm256_loadu_ps(acc + 0);
  __m256 a1 = _mm256_loadu_ps(acc + 8);
  __m256 a2 = _mm256_loadu_ps(acc + 16);
  __m256 a3 = _mm256_loadu_ps(acc + 24);
  __m256 a4 = _mm256_loadu_ps(acc + 32);
  __m256 a5 = _mm256_loadu_ps(acc + 40);
  __m256 a6 = _mm256_loadu_ps(acc + 48);
  __m256 a7 = _mm256_loadu_ps(acc + 56);
  for (size_t s = s_begin; s < s_end; ++s) {
    const float* base = lut + lut_offsets[s];
    const uint16_t* codes = block + s * kScanBlockSize;
    // reinterpret_cast to const __m128i* is the documented calling
    // convention of _mm_loadu_si128 — Intel defines the intrinsic to
    // perform an unaligned, aliasing-safe 128-bit load, so this is the
    // one place the codebase's no-reinterpret_cast rule does not apply
    // (everything else goes through common/io.h LoadAs/StoreAs). A
    // memcpy into a __m128i would be equivalent but obscures that the
    // pointer never converts to an lvalue of the wrong type.
    // NOLINTBEGIN(cppcoreguidelines-pro-type-reinterpret-cast)
    const __m128i c0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 0));
    const __m128i c1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 8));
    const __m128i c2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 16));
    const __m128i c3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 24));
    const __m128i c4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 32));
    const __m128i c5 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 40));
    const __m128i c6 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 48));
    const __m128i c7 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + 56));
    // NOLINTEND(cppcoreguidelines-pro-type-reinterpret-cast)
    a0 = _mm256_add_ps(
        a0, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c0), 4));
    a1 = _mm256_add_ps(
        a1, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c1), 4));
    a2 = _mm256_add_ps(
        a2, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c2), 4));
    a3 = _mm256_add_ps(
        a3, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c3), 4));
    a4 = _mm256_add_ps(
        a4, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c4), 4));
    a5 = _mm256_add_ps(
        a5, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c5), 4));
    a6 = _mm256_add_ps(
        a6, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c6), 4));
    a7 = _mm256_add_ps(
        a7, _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c7), 4));
  }
  _mm256_storeu_ps(acc + 0, a0);
  _mm256_storeu_ps(acc + 8, a1);
  _mm256_storeu_ps(acc + 16, a2);
  _mm256_storeu_ps(acc + 24, a3);
  _mm256_storeu_ps(acc + 32, a4);
  _mm256_storeu_ps(acc + 40, a5);
  _mm256_storeu_ps(acc + 48, a6);
  _mm256_storeu_ps(acc + 56, a7);
}

namespace {

/// Squared distances from `q` (one 4-float query span in both 128-bit
/// halves) to the 8 codewords at `rows` (row-major, 32 floats), in
/// codeword order.
inline __m256 Span4Distances8(__m256 q, const float* rows) {
  // Codeword pairs (c, c + 4): after the transpose lane j of the low half
  // is codeword j and lane j of the high half codeword j + 4.
  const __m256 d0 = _mm256_sub_ps(q, _mm256_loadu2_m128(rows + 16, rows + 0));
  const __m256 d1 = _mm256_sub_ps(q, _mm256_loadu2_m128(rows + 20, rows + 4));
  const __m256 d2 = _mm256_sub_ps(q, _mm256_loadu2_m128(rows + 24, rows + 8));
  const __m256 d3 =
      _mm256_sub_ps(q, _mm256_loadu2_m128(rows + 28, rows + 12));
  const __m256 s0 = _mm256_mul_ps(d0, d0);
  const __m256 s1 = _mm256_mul_ps(d1, d1);
  const __m256 s2 = _mm256_mul_ps(d2, d2);
  const __m256 s3 = _mm256_mul_ps(d3, d3);
  // 4x4 transpose within each 128-bit half: dim k of the four codewords.
  const __m256 t0 = _mm256_unpacklo_ps(s0, s1);
  const __m256 t1 = _mm256_unpacklo_ps(s2, s3);
  const __m256 t2 = _mm256_unpackhi_ps(s0, s1);
  const __m256 t3 = _mm256_unpackhi_ps(s2, s3);
  const __m256 dim0 = _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 dim1 = _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 dim2 = _mm256_shuffle_ps(t2, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 dim3 = _mm256_shuffle_ps(t2, t3, _MM_SHUFFLE(3, 2, 3, 2));
  return _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(dim0, dim1), dim2), dim3);
}

/// The query span broadcast to both 128-bit halves.
inline __m256 LoadSpan4Query(const float* query) {
  const __m128 q = _mm_loadu_ps(query);
  return _mm256_set_m128(q, q);
}

/// Distances to the last `count` < 8 codewords at `rows`, through a
/// zero-padded copy; entries past `count` of `out` are padding.
inline void Span4DistancesTail(__m256 q, const float* rows, size_t count,
                               float* out) {
  float padded[32] = {};
  std::copy_n(rows, 4 * count, padded);
  _mm256_storeu_ps(out, Span4Distances8(q, padded));
}

}  // namespace

void Avx2Span4Distances(const float* query, const float* rows, size_t count,
                        float* out) {
  const __m256 q = LoadSpan4Query(query);
  size_t c = 0;
  for (; c + 8 <= count; c += 8) {
    _mm256_storeu_ps(out + c, Span4Distances8(q, rows + 4 * c));
  }
  if (c < count) {
    float tail[8];
    Span4DistancesTail(q, rows + 4 * c, count - c, tail);
    std::copy_n(tail, count - c, out + c);
  }
}

uint32_t Avx2Span4Nearest(const float* query, const float* rows,
                          size_t count) {
  const __m256 q = LoadSpan4Query(query);
  // Lane j scans codewords j, j + 8, ... and keeps its first strict
  // minimum; an untouched lane keeps (FLT_MAX, 0), the scalar default.
  __m256 best = _mm256_set1_ps(std::numeric_limits<float>::max());
  __m256i best_idx = _mm256_setzero_si256();
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  size_t c = 0;
  for (; c + 8 <= count; c += 8) {
    const __m256 dist = Span4Distances8(q, rows + 4 * c);
    const __m256 lt = _mm256_cmp_ps(dist, best, _CMP_LT_OQ);
    best = _mm256_blendv_ps(best, dist, lt);
    best_idx = _mm256_blendv_epi8(best_idx, idx, _mm256_castps_si256(lt));
    idx = _mm256_add_epi32(idx, step);
  }
  // The smallest lane minimum, ties to the lowest index: the first
  // minimum over all codewords scanned so far.
  alignas(32) float lane_best[8];
  alignas(32) uint32_t lane_idx[8];
  _mm256_store_ps(lane_best, best);
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_idx), best_idx);
  float best_dist = std::numeric_limits<float>::max();
  uint32_t best_c = 0;
  for (size_t j = 0; j < 8; ++j) {
    if (lane_best[j] < best_dist ||
        (lane_best[j] == best_dist && lane_idx[j] < best_c)) {
      best_dist = lane_best[j];
      best_c = lane_idx[j];
    }
  }
  // The tail's indices exceed every scanned one, so strict < keeps the
  // first minimum.
  if (c < count) {
    float tail[8];
    Span4DistancesTail(q, rows + 4 * c, count - c, tail);
    for (size_t j = 0; j < count - c; ++j) {
      if (tail[j] < best_dist) {
        best_dist = tail[j];
        best_c = static_cast<uint32_t>(c + j);
      }
    }
  }
  return best_c;
}

}  // namespace internal
}  // namespace vaq
