// AVX2 ADC accumulation kernel. This is the only translation unit compiled
// with -mavx2 (see src/core/CMakeLists.txt); callers reach it through the
// runtime dispatch in scan.cc, so the binary stays safe on CPUs without
// AVX2. The kernel is gather-bound: for each subspace stripe it widens 8
// uint16 codes to lane indices, gathers 8 LUT floats, and adds them into 8
// register-resident accumulators covering the 64-row block. Each lane adds
// its subspaces in ascending order — the same float addition sequence as
// the scalar kernel — so the sums are bit-identical, not just close.

#include <cstddef>
#include <cstdint>

#if !defined(__AVX2__)
#error "scan_avx2.cc must be compiled with -mavx2 (src/core/CMakeLists.txt)"
#endif

#include <immintrin.h>

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

}  // namespace internal
}  // namespace vaq
