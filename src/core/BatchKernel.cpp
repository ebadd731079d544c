//===- core/BatchKernel.cpp - SoA batch kernel primitives --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The SIMD implementations are compiled per-function with
// __attribute__((target(...))) behind a runtime __builtin_cpu_supports
// check, so one binary carries every path and a host without the
// instruction set never executes it. The check runs once, before main():
// it picks one BatchKernels table, and setBatchBackend() swaps the table,
// so a call pays no backend test. -DOPD_DISABLE_SIMD=ON (or a non-x86
// target, or an unknown compiler) compiles the SIMD bodies out entirely
// and only the portable table remains.
//
// Exactness of the SIMD min-sum sweeps (the only primitive that computes
// rather than searches): batchMinSum admits them only when NCW < 2^32
// and NTW < 2^32. Each roster count is a uint32_t, so every product
// cw_i*NTW and tw_i*NCW is an exact 32x32->64 widening multiply
// (vpmuludq of an interleaved-pair lane, or for the split form of a
// zero-extended mod-2^32 difference, by a <2^32 total), and the whole
// sum is bounded by sum_i cw_i*NTW = NCW*NTW < 2^64 — every per-lane
// partial sum is a subset of those non-negative terms, so no addition
// wraps and lane order cannot matter. Totals at or above 2^32 (an
// adaptive TW on a trace of 2^32 or more elements) take the portable
// loop, which wraps mod 2^64 in exactly the reference kernel's
// order-invariant way. The bodies read whole blocks of MinSumBlock
// slots; a pad slot's zero counts make its term zero.
//
//===----------------------------------------------------------------------===//

#include "core/BatchKernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && !defined(OPD_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define OPD_BATCH_X86 1
// GCC 12 reports its own AVX-512 intrinsics' deliberately undefined
// pass-through operands (_mm512_undefined_epi32) as uninitialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#define OPD_BATCH_X86 0
#endif

using namespace opd;

namespace {

#if OPD_BATCH_X86

/// The tw operand of pair block \p I (four pairs from \p V) in the even
/// 32-bit lanes: the odd lanes of \p V shifted down, or (\p Split) four
/// differences \p Left - \p Prefix, taken mod 2^32 and widened.
template <bool Split>
__attribute__((target("avx2"))) inline __m256i
twLanesAVX2(__m256i V, const uint32_t *Left, const uint32_t *Prefix,
            size_t I) {
  if constexpr (Split)
    return _mm256_cvtepu32_epi64(_mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Left + I)),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Prefix + I))));
  else
    return _mm256_srli_epi64(V, 32);
}

/// The min-sum over \p N slots (whole blocks) with cw counts in the even
/// lanes of \p Pairs and tw counts in their odd lanes, or (\p Split)
/// densely as \p Left - \p Prefix.
template <bool Split>
__attribute__((target("avx2"))) uint64_t
minSumAVX2(const uint32_t *Pairs, const uint32_t *Left,
           const uint32_t *Prefix, size_t N, uint64_t NCW, uint64_t NTW) {
  // One 256-bit load covers four interleaved (cw, tw) pairs: the cw
  // counts sit in the even 32-bit lanes — the operand form
  // _mm256_mul_epu32 consumes directly — and a 32-bit lane shift brings
  // the tw counts down for the mirror product. Both totals are < 2^32
  // (dispatcher guard), so the lane products are exact.
  const __m256i VNTW = _mm256_set1_epi64x(static_cast<long long>(NTW));
  const __m256i VNCW = _mm256_set1_epi64x(static_cast<long long>(NCW));
  __m256i Acc0 = _mm256_setzero_si256();
  __m256i Acc1 = _mm256_setzero_si256();
  if ((NCW * NTW) >> 63 == 0) {
    // Every product is at most NCW*NTW < 2^63, so the signed 64-bit lane
    // compare already orders them correctly — no sign-flip needed. This
    // covers every bundled sweep preset (widest product about 2^43); two
    // accumulators split the loop-carried add dependency.
    for (size_t I = 0; I != N; I += 8) {
      __m256i V0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I));
      __m256i V1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I + 8));
      __m256i A0 = _mm256_mul_epu32(V0, VNTW);
      __m256i B0 =
          _mm256_mul_epu32(twLanesAVX2<Split>(V0, Left, Prefix, I), VNCW);
      __m256i A1 = _mm256_mul_epu32(V1, VNTW);
      __m256i B1 = _mm256_mul_epu32(
          twLanesAVX2<Split>(V1, Left, Prefix, I + 4), VNCW);
      Acc0 = _mm256_add_epi64(
          Acc0, _mm256_blendv_epi8(A0, B0, _mm256_cmpgt_epi64(A0, B0)));
      Acc1 = _mm256_add_epi64(
          Acc1, _mm256_blendv_epi8(A1, B1, _mm256_cmpgt_epi64(A1, B1)));
    }
  } else {
    // Products may reach [2^63, 2^64): XORing both compare operands with
    // the sign bit maps unsigned order onto the signed lane compare.
    const __m256i SignFlip =
        _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
    for (size_t I = 0; I != N; I += 4) {
      __m256i V = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I));
      __m256i A = _mm256_mul_epu32(V, VNTW);
      __m256i B =
          _mm256_mul_epu32(twLanesAVX2<Split>(V, Left, Prefix, I), VNCW);
      __m256i AGtB = _mm256_cmpgt_epi64(_mm256_xor_si256(A, SignFlip),
                                        _mm256_xor_si256(B, SignFlip));
      Acc0 = _mm256_add_epi64(Acc0, _mm256_blendv_epi8(A, B, AGtB));
    }
  }
  __m256i Acc = _mm256_add_epi64(Acc0, Acc1);
  __m128i Fold = _mm_add_epi64(_mm256_castsi256_si128(Acc),
                               _mm256_extracti128_si256(Acc, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(Fold)) +
         static_cast<uint64_t>(_mm_extract_epi64(Fold, 1));
}

__attribute__((target("avx2"))) uint64_t
minSumPlainAVX2(const uint32_t *Pairs, size_t N, uint64_t NCW,
                uint64_t NTW) {
  return minSumAVX2<false>(Pairs, nullptr, nullptr, N, NCW, NTW);
}

__attribute__((target("avx2"))) uint64_t
minSumSplitAVX2(const uint32_t *CWPairs, const uint32_t *Left,
                const uint32_t *Prefix, size_t N, uint64_t NCW,
                uint64_t NTW) {
  return minSumAVX2<true>(CWPairs, Left, Prefix, N, NCW, NTW);
}

/// minSumAVX2 one 512-bit block (eight pairs) at a time. AVX-512 has an
/// unsigned 64-bit lane minimum (vpminuq), so every product range takes
/// the one loop, without minSumAVX2's sign flip.
template <bool Split>
__attribute__((target("avx2,avx512f,avx512vl"))) uint64_t
minSumAVX512(const uint32_t *Pairs, const uint32_t *Left,
             const uint32_t *Prefix, size_t N, uint64_t NCW, uint64_t NTW) {
  const __m512i VNTW = _mm512_set1_epi64(static_cast<long long>(NTW));
  const __m512i VNCW = _mm512_set1_epi64(static_cast<long long>(NCW));
  __m512i Acc = _mm512_setzero_si512();
  for (size_t I = 0; I != N; I += MinSumBlock) {
    __m512i V = _mm512_loadu_si512(Pairs + 2 * I);
    __m512i TW;
    if constexpr (Split)
      TW = _mm512_cvtepu32_epi64(_mm256_sub_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Left + I)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Prefix + I))));
    else
      TW = _mm512_srli_epi64(V, 32);
    Acc = _mm512_add_epi64(Acc,
                           _mm512_min_epu64(_mm512_mul_epu32(V, VNTW),
                                            _mm512_mul_epu32(TW, VNCW)));
  }
  // Folded in vector lanes, which wrap: _mm512_reduce_add_epi64 adds in
  // signed scalars, where the mod-2^64 sum could overflow.
  __m256i Half = _mm256_add_epi64(_mm512_castsi512_si256(Acc),
                                  _mm512_extracti64x4_epi64(Acc, 1));
  __m128i Fold = _mm_add_epi64(_mm256_castsi256_si128(Half),
                               _mm256_extracti128_si256(Half, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(Fold)) +
         static_cast<uint64_t>(_mm_extract_epi64(Fold, 1));
}

__attribute__((target("avx2,avx512f,avx512vl"))) uint64_t
minSumPlainAVX512(const uint32_t *Pairs, size_t N, uint64_t NCW,
                  uint64_t NTW) {
  return minSumAVX512<false>(Pairs, nullptr, nullptr, N, NCW, NTW);
}

__attribute__((target("avx2,avx512f,avx512vl"))) uint64_t
minSumSplitAVX512(const uint32_t *CWPairs, const uint32_t *Left,
                  const uint32_t *Prefix, size_t N, uint64_t NCW,
                  uint64_t NTW) {
  return minSumAVX512<true>(CWPairs, Left, Prefix, N, NCW, NTW);
}

__attribute__((target("avx2"))) uint64_t
rightmostNoisyAVX2(const uint32_t *Counts, const SiteIndex *Elements,
                   uint64_t N) {
  const __m256i Zero = _mm256_setzero_si256();
  uint64_t I = N;
  // Scalar over the partial block at the top, then whole blocks of 8
  // descending (the scan wants the highest zero-count element).
  uint64_t Aligned = N & ~static_cast<uint64_t>(7);
  while (I > Aligned) {
    if (Counts[Elements[I - 1]] == 0)
      return I;
    --I;
  }
  while (I != 0) {
    I -= 8;
    __m256i Idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Elements + I));
    __m256i C = _mm256_i32gather_epi32(
        reinterpret_cast<const int *>(Counts), Idx, 4);
    unsigned Mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(C, Zero))));
    if (Mask != 0)
      return I + (32 - static_cast<unsigned>(__builtin_clz(Mask)));
  }
  return 0;
}

__attribute__((target("avx2"))) uint64_t
leftmostNonNoisyAVX2(const uint32_t *Counts, const SiteIndex *Elements,
                     uint64_t N) {
  const __m256i Zero = _mm256_setzero_si256();
  uint64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i Idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Elements + I));
    __m256i C = _mm256_i32gather_epi32(
        reinterpret_cast<const int *>(Counts), Idx, 4);
    unsigned NonZero = 0xFFu ^ static_cast<unsigned>(_mm256_movemask_ps(
                                  _mm256_castsi256_ps(
                                      _mm256_cmpeq_epi32(C, Zero))));
    if (NonZero != 0)
      return I + static_cast<unsigned>(__builtin_ctz(NonZero));
  }
  for (; I != N; ++I)
    if (Counts[Elements[I]] != 0)
      return I;
  return N;
}

constexpr BatchKernels AVX2Kernels{BatchBackend::AVX2, minSumPlainAVX2,
                                   minSumSplitAVX2, rightmostNoisyAVX2,
                                   leftmostNonNoisyAVX2};
constexpr BatchKernels AVX512Kernels{BatchBackend::AVX512, minSumPlainAVX512,
                                     minSumSplitAVX512, rightmostNoisyAVX2,
                                     leftmostNonNoisyAVX2};

bool cpuHasAVX2() { return __builtin_cpu_supports("avx2"); }

bool cpuHasAVX512() {
  return cpuHasAVX2() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl");
}

#else

bool cpuHasAVX2() { return false; }

bool cpuHasAVX512() { return false; }

#endif // OPD_BATCH_X86

constexpr BatchKernels PortableKernels{
    BatchBackend::Portable, batchMinSumPortable, batchMinSumSplitPortable,
    batchRightmostNoisyPortable, batchLeftmostNonNoisyPortable};

/// The table of \p B, which must be available.
const BatchKernels &kernelsOf(BatchBackend B) {
#if OPD_BATCH_X86
  if (B == BatchBackend::AVX512)
    return AVX512Kernels;
  if (B == BatchBackend::AVX2)
    return AVX2Kernels;
#endif
  (void)B;
  return PortableKernels;
}

/// The widest backend the CPU runs.
BatchBackend detectBackend() {
  if (cpuHasAVX512())
    return BatchBackend::AVX512;
  return cpuHasAVX2() ? BatchBackend::AVX2 : BatchBackend::Portable;
}

} // namespace

// Portable until the start-up check below picks the detected table. A
// batch call made during static initialization before that gets the
// portable bodies, which return the same values.
std::atomic<const BatchKernels *> opd::detail::ActiveBatchKernels{
    &PortableKernels};

namespace {
[[maybe_unused]] const bool BackendChosen = [] {
  detail::ActiveBatchKernels.store(
      &kernelsOf(
          batchBackendFromEnv(std::getenv("OPD_SIMD"), detectBackend())),
      std::memory_order_relaxed);
  return true;
}();
} // namespace

const char *opd::batchBackendName(BatchBackend B) {
  switch (B) {
  case BatchBackend::Portable:
    break;
  case BatchBackend::AVX2:
    return "avx2";
  case BatchBackend::AVX512:
    return "avx512";
  }
  return "portable";
}

bool opd::simdCompiledIn() { return OPD_BATCH_X86 != 0; }

bool opd::batchBackendAvailable(BatchBackend B) {
  switch (B) {
  case BatchBackend::Portable:
    break;
  case BatchBackend::AVX2:
    return cpuHasAVX2();
  case BatchBackend::AVX512:
    return cpuHasAVX512();
  }
  return true;
}

BatchBackend opd::batchBackendFromEnv(const char *Value,
                                      BatchBackend Detected) {
  if (Value == nullptr || *Value == '\0')
    return Detected;
  if (std::strcmp(Value, "off") == 0 || std::strcmp(Value, "portable") == 0 ||
      std::strcmp(Value, "0") == 0 || std::strcmp(Value, "scalar") == 0)
    return BatchBackend::Portable;
  return Detected;
}

bool opd::setBatchBackend(BatchBackend B) {
  bool Available = batchBackendAvailable(B);
  detail::ActiveBatchKernels.store(
      &kernelsOf(Available ? B : BatchBackend::Portable),
      std::memory_order_relaxed);
  return Available;
}

uint64_t opd::batchMinSumPortable(const uint32_t *Pairs, size_t N,
                                  uint64_t NCW, uint64_t NTW) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != N; ++I)
    Sum += std::min(Pairs[2 * I] * NTW, Pairs[2 * I + 1] * NCW);
  return Sum;
}

uint64_t opd::batchMinSumSplitPortable(const uint32_t *CWPairs,
                                       const uint32_t *Left,
                                       const uint32_t *Prefix, size_t N,
                                       uint64_t NCW, uint64_t NTW) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != N; ++I)
    Sum += std::min(CWPairs[2 * I] * NTW,
                    static_cast<uint32_t>(Left[I] - Prefix[I]) * NCW);
  return Sum;
}

uint64_t opd::batchRightmostNoisyPortable(const uint32_t *Counts,
                                          const SiteIndex *Elements,
                                          uint64_t N) {
  for (uint64_t I = N; I != 0; --I)
    if (Counts[Elements[I - 1]] == 0)
      return I;
  return 0;
}

uint64_t opd::batchLeftmostNonNoisyPortable(const uint32_t *Counts,
                                            const SiteIndex *Elements,
                                            uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    if (Counts[Elements[I]] != 0)
      return I;
  return N;
}
