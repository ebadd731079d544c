//===- core/BatchKernel.cpp - SoA batch kernel primitives --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The AVX2 implementations are compiled per-function with
// __attribute__((target("avx2"))) behind a runtime __builtin_cpu_supports
// dispatch, so one binary carries both paths and non-AVX2 hosts never
// execute a VEX instruction. -DOPD_DISABLE_SIMD=ON (or a non-x86 target,
// or an unknown compiler) compiles the AVX2 bodies out entirely and the
// dispatcher collapses to the portable loops.
//
// Exactness of the AVX2 min-sum sweep (the only primitive that computes
// rather than searches): the dispatcher admits it only when NCW < 2^32
// and NTW < 2^32. Each roster count is a uint32_t, so every product
// cw_i*NTW and tw_i*NCW is an exact 32x32->64 widening multiply
// (_mm256_mul_epu32 of an interleaved-pair lane by a <2^32 total), and
// the whole sum is bounded by sum_i cw_i*NTW = NCW*NTW < 2^64 — every
// per-lane partial sum is a subset of those non-negative terms, so no
// addition wraps and lane order cannot matter. Totals at or above 2^32
// (an adaptive TW on a trace of 2^32 or more elements) take the
// portable loop, which wraps mod 2^64 in exactly the reference kernel's
// order-invariant way.
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
#include <immintrin.h>
#else
#define OPD_BATCH_X86 0
#endif

using namespace opd;

namespace {

#if OPD_BATCH_X86

__attribute__((target("avx2"))) uint64_t
minSumAVX2(const uint32_t *Pairs, size_t N, uint64_t NCW, uint64_t NTW) {
  // One 256-bit load covers four interleaved (cw, tw) pairs: the cw
  // counts sit in the even 32-bit lanes — the operand form
  // _mm256_mul_epu32 consumes directly — and a 32-bit lane shift brings
  // the tw counts down for the mirror product. Both totals are < 2^32
  // (dispatcher guard), so the lane products are exact.
  const __m256i VNTW = _mm256_set1_epi64x(static_cast<long long>(NTW));
  const __m256i VNCW = _mm256_set1_epi64x(static_cast<long long>(NCW));
  __m256i Acc0 = _mm256_setzero_si256();
  __m256i Acc1 = _mm256_setzero_si256();
  size_t I = 0;
  if ((NCW * NTW) >> 63 == 0) {
    // Every product is at most NCW*NTW < 2^63, so the signed 64-bit lane
    // compare already orders them correctly — no sign-flip needed. This
    // covers every bundled sweep preset (widest product about 2^43); two
    // accumulators split the loop-carried add dependency.
    for (; I + 8 <= N; I += 8) {
      __m256i V0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I));
      __m256i V1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I + 8));
      __m256i A0 = _mm256_mul_epu32(V0, VNTW);
      __m256i B0 = _mm256_mul_epu32(_mm256_srli_epi64(V0, 32), VNCW);
      __m256i A1 = _mm256_mul_epu32(V1, VNTW);
      __m256i B1 = _mm256_mul_epu32(_mm256_srli_epi64(V1, 32), VNCW);
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
    for (; I + 4 <= N; I += 4) {
      __m256i V = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I));
      __m256i A = _mm256_mul_epu32(V, VNTW);
      __m256i B = _mm256_mul_epu32(_mm256_srli_epi64(V, 32), VNCW);
      __m256i AGtB = _mm256_cmpgt_epi64(_mm256_xor_si256(A, SignFlip),
                                        _mm256_xor_si256(B, SignFlip));
      Acc0 = _mm256_add_epi64(Acc0, _mm256_blendv_epi8(A, B, AGtB));
    }
  }
  __m256i Acc = _mm256_add_epi64(Acc0, Acc1);
  __m128i Fold = _mm_add_epi64(_mm256_castsi256_si128(Acc),
                               _mm256_extracti128_si256(Acc, 1));
  uint64_t Sum = static_cast<uint64_t>(_mm_cvtsi128_si64(Fold)) +
                 static_cast<uint64_t>(_mm_extract_epi64(Fold, 1));
  for (; I != N; ++I)
    Sum += std::min(Pairs[2 * I] * NTW, Pairs[2 * I + 1] * NCW);
  return Sum;
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

bool cpuHasAVX2() { return __builtin_cpu_supports("avx2"); }

#else

bool cpuHasAVX2() { return false; }

#endif // OPD_BATCH_X86

BatchBackend detectBackend() {
  BatchBackend Detected =
      cpuHasAVX2() ? BatchBackend::AVX2 : BatchBackend::Portable;
  return batchBackendFromEnv(std::getenv("OPD_SIMD"), Detected);
}

std::atomic<BatchBackend> &backendSlot() {
  static std::atomic<BatchBackend> Slot{detectBackend()};
  return Slot;
}

} // namespace

const char *opd::batchBackendName(BatchBackend B) {
  return B == BatchBackend::AVX2 ? "avx2" : "portable";
}

bool opd::simdCompiledIn() { return OPD_BATCH_X86 != 0; }

bool opd::simdAvailable() { return cpuHasAVX2(); }

BatchBackend opd::batchBackendFromEnv(const char *Value,
                                      BatchBackend Detected) {
  if (Value == nullptr || *Value == '\0')
    return Detected;
  if (std::strcmp(Value, "off") == 0 || std::strcmp(Value, "portable") == 0 ||
      std::strcmp(Value, "0") == 0 || std::strcmp(Value, "scalar") == 0)
    return BatchBackend::Portable;
  return Detected;
}

BatchBackend opd::activeBatchBackend() {
  return backendSlot().load(std::memory_order_relaxed);
}

bool opd::setBatchBackend(BatchBackend B) {
  if (B == BatchBackend::AVX2 && !simdAvailable()) {
    backendSlot().store(BatchBackend::Portable, std::memory_order_relaxed);
    return false;
  }
  backendSlot().store(B, std::memory_order_relaxed);
  return true;
}

uint64_t opd::batchMinSumPortable(const uint32_t *Pairs, size_t N,
                                  uint64_t NCW, uint64_t NTW) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != N; ++I)
    Sum += std::min(Pairs[2 * I] * NTW, Pairs[2 * I + 1] * NCW);
  return Sum;
}

uint64_t opd::batchMinSum(const uint32_t *Pairs, size_t N, uint64_t NCW,
                          uint64_t NTW) {
#if OPD_BATCH_X86
  if (activeBatchBackend() == BatchBackend::AVX2 && (NCW >> 32) == 0 &&
      (NTW >> 32) == 0)
    return minSumAVX2(Pairs, N, NCW, NTW);
#endif
  return batchMinSumPortable(Pairs, N, NCW, NTW);
}

uint64_t opd::batchRightmostNoisyPortable(const uint32_t *Counts,
                                          const SiteIndex *Elements,
                                          uint64_t N) {
  for (uint64_t I = N; I != 0; --I)
    if (Counts[Elements[I - 1]] == 0)
      return I;
  return 0;
}

uint64_t opd::batchRightmostNoisy(const uint32_t *Counts,
                                  const SiteIndex *Elements, uint64_t N) {
#if OPD_BATCH_X86
  if (activeBatchBackend() == BatchBackend::AVX2)
    return rightmostNoisyAVX2(Counts, Elements, N);
#endif
  return batchRightmostNoisyPortable(Counts, Elements, N);
}

uint64_t opd::batchLeftmostNonNoisyPortable(const uint32_t *Counts,
                                            const SiteIndex *Elements,
                                            uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    if (Counts[Elements[I]] != 0)
      return I;
  return N;
}

uint64_t opd::batchLeftmostNonNoisy(const uint32_t *Counts,
                                    const SiteIndex *Elements, uint64_t N) {
#if OPD_BATCH_X86
  if (activeBatchBackend() == BatchBackend::AVX2)
    return leftmostNonNoisyAVX2(Counts, Elements, N);
#endif
  return batchLeftmostNonNoisyPortable(Counts, Elements, N);
}
