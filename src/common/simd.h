// Runtime-dispatched SIMD tier + bulk float primitives.
//
// The warm hot loop is dominated by dense float work: fused optimizer
// updates (see mlkv/optimizer_kernels.h), gradient accumulation in the
// trainers, and row materialization on the serving path. This header is
// the single place that decides which instruction set that work runs on:
//
//   - AVX2+FMA on x86-64 when the CPU reports both (runtime check; the
//     binary stays baseline-x86-64 so one build runs everywhere),
//   - NEON on aarch64 (baseline there, no runtime check needed),
//   - the portable scalar loops otherwise.
//
// Setting MLKV_FORCE_SCALAR=1 in the environment pins the scalar tier —
// CI runs the unit suite once per dispatch mode, and the parity tests in
// tests/simd_kernels_test.cc compare the tiers directly in one process.
//
// The vector bodies live behind per-function `target("avx2,fma")`
// attributes rather than global -mavx2 flags, so only these functions may
// emit AVX2 instructions and the feature check in DetectKernelTier() is
// the only gate they sit behind.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MLKV_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define MLKV_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace mlkv::simd {

// Exposition-stable: the value of the mlkv_simd_kernel_tier gauge that
// /metrics and kStats serve, so values must not be renumbered.
enum class KernelTier : uint8_t {
  kScalar = 0,
  kAvx2Fma = 1,
  kNeon = 2,
};

inline const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2Fma:
      return "avx2+fma";
    case KernelTier::kNeon:
      return "neon";
  }
  return "unknown";
}

// Pure detection: environment override first, then CPU features. Exposed
// (rather than only the cached ActiveKernelTier) so tests can exercise
// the override logic after the process-wide choice is frozen.
inline KernelTier DetectKernelTier() {
  const char* force = std::getenv("MLKV_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && !(force[0] == '0' && force[1] == '\0')) {
    return KernelTier::kScalar;
  }
#if MLKV_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return KernelTier::kAvx2Fma;
  }
#elif MLKV_SIMD_NEON
  return KernelTier::kNeon;
#endif
  return KernelTier::kScalar;
}

// The process-wide tier, resolved once on first use. Everything below and
// the optimizer kernels dispatch on this.
inline KernelTier ActiveKernelTier() {
  static const KernelTier tier = DetectKernelTier();
  return tier;
}

// ---------------------------------------------------------------------------
// Bulk float primitives. These are the one audited copy/accumulate path:
// trainers, backends, and the serving tier route their row-sized loops
// through here instead of open-coded memcpy / per-float arithmetic.
// ---------------------------------------------------------------------------

// dst[0..n) = src[0..n). memcpy is already optimal (rep movsb / vector
// moves picked by libc); the wrapper exists so every row copy is findable
// and so callers stop reimplementing `n * sizeof(float)` arithmetic.
inline void CopyFloats(float* dst, const float* src, size_t n) {
  if (n == 0) return;  // empty spans may carry null data() — UB for memcpy
  std::memcpy(dst, src, n * sizeof(float));
}

#if MLKV_SIMD_X86
__attribute__((target("avx2,fma"))) inline void AccumulateFloatsAvx2(
    float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2,fma"))) inline void SubScaledAvx2(
    float* dst, const float* src, float a, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_fnmadd_ps(va, _mm256_loadu_ps(src + i),
                                               _mm256_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) dst[i] -= a * src[i];
}
#endif  // MLKV_SIMD_X86

// out[0..n) += sum over i < m of a[i * a_stride] * w[i * w_stride + 0..n):
// one output row of a dense matmul, as a combination of w's rows. Each
// output accumulates its terms in ascending i, one multiply then one add
// per term, and with `skip_zeros` a term whose a[i] is zero is skipped.
// This is the reference loop; the vector tier keeps that order per output,
// so every tier's result is bit-identical to it.
inline void AddRowCombinationScalar(float* out, const float* a,
                                    size_t a_stride, const float* w,
                                    size_t w_stride, size_t m, size_t n,
                                    bool skip_zeros) {
  for (size_t i = 0; i < m; ++i) {
    const float av = a[i * a_stride];
    if (skip_zeros && av == 0.0f) continue;
    const float* wr = w + i * w_stride;
    for (size_t c = 0; c < n; ++c) out[c] += av * wr[c];
  }
}

#if MLKV_SIMD_X86
// AVX2 without FMA on purpose: the compiler may not contract the multiply
// and add, which keeps the results bit-identical to the scalar loop. Four
// accumulators hold 32 outputs in registers across the whole i loop.
__attribute__((target("avx2"))) inline void AddRowCombinationAvx2(
    float* out, const float* a, size_t a_stride, const float* w,
    size_t w_stride, size_t m, size_t n, bool skip_zeros) {
  size_t c = 0;
  for (; c + 32 <= n; c += 32) {
    __m256 acc0 = _mm256_loadu_ps(out + c);
    __m256 acc1 = _mm256_loadu_ps(out + c + 8);
    __m256 acc2 = _mm256_loadu_ps(out + c + 16);
    __m256 acc3 = _mm256_loadu_ps(out + c + 24);
    for (size_t i = 0; i < m; ++i) {
      const float av = a[i * a_stride];
      if (skip_zeros && av == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(av);
      const float* wr = w + i * w_stride + c;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(wr)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(wr + 8)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(wr + 16)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(wr + 24)));
    }
    _mm256_storeu_ps(out + c, acc0);
    _mm256_storeu_ps(out + c + 8, acc1);
    _mm256_storeu_ps(out + c + 16, acc2);
    _mm256_storeu_ps(out + c + 24, acc3);
  }
  for (; c + 8 <= n; c += 8) {
    __m256 acc = _mm256_loadu_ps(out + c);
    for (size_t i = 0; i < m; ++i) {
      const float av = a[i * a_stride];
      if (skip_zeros && av == 0.0f) continue;
      const __m256 wv = _mm256_loadu_ps(w + i * w_stride + c);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), wv));
    }
    _mm256_storeu_ps(out + c, acc);
  }
  if (c < n) {
    AddRowCombinationScalar(out + c, a, a_stride, w + c, w_stride, m, n - c,
                            skip_zeros);
  }
}
#endif  // MLKV_SIMD_X86

#if MLKV_SIMD_NEON
inline void AccumulateFloatsNeon(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

inline void SubScaledNeon(float* dst, const float* src, float a, size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vfmsq_f32(vld1q_f32(dst + i), va, vld1q_f32(src + i)));
  }
  for (; i < n; ++i) dst[i] -= a * src[i];
}
#endif  // MLKV_SIMD_NEON

// dst[i] += src[i] for i in [0, n) — gradient accumulation for duplicate
// keys in a batch and for per-node aggregation in the trainers.
inline void AccumulateFloats(float* dst, const float* src, size_t n) {
  switch (ActiveKernelTier()) {
#if MLKV_SIMD_X86
    case KernelTier::kAvx2Fma:
      AccumulateFloatsAvx2(dst, src, n);
      return;
#endif
#if MLKV_SIMD_NEON
    case KernelTier::kNeon:
      AccumulateFloatsNeon(dst, src, n);
      return;
#endif
    default:
      break;
  }
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

// dst[i] -= a * src[i] for i in [0, n) — the dense SGD/axpy step used by
// the plain-Put training path and the legacy fixed-lr ApplyGradients.
inline void SubScaled(float* dst, const float* src, float a, size_t n) {
  switch (ActiveKernelTier()) {
#if MLKV_SIMD_X86
    case KernelTier::kAvx2Fma:
      SubScaledAvx2(dst, src, a, n);
      return;
#endif
#if MLKV_SIMD_NEON
    case KernelTier::kNeon:
      SubScaledNeon(dst, src, a, n);
      return;
#endif
    default:
      break;
  }
  for (size_t i = 0; i < n; ++i) dst[i] -= a * src[i];
}

// The dense-model matmul row (AddRowCombinationScalar above). NEON runs
// the scalar loop: no NEON body has been checked bit-identical to it.
inline void AddRowCombination(float* out, const float* a, size_t a_stride,
                              const float* w, size_t w_stride, size_t m,
                              size_t n, bool skip_zeros) {
#if MLKV_SIMD_X86
  if (ActiveKernelTier() == KernelTier::kAvx2Fma) {
    AddRowCombinationAvx2(out, a, a_stride, w, w_stride, m, n, skip_zeros);
    return;
  }
#endif
  AddRowCombinationScalar(out, a, a_stride, w, w_stride, m, n, skip_zeros);
}

}  // namespace mlkv::simd
