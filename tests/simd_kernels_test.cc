// Parity suite for the vectorized kernel layer (common/simd.h,
// mlkv/optimizer_kernels.h): the AVX2/FMA (or NEON) tier must agree with
// the scalar reference for every optimizer kind across vector-width edge
// cases, tiers a build lacks must fall back to scalar bit-exactly, and the
// dense-model matmul rows must match the scalar loops bit-exactly.
//
// Tolerance policy. The vector tiers contract multiply+add into FMA
// (one rounding where the scalar reference rounds twice), so a single
// element of a single step can differ by a few ULP; sqrt and div add at
// most half an ULP each. Those per-step differences then feed back
// through the optimizer state, so they compound over steps. Two bounds
// capture that, and a comparison passes if EITHER holds:
//
//   - ULP distance (kSingleStepUlp / kMultiStepUlp): the right metric
//     for well-scaled values, roughly 10x the worst drift observed
//     across libms.
//   - An absolute floor (kAbsTol): accumulators like Adam's first
//     moment are weighted sums of same-scale gradients that can nearly
//     cancel, leaving a tiny result whose ~1e-8 absolute rounding noise
//     is thousands of ULP — relative error is meaningless there, the
//     absolute error is still bounded by per-step rounding (~lr * 2^-24
//     per step).
//
// Any actual kernel bug (a lane shuffle, a wrong tail bound, state read
// from the wrong slot) produces errors at the data's own scale (~0.1-1),
// orders of magnitude above both bounds, so the slack costs no
// detection power.
#include <gtest/gtest.h>
#include <algorithm>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/simd.h"
#include "ml/tensor.h"
#include "mlkv/optimizer.h"
#include "mlkv/optimizer_kernels.h"

namespace mlkv {
namespace {

constexpr int64_t kSingleStepUlp = 32;
constexpr int64_t kMultiStepUlp = 512;
constexpr float kAbsTol = 1e-6f;

// Vector-width edge cases: below/at/above the NEON (4) and AVX2 (8)
// widths, a mid-size dim with a tail (17), the common embedding dims
// (64), and a large odd dim whose tail exercises the last scalar loop.
constexpr uint32_t kDims[] = {1, 3, 7, 8, 17, 64, 127};

// The vector tier this build + CPU can actually run, independent of the
// MLKV_FORCE_SCALAR override — the parity tests exercise the vector code
// even when CI pins the process-wide dispatch to scalar.
simd::KernelTier VectorTier() {
#if MLKV_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return simd::KernelTier::kAvx2Fma;
  }
#elif MLKV_SIMD_NEON
  return simd::KernelTier::kNeon;
#endif
  return simd::KernelTier::kScalar;
}

// Maps a float onto a monotonically ordered integer line so ULP distance
// is a plain subtraction; +0.0 and -0.0 both map to 0.
int64_t OrderedKey(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i < 0 ? -static_cast<int64_t>(i & 0x7fffffff) : int64_t{i};
}

int64_t UlpDistance(float a, float b) {
  return std::abs(OrderedKey(a) - OrderedKey(b));
}

// The hybrid comparison from the tolerance policy above: close in ULP,
// or close in absolute terms (near-cancelled accumulators).
::testing::AssertionResult CloseEnough(float a, float b, int64_t max_ulp,
                                       float abs_tol) {
  if (UlpDistance(a, b) <= max_ulp || std::abs(a - b) <= abs_tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (ulp=" << UlpDistance(a, b)
         << ", abs=" << std::abs(a - b) << ")";
}

// Deterministic value stream (splitmix64-folded) in roughly [-1, 1].
float NextFloat(uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<float>(static_cast<int64_t>(z % 2000001) - 1000000) *
         1e-6f;
}

void Fill(std::vector<float>* v, uint64_t seed) {
  for (float& x : *v) x = NextFloat(&seed);
}

OptimizerConfig MakeConfig(OptimizerKind kind, float weight_decay) {
  OptimizerConfig cfg;
  cfg.kind = kind;
  cfg.lr = 0.05f;
  cfg.weight_decay = weight_decay;
  return cfg;
}

// Runs `steps` updates (fresh deterministic gradient per step) on both
// tiers from identical starting buffers and checks emb + state agree
// within `max_ulp` everywhere.
void ExpectParity(simd::KernelTier tier, const OptimizerConfig& cfg,
                  uint32_t dim, int steps, int64_t max_ulp) {
  const size_t state_n = OptimizerStateFloats(cfg.kind, dim);
  std::vector<float> emb_a(dim), emb_b(dim);
  std::vector<float> state_a(state_n, 0.0f), state_b(state_n, 0.0f);
  std::vector<float> grad(dim);
  Fill(&emb_a, 1 + dim);
  emb_b = emb_a;

  for (int step = 0; step < steps; ++step) {
    Fill(&grad, 1000 + dim * 131 + static_cast<uint64_t>(step));
    ApplyOptimizerUpdateScalar(cfg, dim, emb_a.data(),
                               state_n ? state_a.data() : nullptr, grad.data());
    ApplyOptimizerUpdateWithTier(tier, cfg, dim, emb_b.data(),
                                 state_n ? state_b.data() : nullptr,
                                 grad.data());
  }
  for (uint32_t d = 0; d < dim; ++d) {
    EXPECT_TRUE(CloseEnough(emb_a[d], emb_b[d], max_ulp, kAbsTol))
        << OptimizerKindName(cfg.kind) << " dim=" << dim << " emb[" << d
        << "]";
  }
  for (size_t i = 0; i < state_n; ++i) {
    EXPECT_TRUE(CloseEnough(state_a[i], state_b[i], max_ulp, kAbsTol))
        << OptimizerKindName(cfg.kind) << " dim=" << dim << " state[" << i
        << "]";
  }
}

constexpr OptimizerKind kKinds[] = {OptimizerKind::kSgd,
                                    OptimizerKind::kMomentum,
                                    OptimizerKind::kAdagrad,
                                    OptimizerKind::kAdam};

TEST(SimdKernelParityTest, SingleStepAllKindsAllDims) {
  const simd::KernelTier tier = VectorTier();
  for (OptimizerKind kind : kKinds) {
    for (uint32_t dim : kDims) {
      ExpectParity(tier, MakeConfig(kind, 0.0f), dim, 1, kSingleStepUlp);
    }
  }
}

TEST(SimdKernelParityTest, MultiStepAllKindsAllDims) {
  const simd::KernelTier tier = VectorTier();
  for (OptimizerKind kind : kKinds) {
    for (uint32_t dim : kDims) {
      ExpectParity(tier, MakeConfig(kind, 0.0f), dim, 8, kMultiStepUlp);
    }
  }
}

TEST(SimdKernelParityTest, WeightDecayAllKinds) {
  // Weight decay folds the embedding into the gradient (g += wd*w), which
  // the vector tiers compute with one extra FMA — the classic contraction
  // divergence, so it gets its own sweep.
  const simd::KernelTier tier = VectorTier();
  for (OptimizerKind kind : kKinds) {
    for (uint32_t dim : kDims) {
      ExpectParity(tier, MakeConfig(kind, 0.01f), dim, 8, kMultiStepUlp);
    }
  }
}

TEST(SimdKernelParityTest, AdamBiasCorrectionEarlySteps) {
  // Steps 1-3 are where the bias correction terms (1 - beta^t) are
  // smallest and the m_hat / v_hat amplification largest; a kernel that
  // mishandles the shared step counter diverges immediately here.
  const simd::KernelTier tier = VectorTier();
  const OptimizerConfig cfg = MakeConfig(OptimizerKind::kAdam, 0.0f);
  for (uint32_t dim : kDims) {
    for (int steps = 1; steps <= 3; ++steps) {
      ExpectParity(tier, cfg, dim, steps, kSingleStepUlp * steps);
    }
  }
}

TEST(SimdKernelParityTest, AdamStepCounterAdvancesOncePerUpdate) {
  const simd::KernelTier tier = VectorTier();
  const OptimizerConfig cfg = MakeConfig(OptimizerKind::kAdam, 0.0f);
  constexpr uint32_t kDim = 8;
  std::vector<float> emb(kDim, 0.5f), grad(kDim, 0.1f);
  std::vector<float> state(OptimizerStateFloats(OptimizerKind::kAdam, kDim),
                           0.0f);
  for (int step = 1; step <= 4; ++step) {
    ApplyOptimizerUpdateWithTier(tier, cfg, kDim, emb.data(), state.data(),
                                 grad.data());
    EXPECT_FLOAT_EQ(state[2 * kDim], static_cast<float>(step));
  }
}

TEST(SimdKernelParityTest, UnavailableTierFallsBackToScalarExactly) {
  // A tier this build lacks must route to the scalar reference with no
  // numeric difference at all — pick whichever vector tier cannot exist
  // in this binary.
#if MLKV_SIMD_X86
  const simd::KernelTier missing = simd::KernelTier::kNeon;
#else
  const simd::KernelTier missing = simd::KernelTier::kAvx2Fma;
#endif
  for (OptimizerKind kind : kKinds) {
    ExpectParity(missing, MakeConfig(kind, 0.01f), 64, 8, /*max_ulp=*/0);
  }
}

TEST(SimdKernelParityTest, DispatchedEntryMatchesActiveTier) {
  // ApplyOptimizerUpdateKernel must be exactly ApplyOptimizerUpdateWithTier
  // on the process-wide tier, whatever that tier resolved to.
  const simd::KernelTier active = simd::ActiveKernelTier();
  const OptimizerConfig cfg = MakeConfig(OptimizerKind::kAdagrad, 0.0f);
  constexpr uint32_t kDim = 17;
  std::vector<float> emb_a(kDim), emb_b(kDim), grad(kDim);
  std::vector<float> state_a(kDim, 0.0f), state_b(kDim, 0.0f);
  Fill(&emb_a, 7);
  emb_b = emb_a;
  Fill(&grad, 11);
  ApplyOptimizerUpdateKernel(cfg, kDim, emb_a.data(), state_a.data(),
                             grad.data());
  ApplyOptimizerUpdateWithTier(active, cfg, kDim, emb_b.data(), state_b.data(),
                               grad.data());
  EXPECT_EQ(std::memcmp(emb_a.data(), emb_b.data(), kDim * sizeof(float)), 0);
  EXPECT_EQ(
      std::memcmp(state_a.data(), state_b.data(), kDim * sizeof(float)), 0);
}

// --------------------------------------------------------------------------
// Bulk primitives: CopyFloats is memcpy (exact by definition);
// AccumulateFloats is elementwise with no reassociation, so it must be
// bit-exact against the plain loop; SubScaled may contract into FMA, so
// one rounding's worth of slack.
// --------------------------------------------------------------------------

constexpr size_t kBulkSizes[] = {0, 1, 3, 7, 8, 17, 64, 127, 1000};

TEST(SimdBulkPrimitivesTest, CopyFloatsExact) {
  for (size_t n : kBulkSizes) {
    std::vector<float> src(n), dst(n, -1.0f);
    Fill(&src, n + 1);
    simd::CopyFloats(dst.data(), src.data(), n);
    EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.begin()));
  }
}

TEST(SimdBulkPrimitivesTest, AccumulateFloatsMatchesScalarExactly) {
  for (size_t n : kBulkSizes) {
    std::vector<float> src(n), a(n), b(n);
    Fill(&src, 2 * n + 1);
    Fill(&a, 3 * n + 1);
    b = a;
    for (size_t i = 0; i < n; ++i) a[i] += src[i];
    simd::AccumulateFloats(b.data(), src.data(), n);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "n=" << n;
  }
}

TEST(SimdBulkPrimitivesTest, SubScaledWithinOneUlp) {
  for (size_t n : kBulkSizes) {
    std::vector<float> src(n), a(n), b(n);
    Fill(&src, 5 * n + 1);
    Fill(&a, 7 * n + 1);
    b = a;
    const float lr = 0.05f;
    for (size_t i = 0; i < n; ++i) a[i] -= lr * src[i];
    simd::SubScaled(b.data(), src.data(), lr, n);
    // One FMA contraction's worth of ULP slack; the absolute floor covers
    // elements where dst nearly cancels against lr*src.
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(CloseEnough(a[i], b[i], 1, 1e-7f)) << "n=" << n
                                                     << " i=" << i;
    }
  }
}

// --------------------------------------------------------------------------
// Dense-model matmul rows: AddRowCombination keeps each output's
// accumulation order, multiplies then adds (no FMA), and skips zero inputs
// exactly where asked, so every tier must be bit-exact against the scalar
// loop, and the three Tensor products against the plain loops they
// replaced.
// --------------------------------------------------------------------------

// Fills `v` like Fill, with every third element zero (+0 or -0).
void FillWithZeros(std::vector<float>* v, uint64_t seed) {
  Fill(v, seed);
  for (size_t i = 0; i < v->size(); i += 3) {
    (*v)[i] = (i / 3) % 2 == 0 ? 0.0f : -0.0f;
  }
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void RunAddRowCombination(simd::KernelTier tier, float* out, const float* a,
                          size_t a_stride, const float* w, size_t w_stride,
                          size_t m, size_t n, bool skip_zeros) {
#if MLKV_SIMD_X86
  if (tier == simd::KernelTier::kAvx2Fma) {
    simd::AddRowCombinationAvx2(out, a, a_stride, w, w_stride, m, n,
                                skip_zeros);
    return;
  }
#endif
  (void)tier;
  simd::AddRowCombinationScalar(out, a, a_stride, w, w_stride, m, n,
                                skip_zeros);
}

TEST(SimdMatmulTest, AddRowCombinationMatchesScalarBitExactly) {
  const simd::KernelTier tier = VectorTier();
  for (const size_t m : {1, 3, 8, 17, 64}) {
    for (const size_t n : {1, 3, 7, 8, 9, 31, 32, 33, 64, 71}) {
      for (const size_t a_stride : {1, 5}) {
        for (const bool skip : {false, true}) {
          const size_t w_stride = n + 3;  // rows wider than the output
          std::vector<float> a(m * a_stride), w(m * w_stride), out(n);
          FillWithZeros(&a, 11 * m + n);
          Fill(&w, 13 * m + n);
          Fill(&out, 17 * n + m);
          std::vector<float> ref = out;
          simd::AddRowCombinationScalar(ref.data(), a.data(), a_stride,
                                        w.data(), w_stride, m, n, skip);
          RunAddRowCombination(tier, out.data(), a.data(), a_stride,
                               w.data(), w_stride, m, n, skip);
          EXPECT_TRUE(BitEqual(out, ref))
              << "m=" << m << " n=" << n << " stride=" << a_stride
              << " skip=" << skip;
        }
      }
    }
  }
}

TEST(SimdMatmulTest, DenseProductsMatchThePlainLoopsBitExactly) {
  // Odd shapes, N = 1 (a logit layer), and inputs with zeros; the plain
  // loops are the scalar reference the products used to be.
  struct Shape {
    size_t b, m, n;
  };
  for (const Shape s : {Shape{1, 1, 1}, Shape{5, 7, 1}, Shape{3, 17, 9},
                        Shape{13, 33, 64}, Shape{128, 40, 33}}) {
    Tensor x(s.b, s.m), w(s.m, s.n), g(s.b, s.n);
    std::vector<float> v(s.b * s.m);
    FillWithZeros(&v, s.b + s.m);
    std::memcpy(x.data(), v.data(), v.size() * sizeof(float));
    v.resize(s.m * s.n);
    Fill(&v, s.m * s.n);
    std::memcpy(w.data(), v.data(), v.size() * sizeof(float));
    v.resize(s.b * s.n);
    Fill(&v, s.b * s.n + 1);
    std::memcpy(g.data(), v.data(), v.size() * sizeof(float));

    std::vector<float> y_ref(s.b * s.n, 0.0f), gx_ref(s.b * s.m, 0.0f),
        gw_ref(s.m * s.n, 0.0f);
    for (size_t b = 0; b < s.b; ++b) {
      for (size_t m = 0; m < s.m; ++m) {
        const float xv = x.at(b, m);
        if (xv == 0.0f) continue;
        for (size_t n = 0; n < s.n; ++n) y_ref[b * s.n + n] += xv * w.at(m, n);
      }
      for (size_t m = 0; m < s.m; ++m) {
        float acc = 0.0f;
        for (size_t n = 0; n < s.n; ++n) acc += g.at(b, n) * w.at(m, n);
        gx_ref[b * s.m + m] = acc;
      }
      for (size_t m = 0; m < s.m; ++m) {
        const float xv = x.at(b, m);
        if (xv == 0.0f) continue;
        for (size_t n = 0; n < s.n; ++n) gw_ref[m * s.n + n] += xv * g.at(b, n);
      }
    }

    Tensor y, gx, gw, wt;
    MatMul(x, w, &y);
    MatMulGradX(g, w, &gx, &wt);
    MatMulGradW(x, g, &gw);
    const auto as_vec = [](const Tensor& t) {
      return std::vector<float>(t.data(), t.data() + t.size());
    };
    EXPECT_TRUE(BitEqual(as_vec(y), y_ref)) << s.b << "x" << s.m << "x" << s.n;
    EXPECT_TRUE(BitEqual(as_vec(gx), gx_ref))
        << s.b << "x" << s.m << "x" << s.n;
    EXPECT_TRUE(BitEqual(as_vec(gw), gw_ref))
        << s.b << "x" << s.m << "x" << s.n;
  }
}

// --------------------------------------------------------------------------
// Dispatch plumbing.
// --------------------------------------------------------------------------

TEST(SimdDispatchTest, ForceScalarOverride) {
  // DetectKernelTier re-reads the environment each call (only
  // ActiveKernelTier caches), so the override logic stays testable after
  // the process-wide choice froze. Restore whatever CI set afterwards.
  const char* prev = std::getenv("MLKV_FORCE_SCALAR");
  const std::string saved = prev ? prev : "";

  setenv("MLKV_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(simd::DetectKernelTier(), simd::KernelTier::kScalar);
  setenv("MLKV_FORCE_SCALAR", "yes", 1);
  EXPECT_EQ(simd::DetectKernelTier(), simd::KernelTier::kScalar);
  // Exactly "0" and empty mean "not forced".
  setenv("MLKV_FORCE_SCALAR", "0", 1);
  EXPECT_EQ(simd::DetectKernelTier(), VectorTier());
  setenv("MLKV_FORCE_SCALAR", "", 1);
  EXPECT_EQ(simd::DetectKernelTier(), VectorTier());
  unsetenv("MLKV_FORCE_SCALAR");
  EXPECT_EQ(simd::DetectKernelTier(), VectorTier());

  if (prev) {
    setenv("MLKV_FORCE_SCALAR", saved.c_str(), 1);
  }
}

TEST(SimdDispatchTest, TierNamesStable) {
  EXPECT_STREQ(simd::KernelTierName(simd::KernelTier::kScalar), "scalar");
  EXPECT_STREQ(simd::KernelTierName(simd::KernelTier::kAvx2Fma), "avx2+fma");
  EXPECT_STREQ(simd::KernelTierName(simd::KernelTier::kNeon), "neon");
  // Stable values (the mlkv_simd_kernel_tier gauge exposes the tier).
  EXPECT_EQ(static_cast<uint8_t>(simd::KernelTier::kScalar), 0);
  EXPECT_EQ(static_cast<uint8_t>(simd::KernelTier::kAvx2Fma), 1);
  EXPECT_EQ(static_cast<uint8_t>(simd::KernelTier::kNeon), 2);
}

}  // namespace
}  // namespace mlkv
