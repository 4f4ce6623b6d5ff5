// Microbenchmark for the vectorized kernel layer: fused optimizer updates
// (mlkv/optimizer_kernels.h) and the bulk float primitives (common/simd.h),
// each timed on the scalar reference and on the best vector tier this
// machine has, with the speedup printed per cell. The acceptance bar for
// the SIMD work is read off this table: fused AdaGrad/Adam at dim 64/128
// must clear 2x scalar on an AVX2 machine.
//
//   ./bench_micro_kernels                 # full sweep
//   ./bench_micro_kernels --smoke         # CI sanity (seconds)
//   ./bench_micro_kernels --rows=8192 --ms=200
//
// Updates hit a working set of --rows rows round-robin, so dims large
// enough to spill L1 behave like the store's Rmw loop rather than a
// register-resident toy.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/simd.h"
#include "mlkv/optimizer.h"
#include "mlkv/optimizer_kernels.h"

namespace mlkv {
namespace {

// The best tier this build + CPU offers, ignoring MLKV_FORCE_SCALAR: the
// bench's job is to compare tiers, not to honor the dispatch override.
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

// Keeps results observable so the timed loops cannot be dead-code
// eliminated.
volatile float g_sink = 0.0f;

// Runs `fn(row)` round-robin over `rows` rows for ~target_ms and returns
// rows/second. One warmup pass first.
template <typename Fn>
double MeasureRowsPerSec(size_t rows, int target_ms, Fn&& fn) {
  for (size_t r = 0; r < rows; ++r) fn(r);
  const uint64_t budget_us = static_cast<uint64_t>(target_ms) * 1000;
  uint64_t done = 0;
  const uint64_t t0 = NowMicros();
  uint64_t elapsed = 0;
  while (elapsed < budget_us) {
    for (size_t r = 0; r < rows; ++r) fn(r);
    done += rows;
    elapsed = NowMicros() - t0;
  }
  return elapsed == 0 ? 0.0 : done * 1e6 / static_cast<double>(elapsed);
}

constexpr OptimizerKind kKinds[] = {OptimizerKind::kSgd,
                                    OptimizerKind::kMomentum,
                                    OptimizerKind::kAdagrad,
                                    OptimizerKind::kAdam};

void BenchOptimizers(const bench::Flags& flags, simd::KernelTier vec) {
  const size_t rows = static_cast<size_t>(flags.Int("rows", 4096, 256));
  const int ms = static_cast<int>(flags.Int("ms", 150, 10));
  std::vector<uint32_t> dims;
  if (flags.Smoke()) {
    dims = {8, 64};
  } else {
    dims = {8, 64, 128, 256};
  }

  bench::Banner("fused optimizer kernels (rows/s, higher is better)");
  bench::Table t({"kind", "dim", "scalar", simd::KernelTierName(vec),
                  "speedup"});
  t.PrintHeader();
  for (OptimizerKind kind : kKinds) {
    for (uint32_t dim : dims) {
      OptimizerConfig cfg;
      cfg.kind = kind;
      cfg.lr = 0.01f;  // small so repeated updates stay finite
      const size_t state_n = OptimizerStateFloats(kind, dim);
      std::vector<float> emb(rows * dim), grad(rows * dim);
      std::vector<float> state(rows * state_n, 0.0f);
      Fill(&emb, dim);
      Fill(&grad, dim + 1);

      auto run = [&](simd::KernelTier tier) {
        return MeasureRowsPerSec(rows, ms, [&, tier](size_t r) {
          ApplyOptimizerUpdateWithTier(
              tier, cfg, dim, emb.data() + r * dim,
              state_n ? state.data() + r * state_n : nullptr,
              grad.data() + r * dim);
        });
      };
      const double scalar = run(simd::KernelTier::kScalar);
      const double vector = run(vec);
      g_sink = g_sink + emb[0] + (state_n ? state[0] : 0.0f);

      t.Cell(OptimizerKindName(kind));
      t.Cell(static_cast<uint64_t>(dim));
      t.Cell(bench::Human(scalar));
      t.Cell(bench::Human(vector));
      t.Cell(scalar > 0 ? vector / scalar : 0.0, "%.2fx");
      t.EndRow();
    }
  }
}

void BenchBulkPrimitives(const bench::Flags& flags, simd::KernelTier vec) {
  const int ms = static_cast<int>(flags.Int("ms", 150, 10));
  std::vector<size_t> sizes;
  if (flags.Smoke()) {
    sizes = {64, 1024};
  } else {
    sizes = {64, 128, 1024, 65536};
  }
  const size_t rows = 64;  // round-robin rows, like the optimizer sweep

  // Explicit-tier bodies: the dispatched entry points resolve the tier
  // once per process, so the bench calls the per-tier functions directly.
  auto accumulate = [vec](bool vectored, float* dst, const float* src,
                          size_t n) {
    if (vectored) {
#if MLKV_SIMD_X86
      if (vec == simd::KernelTier::kAvx2Fma) {
        simd::AccumulateFloatsAvx2(dst, src, n);
        return;
      }
#endif
#if MLKV_SIMD_NEON
      if (vec == simd::KernelTier::kNeon) {
        simd::AccumulateFloatsNeon(dst, src, n);
        return;
      }
#endif
    }
    for (size_t i = 0; i < n; ++i) dst[i] += src[i];
  };
  auto sub_scaled = [vec](bool vectored, float* dst, const float* src, float a,
                          size_t n) {
    if (vectored) {
#if MLKV_SIMD_X86
      if (vec == simd::KernelTier::kAvx2Fma) {
        simd::SubScaledAvx2(dst, src, a, n);
        return;
      }
#endif
#if MLKV_SIMD_NEON
      if (vec == simd::KernelTier::kNeon) {
        simd::SubScaledNeon(dst, src, a, n);
        return;
      }
#endif
    }
    for (size_t i = 0; i < n; ++i) dst[i] -= a * src[i];
  };

  bench::Banner("bulk float primitives (GB/s touched, higher is better)");
  bench::Table t({"op", "floats", "scalar", simd::KernelTierName(vec),
                  "speedup"});
  t.PrintHeader();
  for (size_t n : sizes) {
    std::vector<float> dst(rows * n), src(rows * n);
    Fill(&src, n);
    // Both streams are touched: 2 loads + 1 store per float -> 12 bytes.
    const double bytes_per_row = static_cast<double>(n) * 12.0;

    for (int op = 0; op < 2; ++op) {
      auto run = [&](bool vectored) {
        Fill(&dst, n + 1);
        const double rps = MeasureRowsPerSec(rows, ms, [&](size_t r) {
          float* d = dst.data() + r * n;
          const float* s = src.data() + r * n;
          if (op == 0) {
            accumulate(vectored, d, s, n);
          } else {
            sub_scaled(vectored, d, s, 0.01f, n);
          }
        });
        g_sink = g_sink + dst[0];
        return rps * bytes_per_row / 1e9;
      };
      const double scalar = run(false);
      const double vector = run(true);
      t.Cell(op == 0 ? "accumulate" : "sub_scaled");
      t.Cell(static_cast<uint64_t>(n));
      t.Cell(scalar, "%.2f");
      t.Cell(vector, "%.2f");
      t.Cell(scalar > 0 ? vector / scalar : 0.0, "%.2fx");
      t.EndRow();
    }
  }
}

int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, {"ms", "rows"});
  const simd::KernelTier vec = VectorTier();
  std::printf("active tier: %s (dispatched: %s)\n",
              simd::KernelTierName(vec),
              simd::KernelTierName(simd::ActiveKernelTier()));
  if (vec == simd::KernelTier::kScalar) {
    std::printf("no vector tier on this machine; speedups will be ~1.0x\n");
  }
  BenchOptimizers(flags, vec);
  BenchBulkPrimitives(flags, vec);
  return 0;
}

}  // namespace
}  // namespace mlkv

int main(int argc, char** argv) { return mlkv::Main(argc, argv); }
