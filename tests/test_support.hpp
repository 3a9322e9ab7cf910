// Shared fixtures for the UST test suites: seeded random tensors and dense
// factors, F-COO construction shortcuts, and tolerance-aware comparison
// against the serial reference (baselines/reference). Suites keep only the
// helpers that are genuinely local to them; anything used by two or more
// suites belongs here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cp_als.hpp"
#include "core/mode_plan.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "core/tucker.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "tensor/fcoo.hpp"
#include "tensor/semisparse.hpp"
#include "util/prng.hpp"

namespace ust::test {

/// Tolerance used by every kernel-vs-reference comparison. float
/// accumulation order differs between the unified kernels and the serial
/// reference, so exact equality is not expected.
inline constexpr double kUnifiedTol = 1e-3;

/// Seeded random dense matrix with entries in [lo, hi).
inline DenseMatrix random_matrix(index_t rows, index_t cols, std::uint64_t seed,
                                 float lo = -1.0f, float hi = 1.0f) {
  Prng rng(seed);
  DenseMatrix m(rows, cols);
  m.fill_random(rng, lo, hi);
  return m;
}

/// One random factor matrix per mode of `t`, each t.dim(m) x rank, drawn
/// from an ongoing stream (for fuzz loops driven by one master Prng).
inline std::vector<DenseMatrix> random_factors(const CooTensor& t, index_t rank, Prng& rng,
                                               float lo = -1.0f, float hi = 1.0f) {
  std::vector<DenseMatrix> factors;
  factors.reserve(static_cast<std::size_t>(t.order()));
  for (int m = 0; m < t.order(); ++m) {
    DenseMatrix f(t.dim(m), rank);
    f.fill_random(rng, lo, hi);
    factors.push_back(std::move(f));
  }
  return factors;
}

/// Same, from a fresh seed.
inline std::vector<DenseMatrix> random_factors(const CooTensor& t, index_t rank,
                                               std::uint64_t seed, float lo = -1.0f,
                                               float hi = 1.0f) {
  Prng rng(seed);
  return random_factors(t, rank, rng, lo, hi);
}

/// Max-abs difference normalised by the reference's Frobenius norm (clamped
/// at 1 so near-zero references don't blow the ratio up).
inline double relative_error(const DenseMatrix& got, const DenseMatrix& want) {
  const double diff = DenseMatrix::max_abs_diff(got, want);
  return diff / std::max(1.0, want.frobenius_norm());
}

/// Same comparison for SpTTM's semi-sparse output.
inline double relative_error(const SemiSparseTensor& got, const SemiSparseTensor& want) {
  const double diff = SemiSparseTensor::max_abs_diff(got, want);
  return diff / std::max(1.0, static_cast<double>(want.values().frobenius_norm()));
}

/// F-COO for an SpMTTKRP on `mode` (index mode = mode, the rest product).
inline FcooTensor make_mttkrp_fcoo(const CooTensor& t, int mode) {
  const auto plan = core::make_mode_plan_spmttkrp(t.order(), mode);
  return FcooTensor::build(t, plan.index_modes, plan.product_modes);
}

/// A random uniform 3-order tensor with dims in [2, 2+max_dim) and between
/// 1 and max_nnz non-zeros (capped below the cell count so coalescing keeps
/// the tensor non-trivial). Draws shape, size and data seed from `rng` so
/// fuzz loops stay reproducible from one master seed.
inline CooTensor random_coo3(Prng& rng, index_t max_dim = 40, nnz_t max_nnz = 3000) {
  const index_t d0 = 2 + rng.next_index(max_dim);
  const index_t d1 = 2 + rng.next_index(max_dim);
  const index_t d2 = 2 + rng.next_index(max_dim);
  const double cells = static_cast<double>(d0) * d1 * d2;
  const nnz_t nnz = 1 + rng.next_below(static_cast<std::uint64_t>(
                            std::min(static_cast<double>(max_nnz), cells * 0.9)));
  return io::generate_uniform({d0, d1, d2}, nnz, rng.next_u64());
}

/// A 3-order tensor of at least `min_nnz` non-zeros whose mode-0 slices (the
/// segments of a mode-0 SpMTTKRP) mix lengths: half hold 1-8 non-zeros, so
/// several heads share a 64-bit head-flag word, and one in eight holds
/// 1000-5000, so one segment spans many words.
inline CooTensor mixed_segment_coo3(Prng& rng, nnz_t min_nnz) {
  std::vector<index_t> lens;
  nnz_t total = 0;
  while (total < min_nnz) {
    const std::uint64_t kind = rng.next_below(8);
    const index_t len = kind < 4   ? 1 + rng.next_index(8)
                        : kind < 7 ? 9 + rng.next_index(192)
                                   : 1000 + rng.next_index(4001);
    lens.push_back(len);
    total += len;
  }
  CooTensor t({static_cast<index_t>(lens.size()), 5000, 2});
  for (index_t s = 0; s < lens.size(); ++s) {
    for (index_t j = 0; j < lens[s]; ++j) {
      const index_t idx[3] = {s, j, (s + j) % 2};
      t.push_back(idx, 1.0f);
    }
  }
  return t;
}

/// Engine-backed one-shot op helpers. Each builds a throwaway non-owning
/// engine around the caller's device and runs a single op through the Engine
/// API -- the test-side replacement for the retired
/// core::*_unified(sim::Device&, ...) wrappers. Plans live (and die) with the
/// temporary engine, so every call re-plans, matching the old uncached
/// one-shot semantics.
inline DenseMatrix spmttkrp_unified(sim::Device& dev, const CooTensor& t, int mode,
                                    std::span<const DenseMatrix> factors, Partitioning part,
                                    const core::UnifiedOptions& opt = {}) {
  engine::Engine eng(dev);
  core::UnifiedMttkrp op(eng, t, mode, part);
  return op.run(factors, opt);
}

inline SemiSparseTensor spttm_unified(sim::Device& dev, const CooTensor& t, int mode,
                                      const DenseMatrix& u, Partitioning part,
                                      const core::UnifiedOptions& opt = {}) {
  engine::Engine eng(dev);
  core::UnifiedSpttm op(eng, t, mode, part);
  return op.run(u, opt);
}

inline std::vector<value_t> spttv_unified(sim::Device& dev, const CooTensor& t, int mode,
                                          std::span<const std::vector<value_t>> vectors,
                                          Partitioning part, const core::UnifiedOptions& opt = {}) {
  engine::Engine eng(dev);
  core::UnifiedTtv op(eng, t, mode, part);
  return op.run(vectors, opt);
}

inline DenseMatrix spttmc_unified(sim::Device& dev, const CooTensor& t, int mode,
                                  const DenseMatrix& u_first, const DenseMatrix& u_second,
                                  Partitioning part, const core::UnifiedOptions& opt = {}) {
  engine::Engine eng(dev);
  core::UnifiedTtmc op(eng, t, mode, part);
  return op.run(u_first, u_second, opt);
}

inline core::CpResult cp_als_unified(sim::Device& dev, const CooTensor& t,
                                     const core::CpOptions& options) {
  engine::Engine eng(dev);
  return core::cp_als_unified(eng, t, options);
}

inline core::TuckerResult tucker_hooi_unified(sim::Device& dev, const CooTensor& t,
                                              const core::TuckerOptions& options) {
  engine::Engine eng(dev);
  return core::tucker_hooi_unified(eng, t, options);
}

}  // namespace ust::test
