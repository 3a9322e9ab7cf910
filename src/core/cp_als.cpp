#include "core/cp_als.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/dense_ops.hpp"
#include "linalg/solve.hpp"
#include "sim/stream.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ust::core {

namespace {

/// Hadamard product of all Gram matrices except `skip`.
DenseMatrix gram_product_except(const std::vector<DenseMatrix>& grams, int skip) {
  DenseMatrix v;
  bool first = true;
  for (int m = 0; m < static_cast<int>(grams.size()); ++m) {
    if (m == skip) continue;
    if (first) {
      v = grams[static_cast<std::size_t>(m)];
      first = false;
    } else {
      v = linalg::hadamard(v, grams[static_cast<std::size_t>(m)]);
    }
  }
  return v;
}

/// norm of the CP model: sqrt(lambda^T (hadamard of all grams) lambda).
double model_norm(const std::vector<DenseMatrix>& grams, std::span<const double> lambda) {
  const DenseMatrix full = gram_product_except(grams, -1);
  const index_t r = full.rows();
  double sum = 0.0;
  for (index_t p = 0; p < r; ++p) {
    for (index_t q = 0; q < r; ++q) {
      sum += lambda[p] * lambda[q] * full(p, q);
    }
  }
  return std::sqrt(std::max(0.0, sum));
}

/// Sorts components by descending lambda, permuting factor columns.
void sort_components(std::vector<DenseMatrix>& factors, std::vector<double>& lambda) {
  const index_t r = static_cast<index_t>(lambda.size());
  std::vector<index_t> order(r);
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(),
            [&](index_t a, index_t b) { return lambda[a] > lambda[b]; });
  std::vector<double> new_lambda(r);
  for (index_t c = 0; c < r; ++c) new_lambda[c] = lambda[order[c]];
  for (auto& f : factors) {
    DenseMatrix g(f.rows(), f.cols());
    for (index_t i = 0; i < f.rows(); ++i) {
      for (index_t c = 0; c < r; ++c) g(i, c) = f(i, order[c]);
    }
    f = std::move(g);
  }
  lambda = std::move(new_lambda);
}

}  // namespace

CpResult cp_als_driver(const CooTensor& tensor, const CpOptions& options,
                       const MttkrpFn& mttkrp, CpTimings* timings_out) {
  const int order = tensor.order();
  UST_EXPECTS(order >= 2);
  UST_EXPECTS(options.rank >= 1);
  UST_EXPECTS(options.max_iterations >= 1);

  Timer total_timer;
  CpResult result;
  result.timings.mttkrp_seconds.assign(static_cast<std::size_t>(order), 0.0);

  // Random init with unit-norm columns (Algorithm 1 does not prescribe the
  // init; this is the Tensor Toolbox convention).
  Prng rng(options.seed);
  std::vector<DenseMatrix> factors;
  std::vector<DenseMatrix> grams;
  factors.reserve(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    DenseMatrix f(tensor.dim(m), options.rank);
    f.fill_random(rng, 0.1f, 1.0f);
    linalg::normalize_columns(f);
    factors.push_back(std::move(f));
  }
  for (const auto& f : factors) grams.push_back(linalg::gram(f));

  const double norm_x = tensor.frobenius_norm();
  std::vector<double> lambda(options.rank, 1.0);
  double prev_fit = 0.0;

  // Dense-algebra stream: Gram recomputation of the freshly updated factor
  // overlaps the next mode's MTTKRP (Section V-E's two-stream layout).
  sim::Stream dense_stream;
  int pending_gram = -1;

  for (int it = 0; it < options.max_iterations; ++it) {
    DenseMatrix last_m;  // MTTKRP result of the final mode, for the fit
    for (int n = 0; n < order; ++n) {
      Timer t;
      DenseMatrix m = mttkrp(n, factors);
      result.timings.mttkrp_seconds[static_cast<std::size_t>(n)] += t.seconds();

      if (options.use_streams && pending_gram >= 0) {
        dense_stream.synchronize();  // gram(previous factor) now complete
        pending_gram = -1;
      }
      const DenseMatrix v = gram_product_except(grams, n);
      DenseMatrix a = linalg::solve_gram(v, m, &ThreadPool::global());
      lambda = linalg::normalize_columns(a);
      // Guard against dead components (zero columns): keep lambda positive.
      for (auto& l : lambda) {
        if (l == 0.0) l = 1e-30;
      }
      factors[static_cast<std::size_t>(n)] = std::move(a);
      if (options.use_streams && n + 1 < order) {
        pending_gram = n;
        dense_stream.enqueue([&grams, &factors, n] {
          grams[static_cast<std::size_t>(n)] = linalg::gram(factors[static_cast<std::size_t>(n)]);
        });
      } else {
        grams[static_cast<std::size_t>(n)] = linalg::gram(factors[static_cast<std::size_t>(n)]);
      }
      if (n == order - 1) last_m = std::move(m);
    }
    if (pending_gram >= 0) {
      dense_stream.synchronize();
      pending_gram = -1;
    }

    // Fit via the standard identity: ||X - model||^2 =
    //   ||X||^2 + ||model||^2 - 2 <X, model>, with
    //   <X, model> = sum_{i,r} M(i,r) * lambda_r * A_last(i,r).
    double iprod = 0.0;
    const auto& a_last = factors[static_cast<std::size_t>(order - 1)];
    for (index_t i = 0; i < last_m.rows(); ++i) {
      const auto mrow = last_m.row(i);
      const auto arow = a_last.row(i);
      for (index_t c = 0; c < options.rank; ++c) {
        iprod += static_cast<double>(mrow[c]) * arow[c] * lambda[c];
      }
    }
    const double nm = model_norm(grams, lambda);
    const double residual2 = std::max(0.0, norm_x * norm_x + nm * nm - 2.0 * iprod);
    const double fit = norm_x == 0.0 ? 1.0 : 1.0 - std::sqrt(residual2) / norm_x;
    result.fit_history.push_back(fit);
    result.iterations = it + 1;
    if (it > 0 && std::abs(fit - prev_fit) < options.fit_tolerance) {
      result.converged = true;
      result.fit = fit;
      break;
    }
    prev_fit = fit;
    result.fit = fit;
  }

  sort_components(factors, lambda);
  result.factors = std::move(factors);
  result.lambda = std::move(lambda);
  result.timings.total_seconds = total_timer.seconds();
  result.timings.dense_seconds =
      result.timings.total_seconds -
      std::accumulate(result.timings.mttkrp_seconds.begin(),
                      result.timings.mttkrp_seconds.end(), 0.0);
  if (timings_out != nullptr) *timings_out = result.timings;
  return result;
}

CpResult cp_als_unified(engine::Engine& engine, const CooTensor& tensor,
                        const CpOptions& options) {
  // Build one plan per mode up front; F-COO is transferred to the device
  // once, and no format conversion happens inside the iteration. The
  // engine's primary plan cache turns repeated solver calls on the same
  // tensor into per-mode cache hits.
  std::vector<UnifiedMttkrp> ops;
  ops.reserve(static_cast<std::size_t>(tensor.order()));
  for (int m = 0; m < tensor.order(); ++m) {
    ops.emplace_back(engine, tensor, m, options.part);
  }
  return cp_als_driver(tensor, options,
                       [&](int mode, const std::vector<DenseMatrix>& factors) {
                         return ops[static_cast<std::size_t>(mode)].run(
                             factors, options.kernel);
                       });
}

}  // namespace ust::core
