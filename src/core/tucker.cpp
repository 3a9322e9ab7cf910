#include "core/tucker.hpp"

#include <cmath>

#include "linalg/dense_ops.hpp"
#include "linalg/eigen.hpp"
#include "util/prng.hpp"

namespace ust::core {

namespace {

/// Modified Gram-Schmidt orthonormalisation of the columns of `a`.
void orthonormalize_columns(DenseMatrix& a, Prng& rng) {
  for (index_t c = 0; c < a.cols(); ++c) {
    for (index_t prev = 0; prev < c; ++prev) {
      double proj = 0.0;
      for (index_t i = 0; i < a.rows(); ++i) {
        proj += static_cast<double>(a(i, c)) * a(i, prev);
      }
      for (index_t i = 0; i < a.rows(); ++i) {
        a(i, c) = static_cast<value_t>(a(i, c) - proj * a(i, prev));
      }
    }
    double norm = 0.0;
    for (index_t i = 0; i < a.rows(); ++i) norm += static_cast<double>(a(i, c)) * a(i, c);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      // Degenerate column: replace with a random direction and retry once.
      for (index_t i = 0; i < a.rows(); ++i) a(i, c) = rng.next_float(-1.0f, 1.0f);
      --c;
      continue;
    }
    for (index_t i = 0; i < a.rows(); ++i) {
      a(i, c) = static_cast<value_t>(a(i, c) / norm);
    }
  }
}

/// Leading `r` left singular vectors of `y` (tall I x C, C small) via the
/// Gram trick: eig(Y^T Y) = V diag(s^2) V^T, U = Y V diag(1/s).
DenseMatrix leading_left_singular(const DenseMatrix& y, index_t r, Prng& rng) {
  const DenseMatrix w = linalg::gram(y);
  const auto eig = linalg::jacobi_eigen_symmetric(w);
  DenseMatrix u(y.rows(), r);
  for (index_t c = 0; c < r; ++c) {
    const double s2 = c < static_cast<index_t>(eig.values.size()) ? eig.values[c] : 0.0;
    if (s2 <= 1e-24) continue;  // leave zero; orthonormalisation will fill in
    const double inv_s = 1.0 / std::sqrt(s2);
    for (index_t i = 0; i < y.rows(); ++i) {
      double sum = 0.0;
      for (index_t k = 0; k < y.cols(); ++k) {
        sum += static_cast<double>(y(i, k)) * eig.vectors(k, c);
      }
      u(i, c) = static_cast<value_t>(sum * inv_s);
    }
  }
  orthonormalize_columns(u, rng);
  return u;
}

/// Shared HOOI driver over prebuilt per-mode TTMc front-ends.
TuckerResult tucker_hooi_impl(std::vector<UnifiedTtmc>& ops, const CooTensor& tensor,
                              const TuckerOptions& options) {
  Prng rng(options.seed);
  TuckerResult result;
  result.factors.reserve(3);
  for (int m = 0; m < 3; ++m) {
    DenseMatrix f(tensor.dim(m), options.core_dims[static_cast<std::size_t>(m)]);
    f.fill_random(rng, -1.0f, 1.0f);
    orthonormalize_columns(f, rng);
    result.factors.push_back(std::move(f));
  }

  const double norm_x = tensor.frobenius_norm();
  double prev_fit = 0.0;
  DenseMatrix last_y;  // Y(3) from the final mode update, for core assembly

  for (int it = 0; it < options.max_iterations; ++it) {
    for (int n = 0; n < 3; ++n) {
      const int a = n == 0 ? 1 : 0;
      const int b = n == 2 ? 1 : 2;
      const DenseMatrix y = ops[static_cast<std::size_t>(n)].run(
          result.factors[static_cast<std::size_t>(a)],
          result.factors[static_cast<std::size_t>(b)], options.kernel);
      result.factors[static_cast<std::size_t>(n)] = leading_left_singular(
          y, options.core_dims[static_cast<std::size_t>(n)], rng);
      if (n == 2) last_y = y;
    }

    // Core G(3) = U3^T * Y(3); since U3 is orthonormal, ||G|| measures the
    // captured energy and fit = 1 - sqrt(||X||^2 - ||G||^2) / ||X||.
    const DenseMatrix g3 =
        linalg::matmul(linalg::transpose(result.factors[2]), last_y);
    const double norm_g = std::sqrt(linalg::frobenius_norm_squared(g3));
    const double residual2 = std::max(0.0, norm_x * norm_x - norm_g * norm_g);
    const double fit = norm_x == 0.0 ? 1.0 : 1.0 - std::sqrt(residual2) / norm_x;
    result.fit_history.push_back(fit);
    result.iterations = it + 1;
    result.fit = fit;
    if (it > 0 && std::abs(fit - prev_fit) < options.fit_tolerance) {
      result.converged = true;
      break;
    }
    prev_fit = fit;
  }

  // Assemble the core tensor: G = X x1 U1^T x2 U2^T x3 U3^T. Reuse the last
  // Y(3) = X x1 U1 x2 U2 matricisation: G(3) = U3^T Y(3) with Y(3) columns
  // ordered by (r1, r2) per the TTMc Kronecker layout.
  const index_t r1 = options.core_dims[0];
  const index_t r2 = options.core_dims[1];
  const index_t r3 = options.core_dims[2];
  const DenseMatrix g3 = linalg::matmul(linalg::transpose(result.factors[2]), last_y);
  DenseTensor core({r1, r2, r3});
  for (index_t c3 = 0; c3 < r3; ++c3) {
    for (index_t c1 = 0; c1 < r1; ++c1) {
      for (index_t c2 = 0; c2 < r2; ++c2) {
        const std::array<index_t, 3> idx{c1, c2, c3};
        core.at(idx) = g3(c3, c1 * r2 + c2);
      }
    }
  }
  result.core = std::move(core);
  return result;
}

void validate_tucker_options(const CooTensor& tensor, const TuckerOptions& options) {
  UST_EXPECTS(tensor.order() == 3);
  for (int m = 0; m < 3; ++m) {
    UST_EXPECTS(options.core_dims[static_cast<std::size_t>(m)] >= 1);
    UST_EXPECTS(options.core_dims[static_cast<std::size_t>(m)] <= tensor.dim(m));
  }
}

}  // namespace

TuckerResult tucker_hooi_unified(engine::Engine& engine, const CooTensor& tensor,
                                 const TuckerOptions& options) {
  validate_tucker_options(tensor, options);
  // One TTMc plan per mode, built once (as with CP's per-mode F-COO plans);
  // the engine's primary cache turns repeated solver calls into per-mode
  // cache hits.
  std::vector<UnifiedTtmc> ops;
  ops.reserve(3);
  for (int m = 0; m < 3; ++m) {
    ops.emplace_back(engine, tensor, m, options.part, options.streaming);
  }
  return tucker_hooi_impl(ops, tensor, options);
}

}  // namespace ust::core
