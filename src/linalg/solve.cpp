#include "linalg/solve.hpp"

#include <cmath>
#include <vector>

#include "linalg/dense_ops.hpp"
#include "linalg/eigen.hpp"

namespace ust::linalg {

std::optional<DenseMatrix> cholesky(const DenseMatrix& a) {
  UST_EXPECTS(a.rows() == a.cols());
  const index_t n = a.rows();
  DenseMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (index_t k = 0; k < j; ++k) diag -= static_cast<double>(l(j, k)) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = static_cast<value_t>(ljj);
    for (index_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (index_t k = 0; k < j; ++k) sum -= static_cast<double>(l(i, k)) * l(j, k);
      l(i, j) = static_cast<value_t>(sum / ljj);
    }
  }
  return l;
}

namespace {

/// Solves X (L L^T) = B for rows [begin, end) of B, writing those rows of X.
/// Row r's element i is `sum = B(r,i)`, then `sum -= double(L(i,k)) * X(r,k)`
/// for ascending k < i, then `X(r,i) = float(sum / L(i,i))`; the back
/// substitution does the same over descending i with L(k,i), k > i. The
/// rows are independent, so each step runs over all rows of the block in
/// turn, on a column-major copy whose entries are float values widened to
/// double: every element keeps its order of operations and roundings.
void substitute_rows(const DenseMatrix& l, const DenseMatrix& b, DenseMatrix& x,
                     std::size_t begin, std::size_t end) {
  const index_t r = l.rows();
  const std::size_t n = end - begin;
  std::vector<double> y(r * n);
  const auto col = [&](index_t c) { return y.data() + c * n; };
  const value_t* in = b.data() + begin * r;
  for (std::size_t row = 0; row < n; ++row) {
    for (index_t c = 0; c < r; ++c) col(c)[row] = in[row * r + c];
  }
  const auto step = [&](index_t i, index_t k, double lik) {
    double* yi = col(i);
    const double* yk = col(k);
    for (std::size_t row = 0; row < n; ++row) yi[row] -= lik * yk[row];
  };
  const auto divide = [&](index_t i) {
    double* yi = col(i);
    const double lii = l(i, i);
    for (std::size_t row = 0; row < n; ++row) yi[row] = static_cast<value_t>(yi[row] / lii);
  };
  for (index_t i = 0; i < r; ++i) {
    for (index_t k = 0; k < i; ++k) step(i, k, l(i, k));
    divide(i);
  }
  for (index_t i = r; i-- > 0;) {
    for (index_t k = i + 1; k < r; ++k) step(i, k, l(k, i));
    divide(i);
  }
  value_t* out = x.data() + begin * r;
  for (std::size_t row = 0; row < n; ++row) {
    for (index_t c = 0; c < r; ++c) out[row * r + c] = static_cast<value_t>(col(c)[row]);
  }
}

}  // namespace

DenseMatrix pinv_symmetric(const DenseMatrix& a, double rcond) {
  UST_EXPECTS(a.rows() == a.cols());
  const auto eig = jacobi_eigen_symmetric(a);
  const index_t n = a.rows();
  double max_abs = 0.0;
  for (double ev : eig.values) max_abs = std::max(max_abs, std::abs(ev));
  const double cutoff = rcond * max_abs;
  // pinv(A) = V diag(1/lambda_i where |lambda_i| > cutoff) V^T.
  DenseMatrix result(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (index_t k = 0; k < n; ++k) {
        const double ev = eig.values[k];
        if (std::abs(ev) <= cutoff) continue;
        sum += static_cast<double>(eig.vectors(i, k)) * eig.vectors(j, k) / ev;
      }
      result(i, j) = static_cast<value_t>(sum);
    }
  }
  return result;
}

DenseMatrix solve_gram(const DenseMatrix& a, const DenseMatrix& b, ThreadPool* pool) {
  UST_EXPECTS(a.rows() == a.cols());
  UST_EXPECTS(b.cols() == a.rows());
  // B has shape I x R, A is R x R; we want B * pinv(A). When A = L L^T is
  // SPD, row r of X solves L (L^T x_r) = b_r: forward, then back substitution.
  const auto l = cholesky(a);
  if (!l) return matmul(b, pinv_symmetric(a));
  DenseMatrix x(b.rows(), b.cols());
  for_each_block(pool, b.rows(), kSolveBlockRows,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   substitute_rows(*l, b, x, begin, end);
                 });
  return x;
}

}  // namespace ust::linalg
