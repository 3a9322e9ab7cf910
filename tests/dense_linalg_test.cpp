// Tests for DenseMatrix/DenseTensor and the linalg kernels backing CP/Tucker.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "linalg/dense_ops.hpp"
#include "linalg/eigen.hpp"
#include "linalg/solve.hpp"
#include "tensor/dense.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ust {
namespace {

DenseMatrix random_matrix(index_t r, index_t c, std::uint64_t seed, float lo = -1.0f,
                          float hi = 1.0f) {
  Prng rng(seed);
  DenseMatrix m(r, c);
  m.fill_random(rng, lo, hi);
  return m;
}

TEST(DenseMatrix, BasicAccessAndRows) {
  DenseMatrix m(2, 3);
  m(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 5.0f);
  EXPECT_EQ(m.row(1).size(), 3u);
  EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
  EXPECT_EQ(m.byte_size(), 24u);
  EXPECT_THROW(m(2, 0), ContractViolation);
}

TEST(DenseMatrix, MaxAbsDiffAndNorm) {
  DenseMatrix a(2, 2), b(2, 2);
  a(0, 0) = 3.0f;
  a(1, 1) = 4.0f;
  EXPECT_NEAR(a.frobenius_norm(), 5.0, 1e-6);
  b(0, 0) = 3.5f;
  EXPECT_NEAR(DenseMatrix::max_abs_diff(a, b), 4.0, 1e-6);
}

TEST(DenseTensor, OffsetsAndNorm) {
  DenseTensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  const std::vector<index_t> idx{1, 2, 3};
  t.at(idx) = 2.0f;
  EXPECT_FLOAT_EQ(t.at(idx), 2.0f);
  EXPECT_NEAR(t.frobenius_norm(), 2.0, 1e-6);
  const std::vector<index_t> bad{2, 0, 0};
  EXPECT_THROW(t.at(bad), ContractViolation);
}

TEST(Linalg, MatmulAgainstHandExample) {
  DenseMatrix a(2, 3), b(3, 2);
  float v = 1.0f;
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) a(i, j) = v++;
  }
  v = 1.0f;
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) b(i, j) = v++;
  }
  const DenseMatrix c = linalg::matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 28.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 49.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 64.0f);
}

TEST(Linalg, GramEqualsAtA) {
  const DenseMatrix a = random_matrix(20, 5, 3);
  const DenseMatrix g = linalg::gram(a);
  const DenseMatrix expect = linalg::matmul(linalg::transpose(a), a);
  EXPECT_LT(DenseMatrix::max_abs_diff(g, expect), 1e-4);
  // Symmetry.
  for (index_t p = 0; p < 5; ++p) {
    for (index_t q = 0; q < 5; ++q) EXPECT_FLOAT_EQ(g(p, q), g(q, p));
  }
}

TEST(Linalg, HadamardAndSubtract) {
  const DenseMatrix a = random_matrix(4, 4, 5);
  const DenseMatrix b = random_matrix(4, 4, 6);
  const DenseMatrix h = linalg::hadamard(a, b);
  const DenseMatrix d = linalg::subtract(a, b);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(h(i, j), a(i, j) * b(i, j));
      EXPECT_FLOAT_EQ(d(i, j), a(i, j) - b(i, j));
    }
  }
}

TEST(Linalg, KhatriRaoLayout) {
  // Row z of A (.) B must equal A(z / Jb, :) * B(z % Jb, :).
  const DenseMatrix a = random_matrix(3, 4, 7);
  const DenseMatrix b = random_matrix(5, 4, 8);
  const DenseMatrix k = linalg::khatri_rao(a, b);
  ASSERT_EQ(k.rows(), 15u);
  for (index_t z = 0; z < 15; ++z) {
    for (index_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(k(z, c), a(z / 5, c) * b(z % 5, c));
    }
  }
}

TEST(Linalg, KroneckerRow) {
  const std::vector<value_t> a{1.0f, 2.0f};
  const std::vector<value_t> b{3.0f, 4.0f, 5.0f};
  std::vector<value_t> out(6);
  linalg::kronecker_row(a, b, out);
  const std::vector<value_t> expect{3.0f, 4.0f, 5.0f, 6.0f, 8.0f, 10.0f};
  EXPECT_EQ(out, expect);
}

TEST(Linalg, ColumnNormsAndNormalize) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3.0f;
  a(1, 0) = 4.0f;
  a(0, 1) = 0.0f;
  a(1, 1) = 2.0f;
  const auto norms = linalg::column_norms(a);
  EXPECT_NEAR(norms[0], 5.0, 1e-6);
  EXPECT_NEAR(norms[1], 2.0, 1e-6);
  auto copy = a;
  const auto returned = linalg::normalize_columns(copy);
  EXPECT_NEAR(returned[0], 5.0, 1e-6);
  EXPECT_NEAR(copy(0, 0), 0.6, 1e-6);
  EXPECT_NEAR(copy(1, 0), 0.8, 1e-6);
  // Scale back restores the original.
  linalg::scale_columns(copy, returned);
  EXPECT_LT(DenseMatrix::max_abs_diff(copy, a), 1e-5);
}

TEST(Linalg, DotAndFrobenius) {
  const DenseMatrix a = random_matrix(6, 3, 9);
  EXPECT_NEAR(linalg::dot(a, a), linalg::frobenius_norm_squared(a), 1e-5);
}

TEST(Solve, CholeskyReconstructs) {
  // SPD matrix via A^T A + eps I.
  const DenseMatrix a = random_matrix(10, 4, 10);
  DenseMatrix spd = linalg::gram(a);
  for (index_t i = 0; i < 4; ++i) spd(i, i) += 0.5f;
  const auto l = linalg::cholesky(spd);
  ASSERT_TRUE(l.has_value());
  const DenseMatrix back = linalg::matmul(*l, linalg::transpose(*l));
  EXPECT_LT(DenseMatrix::max_abs_diff(back, spd), 1e-3);
}

TEST(Solve, CholeskyRejectsIndefinite) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1.0f;
  m(1, 1) = -1.0f;
  EXPECT_FALSE(linalg::cholesky(m).has_value());
}

TEST(Solve, SpdSolveSolvesSystem) {
  const DenseMatrix a = random_matrix(8, 3, 11);
  DenseMatrix spd = linalg::gram(a);
  for (index_t i = 0; i < 3; ++i) spd(i, i) += 1.0f;
  const DenseMatrix b = random_matrix(2, 3, 12);
  const DenseMatrix x = linalg::solve_gram(spd, b);
  const DenseMatrix xa = linalg::matmul(x, spd);
  EXPECT_LT(DenseMatrix::max_abs_diff(xa, b), 1e-3);
}

TEST(Eigen, DiagonalizesSymmetricMatrix) {
  const DenseMatrix a = random_matrix(12, 6, 13);
  const DenseMatrix s = linalg::gram(a);
  const auto eig = linalg::jacobi_eigen_symmetric(s);
  // Descending eigenvalues.
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_GE(eig.values[i - 1], eig.values[i] - 1e-9);
  }
  // S v = lambda v for each pair.
  for (index_t k = 0; k < 6; ++k) {
    for (index_t i = 0; i < 6; ++i) {
      double sv = 0.0;
      for (index_t j = 0; j < 6; ++j) sv += static_cast<double>(s(i, j)) * eig.vectors(j, k);
      EXPECT_NEAR(sv, eig.values[k] * eig.vectors(i, k), 1e-3);
    }
  }
  // Orthonormal eigenvectors.
  const DenseMatrix vtv = linalg::gram(eig.vectors);
  for (index_t p = 0; p < 6; ++p) {
    for (index_t q = 0; q < 6; ++q) {
      EXPECT_NEAR(vtv(p, q), p == q ? 1.0 : 0.0, 1e-4);
    }
  }
}

TEST(Solve, PinvSymmetricInvertsFullRank) {
  const DenseMatrix a = random_matrix(9, 4, 14);
  DenseMatrix s = linalg::gram(a);
  for (index_t i = 0; i < 4; ++i) s(i, i) += 1.0f;
  const DenseMatrix pinv = linalg::pinv_symmetric(s);
  const DenseMatrix prod = linalg::matmul(s, pinv);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-3);
    }
  }
}

TEST(Solve, PinvSymmetricHandlesRankDeficiency) {
  // Rank-1 symmetric matrix: s = v v^T. pinv(s) s pinv(s) == pinv(s).
  DenseMatrix v(3, 1);
  v(0, 0) = 1.0f;
  v(1, 0) = 2.0f;
  v(2, 0) = 2.0f;
  const DenseMatrix s = linalg::matmul(v, linalg::transpose(v));
  const DenseMatrix p = linalg::pinv_symmetric(s);
  const DenseMatrix psp = linalg::matmul(p, linalg::matmul(s, p));
  EXPECT_LT(DenseMatrix::max_abs_diff(psp, p), 1e-4);
}

TEST(Solve, SolveGramMatchesDirectInverseWhenSpd) {
  const DenseMatrix a = random_matrix(10, 3, 15);
  DenseMatrix v = linalg::gram(a);
  for (index_t i = 0; i < 3; ++i) v(i, i) += 2.0f;
  const DenseMatrix m = random_matrix(7, 3, 16);
  const DenseMatrix x = linalg::solve_gram(v, m);   // = M pinv(V)
  const DenseMatrix expect = linalg::matmul(m, linalg::pinv_symmetric(v));
  EXPECT_LT(DenseMatrix::max_abs_diff(x, expect), 1e-3);
}

/// solve_gram's SPD path as it was written before the row blocks: B is
/// transposed, each right-hand side is substituted as one column at stride
/// I, and the result is transposed back.
DenseMatrix column_substitution(const DenseMatrix& a, const DenseMatrix& b) {
  const DenseMatrix l = linalg::cholesky(a).value();
  const index_t n = a.rows();
  DenseMatrix x = linalg::transpose(b);
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < n; ++i) {
      double sum = x(i, j);
      for (index_t k = 0; k < i; ++k) sum -= static_cast<double>(l(i, k)) * x(k, j);
      x(i, j) = static_cast<value_t>(sum / l(i, i));
    }
    for (index_t ii = n; ii-- > 0;) {
      double sum = x(ii, j);
      for (index_t k = ii + 1; k < n; ++k) sum -= static_cast<double>(l(k, ii)) * x(k, j);
      x(ii, j) = static_cast<value_t>(sum / l(ii, ii));
    }
  }
  return linalg::transpose(x);
}

TEST(Solve, SolveGramIsBitwiseEqualToColumnSubstitution) {
  constexpr index_t kB = linalg::kSolveBlockRows;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) pools.push_back(std::make_unique<ThreadPool>(threads));
  std::uint64_t seed = 100;
  for (index_t r : {1u, 3u, 8u, 16u, 17u}) {
    DenseMatrix v = linalg::gram(random_matrix(2 * r + 3, r, ++seed));
    for (index_t i = 0; i < r; ++i) v(i, i) += 0.25f;
    for (index_t rows : {index_t{1}, kB - 1, kB, kB + 1, 3 * kB + 5, index_t{7250}}) {
      SCOPED_TRACE("R=" + std::to_string(r) + " I=" + std::to_string(rows));
      const DenseMatrix m = random_matrix(rows, r, ++seed);
      const DenseMatrix expect = column_substitution(v, m);
      const auto same_bits = [&](const DenseMatrix& x) {
        return x.rows() == expect.rows() && x.cols() == expect.cols() &&
               std::memcmp(x.data(), expect.data(), expect.byte_size()) == 0;
      };
      EXPECT_TRUE(same_bits(linalg::solve_gram(v, m)));
      for (const auto& pool : pools) {
        EXPECT_TRUE(same_bits(linalg::solve_gram(v, m, pool.get()))) << pool->size() + 1 << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace ust
