// Small dense solvers for the R x R systems in CP-ALS (line 2 of Algorithm 1
// applies the Moore-Penrose pseudo-inverse of B^T B * C^T C).
#pragma once

#include <optional>

#include "tensor/dense.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace ust::linalg {

/// Rows of the right-hand side that one task of solve_gram's substitution
/// solves together. A factor with at most this many rows runs on the caller.
/// 256 gave the lowest CP-ALS dense-stage time of 256, 512, 1024 and 2048
/// on nell2 x1.0 at rank 8 on a 4-thread pool (DESIGN.md §16).
inline constexpr index_t kSolveBlockRows = 256;

/// Cholesky factorisation of a symmetric positive-definite matrix; returns
/// the lower factor L with A = L L^T, or nullopt if A is not (numerically)
/// positive definite.
std::optional<DenseMatrix> cholesky(const DenseMatrix& a);

/// Moore-Penrose pseudo-inverse of a symmetric matrix via its eigen
/// decomposition (Jacobi); singular values below `rcond * max_sv` are
/// treated as zero. This is the robust path used when the Gram product in
/// CP-ALS is rank deficient (e.g. rank > smallest mode size, the brainq
/// situation the paper discusses in Section V-E).
DenseMatrix pinv_symmetric(const DenseMatrix& a, double rcond = 1e-10);

/// X = B * pinv(A) for symmetric A: the CP-ALS update applied row-wise.
/// When A is SPD, each row of B is solved by forward and back substitution
/// through A's Cholesky factor, in blocks of kSolveBlockRows rows run on
/// `pool` (on the caller when null). Every element's arithmetic is fixed,
/// so X is bitwise the same at any pool width. Otherwise X = B * pinv(A).
DenseMatrix solve_gram(const DenseMatrix& a, const DenseMatrix& b,
                       ThreadPool* pool = nullptr);

}  // namespace ust::linalg
