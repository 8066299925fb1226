// Mini-BLAS for the kernels AO-ADMM needs. The matrices of interest are
// tall-and-skinny (I x F with small F), so the level-3 routines parallelize
// over the long row dimension with per-chunk accumulators — the same
// strategy MKL would apply at these shapes (paper §IV.A). The reductions
// (gram, dot, fro_norm_sq) use the fixed chunk grid of parallel/reduce.hpp,
// so their bits do not depend on the thread count.
#pragma once

#include "la/matrix.hpp"
#include "util/types.hpp"

namespace aoadmm {

/// G = Aᵀ A  (F x F, symmetric). Parallel over rows of A.
void gram(const Matrix& a, Matrix& g);

/// G += Aᵀ A for the rows [row_begin, row_end) only (serial; used by tests
/// and by per-block updates).
void gram_accumulate(const Matrix& a, std::size_t row_begin,
                     std::size_t row_end, Matrix& g);

/// C = A * B (general, serial-friendly sizes; used for F x F products and
/// reference computations).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = Aᵀ * B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// A *= B elementwise (Hadamard). Shapes must match.
void hadamard_inplace(Matrix& a, const Matrix& b);

/// out = A * B elementwise.
Matrix hadamard(const Matrix& a, const Matrix& b);

/// y += alpha * x (vector spans of equal length).
void axpy(real_t alpha, cspan<real_t> x, span<real_t> y) noexcept;

/// x *= alpha.
void scale(span<real_t> x, real_t alpha) noexcept;

/// Elementwise dot product of two equal-shape matrices: Σᵢⱼ A(i,j)·B(i,j).
/// Parallel over rows.
real_t dot(const Matrix& a, const Matrix& b);

/// Squared Frobenius norm. Parallel over rows.
real_t fro_norm_sq(const Matrix& a);

/// Sum of all entries (used for 1ᵀ G 1 in the CPD fit trick).
real_t sum_all(const Matrix& a) noexcept;

/// Bᵀ as a new matrix.
Matrix transpose(const Matrix& a);

/// max |A(i,j) - B(i,j)| — testing helper.
real_t max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace aoadmm
