#include "la/blas.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "parallel/reduce.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

namespace aoadmm {

namespace {

// Rows per chunk of the row-wise reductions (gram, dot, fro_norm_sq); see
// parallel/reduce.hpp.
constexpr std::size_t kRowGrain = 256;

// Upper triangle of Σ_{i ∈ [row_begin, row_end)} aᵢᵀ aᵢ added into the
// row-major F x F array `g`.
void gram_rows(const Matrix& a, std::size_t row_begin, std::size_t row_end,
               real_t* __restrict g) {
  const std::size_t f = a.cols();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const real_t* __restrict row = a.data() + i * f;
    for (std::size_t p = 0; p < f; ++p) {
      const real_t rp = row[p];
      real_t* __restrict gp = g + p * f;
      for (std::size_t q = p; q < f; ++q) {
        gp[q] += rp * row[q];
      }
    }
  }
}

}  // namespace

void gram_accumulate(const Matrix& a, std::size_t row_begin,
                     std::size_t row_end, Matrix& g) {
  const std::size_t f = a.cols();
  AOADMM_CHECK(g.rows() == f && g.cols() == f);
  AOADMM_CHECK(row_end <= a.rows() && row_begin <= row_end);
  // Upper triangle only; mirrored by gram().
  gram_rows(a, row_begin, row_end, g.data());
}

void gram(const Matrix& a, Matrix& g) {
  const std::size_t f = a.cols();
  if (g.rows() != f || g.cols() != f) {
    g.resize(f, f);
  }
  // Fixed row-chunk grid: the same bits at every team size. The partials
  // live in a grow-only per-thread buffer, so solver sessions calling
  // gram() every outer iteration stay off the allocator.
  parallel_reduce_array(a.rows(), kRowGrain, g.flat(),
                        [&](std::size_t lo, std::size_t hi, real_t* partial) {
                          gram_rows(a, lo, hi, partial);
                        });

  // Mirror the upper triangle into the lower one.
  for (std::size_t p = 0; p < f; ++p) {
    for (std::size_t q = p + 1; q < f; ++q) {
      g(q, p) = g(p, q);
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  AOADMM_CHECK_MSG(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  parallel_for(0, m, [&](std::size_t i) {
    real_t* __restrict ci = c.data() + i * n;
    const real_t* __restrict ai = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const real_t aip = ai[p];
      const real_t* __restrict bp = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] += aip * bp[j];
      }
    }
  });
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  AOADMM_CHECK_MSG(a.rows() == b.rows(), "matmul_tn: row dimension mismatch");
  Matrix c(a.cols(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t ka = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const real_t* __restrict ai = a.data() + i * ka;
    const real_t* __restrict bi = b.data() + i * n;
    for (std::size_t p = 0; p < ka; ++p) {
      const real_t aip = ai[p];
      real_t* __restrict cp = c.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        cp[j] += aip * bi[j];
      }
    }
  }
  return c;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  AOADMM_CHECK_MSG(a.same_shape(b), "hadamard: shape mismatch");
  real_t* __restrict pa = a.data();
  const real_t* __restrict pb = b.data();
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    pa[i] *= pb[i];
  }
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  hadamard_inplace(out, b);
  return out;
}

void axpy(real_t alpha, cspan<real_t> x, span<real_t> y) noexcept {
  const std::size_t n = x.size() < y.size() ? x.size() : y.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void scale(span<real_t> x, real_t alpha) noexcept {
  for (auto& v : x) {
    v *= alpha;
  }
}

real_t dot(const Matrix& a, const Matrix& b) {
  AOADMM_CHECK_MSG(a.same_shape(b), "dot: shape mismatch");
  const std::size_t f = a.cols();
  return parallel_reduce_sum(0, a.rows(), [&](std::size_t i) {
    const real_t* __restrict pa = a.data() + i * f;
    const real_t* __restrict pb = b.data() + i * f;
    real_t s = 0;
    for (std::size_t j = 0; j < f; ++j) {
      s += pa[j] * pb[j];
    }
    return s;
  }, kRowGrain);
}

real_t fro_norm_sq(const Matrix& a) {
  const std::size_t f = a.cols();
  return parallel_reduce_sum(0, a.rows(), [&](std::size_t i) {
    const real_t* __restrict pa = a.data() + i * f;
    real_t s = 0;
    for (std::size_t j = 0; j < f; ++j) {
      s += pa[j] * pa[j];
    }
    return s;
  }, kRowGrain);
}

real_t sum_all(const Matrix& a) noexcept {
  real_t s = 0;
  for (const real_t v : a.flat()) {
    s += v;
  }
  return s;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

real_t max_abs_diff(const Matrix& a, const Matrix& b) {
  AOADMM_CHECK_MSG(a.same_shape(b), "max_abs_diff: shape mismatch");
  real_t m = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    m = std::max(m, std::abs(a.data()[k] - b.data()[k]));
  }
  return m;
}

}  // namespace aoadmm
