#include "tensor/matricize.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/khatri_rao.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"

namespace aoadmm {

Matrix matricize(const CooTensor& x, std::size_t mode) {
  AOADMM_CHECK(mode < x.order());
  std::size_t ncols = 1;
  for (std::size_t m = 0; m < x.order(); ++m) {
    if (m != mode) {
      ncols *= x.dim(m);
    }
  }
  Matrix out(x.dim(mode), ncols);
  for (offset_t n = 0; n < x.nnz(); ++n) {
    std::size_t col = 0;
    std::size_t stride = 1;
    for (std::size_t m = 0; m < x.order(); ++m) {
      if (m == mode) {
        continue;
      }
      col += static_cast<std::size_t>(x.index(m, n)) * stride;
      stride *= x.dim(m);
    }
    out(x.index(mode, n), col) += x.value(n);
  }
  return out;
}

Matrix reconstruct_matricized(cspan<const Matrix> factors, std::size_t mode) {
  AOADMM_CHECK(mode < factors.size());
  const Matrix krp = khatri_rao_excluding(factors, mode);
  // M(m) = A_m · krpᵀ.
  const Matrix krp_t = transpose(krp);
  return matmul(factors[mode], krp_t);
}

real_t inner_with_model(const CooTensor& x, cspan<const Matrix> factors) {
  AOADMM_CHECK(factors.size() == x.order());
  const std::size_t order = x.order();
  const std::size_t f = factors[0].cols();
  for (std::size_t m = 0; m < order; ++m) {
    AOADMM_CHECK_MSG(factors[m].rows() == x.dim(m) && factors[m].cols() == f,
                     "factor shape mismatch");
  }
  return parallel_reduce_sum(0, x.nnz(), [&](std::size_t n) {
    real_t model = 0;
    for (std::size_t c = 0; c < f; ++c) {
      real_t prod = 1;
      for (std::size_t m = 0; m < order; ++m) {
        prod *= factors[m](x.index(m, n), c);
      }
      model += prod;
    }
    return x.value(n) * model;
  });
}

real_t model_norm_sq(cspan<const Matrix> factors) {
  AOADMM_CHECK(!factors.empty());
  const std::size_t f = factors[0].cols();
  Matrix acc(f, f);
  acc.fill(real_t{1});
  Matrix g(f, f);
  for (const Matrix& a : factors) {
    gram(a, g);
    hadamard_inplace(acc, g);
  }
  return sum_all(acc);
}

real_t relative_error(const CooTensor& x, cspan<const Matrix> factors,
                      real_t x_norm_sq) {
  const real_t inner = inner_with_model(x, factors);
  const real_t mnorm = model_norm_sq(factors);
  real_t resid_sq = x_norm_sq - 2 * inner + mnorm;
  if (resid_sq < 0) {
    resid_sq = 0;  // guard round-off for near-exact fits
  }
  return x_norm_sq > 0 ? std::sqrt(resid_sq) / std::sqrt(x_norm_sq)
                       : std::sqrt(resid_sq);
}

}  // namespace aoadmm
