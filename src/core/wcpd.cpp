#include "core/wcpd.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/cpd_impl.hpp"
#include "la/cholesky.hpp"
#include "parallel/reduce.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace aoadmm {
namespace {

/// Per-thread scratch for one row's subproblem.
struct RowScratch {
  Matrix g;                 // F x F normal matrix for the row
  std::vector<real_t, AlignedAllocator<real_t>> k;      // rhs
  std::vector<real_t, AlignedAllocator<real_t>> w;      // KRP row product
  std::vector<real_t, AlignedAllocator<real_t>> aux;    // H̃ row
  std::vector<real_t, AlignedAllocator<real_t>> h_old;  // H₀ row
  std::vector<real_t, AlignedAllocator<real_t>> path;   // per-level products

  explicit RowScratch(std::size_t f, std::size_t order)
      : g(f, f), k(f), w(f), aux(f), h_old(f), path(order * f) {}
};

/// Assemble G_i and k_i for root node `r` of `tree` by one pass over its
/// subtree: w = ⊛ of the factor rows at levels 1..order-1 along each
/// root-to-leaf path; G_i += w wᵀ (upper triangle), k_i += x·w.
void assemble_row_system(const CsfTensor& tree,
                         cspan<const Matrix> factors, std::size_t r,
                         RowScratch& s) {
  const std::size_t order = tree.order();
  const std::size_t f = s.k.size();
  s.g.zero();
  for (auto& v : s.k) {
    v = 0;
  }
  const auto vals = tree.vals();
  const auto leaf_fids = tree.fids(order - 1);
  const Matrix& leaf_factor = factors[tree.level_mode(order - 1)];

  const auto visit = [&](auto&& self, std::size_t level, offset_t node,
                         const real_t* __restrict partial) -> void {
    if (level == order - 1) {
      const real_t x = vals[node];
      const real_t* __restrict lrow =
          leaf_factor.data() + static_cast<std::size_t>(leaf_fids[node]) * f;
      real_t* __restrict w = s.w.data();
      for (std::size_t c = 0; c < f; ++c) {
        w[c] = partial == nullptr ? lrow[c] : partial[c] * lrow[c];
      }
      // Rank-1 update of the upper triangle and the rhs.
      for (std::size_t p = 0; p < f; ++p) {
        const real_t wp = w[p];
        real_t* __restrict gp = s.g.data() + p * f;
        for (std::size_t q = p; q < f; ++q) {
          gp[q] += wp * w[q];
        }
        s.k[p] += x * wp;
      }
      return;
    }
    const real_t* next_partial = partial;
    if (level > 0) {
      // Extend the path product with this level's factor row.
      const Matrix& a = factors[tree.level_mode(level)];
      const real_t* __restrict row =
          a.data() + static_cast<std::size_t>(tree.fids(level)[node]) * f;
      real_t* __restrict buf = s.path.data() + level * f;
      for (std::size_t c = 0; c < f; ++c) {
        buf[c] = partial == nullptr ? row[c] : partial[c] * row[c];
      }
      next_partial = buf;
    }
    const auto fptr = tree.fptr(level);
    for (offset_t child = fptr[node]; child < fptr[node + 1]; ++child) {
      self(self, level + 1, child, next_partial);
    }
  };
  visit(visit, 0, static_cast<offset_t>(r), nullptr);

  // Mirror the upper triangle.
  for (std::size_t p = 0; p < f; ++p) {
    for (std::size_t q = p + 1; q < f; ++q) {
      s.g(q, p) = s.g(p, q);
    }
  }
}

/// Per-row ADMM on the assembled system. h/u are rows of the factor/dual
/// matrices (updated in place through the parent matrices so the prox sees
/// proper rows).
void solve_row(Matrix& h_mat, Matrix& u_mat, std::size_t row,
               const ProxOperator& prox, const AdmmOptions& admm,
               real_t ridge, RowScratch& s) {
  const std::size_t f = s.k.size();
  real_t trace = 0;
  for (std::size_t c = 0; c < f; ++c) {
    trace += s.g(c, c);
  }
  real_t rho = trace / static_cast<real_t>(f);
  if (!(rho > real_t{1e-12})) {
    rho = real_t{1e-12};
  }
  for (std::size_t c = 0; c < f; ++c) {
    s.g(c, c) += rho + ridge;
  }
  const Cholesky chol(s.g);

  real_t* __restrict h = h_mat.data() + row * f;
  real_t* __restrict u = u_mat.data() + row * f;
  real_t* __restrict aux = s.aux.data();
  real_t* __restrict h_old = s.h_old.data();

  for (unsigned iter = 0; iter < admm.max_iterations; ++iter) {
    for (std::size_t c = 0; c < f; ++c) {
      aux[c] = s.k[c] + rho * (h[c] + u[c]);
    }
    chol.solve_inplace({aux, f});
    if (admm.relaxation != real_t{1}) {
      for (std::size_t c = 0; c < f; ++c) {
        aux[c] = admm.relaxation * aux[c] +
                 (real_t{1} - admm.relaxation) * h[c];
      }
    }
    real_t pr_num = 0;
    real_t pr_den = 0;
    real_t du_num = 0;
    real_t du_den = 0;
    for (std::size_t c = 0; c < f; ++c) {
      h_old[c] = h[c];
      h[c] = aux[c] - u[c];
    }
    prox.apply(h_mat, row, row + 1, rho);
    for (std::size_t c = 0; c < f; ++c) {
      const real_t diff = h[c] - aux[c];
      u[c] += diff;
      pr_num += diff * diff;
      pr_den += h[c] * h[c];
      const real_t step = h[c] - h_old[c];
      du_num += step * step;
      du_den += u[c] * u[c];
    }
    const real_t pr = pr_num / (pr_den > 0 ? pr_den : real_t{1});
    const real_t du_floor = real_t{1e-12} * pr_den + real_t{1e-300};
    const real_t du = du_num / (du_den > du_floor ? du_den : du_floor);
    if (pr < admm.tolerance && du < admm.tolerance) {
      break;
    }
  }
}

/// Observed-entry relative error: √(Σ_Ω (x−m)²/Σ_Ω x²), streamed over the
/// root-to-leaf paths of any one CSF tree.
real_t observed_error_from_tree(const CsfTensor& tree,
                                cspan<const Matrix> factors,
                                real_t value_norm_sq) {
  const std::size_t order = tree.order();
  const std::size_t f = factors[0].cols();
  // Walk root-to-leaf paths accumulating the model value per non-zero.
  // Serial walk per root, parallel over roots.
  const auto vals = tree.vals();
  const auto leaf_fids = tree.fids(order - 1);
  const Matrix& leaf_factor = factors[tree.level_mode(order - 1)];

  const double resid_sq = parallel_reduce_sum(
      0, tree.num_nodes(0), [&](std::size_t r) {
        std::vector<real_t> path((order) * f);
        double local = 0;
        const auto visit = [&](auto&& self, std::size_t level, offset_t node,
                               const real_t* partial) -> void {
          const Matrix& a = factors[tree.level_mode(level)];
          const real_t* row =
              a.data() + static_cast<std::size_t>(tree.fids(level)[node]) * f;
          if (level == order - 1) {
            real_t model = 0;
            for (std::size_t c = 0; c < f; ++c) {
              model += partial[c] * row[c];
            }
            const real_t d = vals[node] - model;
            local += static_cast<double>(d * d);
            return;
          }
          real_t* buf = path.data() + level * f;
          for (std::size_t c = 0; c < f; ++c) {
            buf[c] = partial == nullptr ? row[c] : partial[c] * row[c];
          }
          const auto fptr = tree.fptr(level);
          for (offset_t child = fptr[node]; child < fptr[node + 1];
               ++child) {
            self(self, level + 1, child, buf);
          }
        };
        visit(visit, 0, static_cast<offset_t>(r), nullptr);
        (void)leaf_fids;
        (void)leaf_factor;
        return local;
      },
      /*grain=*/8);  // roots carry whole slices: few per chunk
  return value_norm_sq > 0
             ? static_cast<real_t>(
                   std::sqrt(resid_sq / static_cast<double>(value_norm_sq)))
             : static_cast<real_t>(std::sqrt(resid_sq));
}

}  // namespace

WcpdResult cpd_wopt(const CsfSet& csf, const WcpdOptions& opts,
                    cspan<const ConstraintSpec> constraints) {
  const std::size_t order = csf.order();
  AOADMM_CHECK(order >= 2);
  AOADMM_CHECK(opts.rank > 0);
  AOADMM_CHECK(opts.ridge >= 0);
  AOADMM_CHECK_MSG(csf.strategy() == CsfStrategy::kAllMode,
                   "cpd_wopt assembles per-row systems from mode-rooted "
                   "trees; compile the tensor with CsfStrategy::kAllMode");
  AOADMM_CHECK_MSG(constraints.size() == 1 || constraints.size() == order,
                   "constraints: give 1 (broadcast) or one per mode");

  std::vector<std::unique_ptr<ProxOperator>> prox(order);
  for (std::size_t m = 0; m < order; ++m) {
    prox[m] = make_prox(constraints.size() == 1 ? constraints[0]
                                                : constraints[m]);
  }

  Timer wall;
  wall.start();

  WcpdResult result;
  const real_t x_norm_sq = detail::tensor_norm_sq(csf.for_mode(0));
  result.factors = detail::init_factors(csf, opts.rank, opts.seed,
                                        x_norm_sq);
  std::vector<Matrix> duals;
  duals.reserve(order);
  for (std::size_t m = 0; m < order; ++m) {
    duals.emplace_back(result.factors[m].rows(), opts.rank);
  }
  const std::size_t f = opts.rank;

  // Rows with no observations carry no data signal: pin them at prox(0)
  // once so they cannot pollute the other modes' systems.
  for (std::size_t m = 0; m < order; ++m) {
    const CsfTensor& tree = csf.for_mode(m);
    std::vector<bool> observed(result.factors[m].rows(), false);
    for (const index_t i : tree.fids(0)) {
      observed[i] = true;
    }
    for (std::size_t i = 0; i < observed.size(); ++i) {
      if (!observed[i]) {
        auto row = result.factors[m].row(i);
        std::fill(row.begin(), row.end(), real_t{0});
        prox[m]->apply(result.factors[m], i, i + 1, real_t{1});
      }
    }
  }

  real_t prev_error = std::numeric_limits<real_t>::infinity();

  for (unsigned outer = 1; outer <= opts.max_outer_iterations; ++outer) {
    for (std::size_t m = 0; m < order; ++m) {
      const CsfTensor& tree = csf.for_mode(m);
      AOADMM_CHECK(tree.level_mode(0) == m);
      const auto root_fids = tree.fids(0);
      const auto nroots = static_cast<std::ptrdiff_t>(root_fids.size());
      Matrix& h = result.factors[m];
      Matrix& u = duals[m];
      const ProxOperator& p = *prox[m];

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
      {
        RowScratch scratch(f, order);
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 8)
#endif
        for (std::ptrdiff_t r = 0; r < nroots; ++r) {
          const auto rr = static_cast<std::size_t>(r);
          assemble_row_system(tree, result.factors, rr, scratch);
          solve_row(h, u, root_fids[rr], p, opts.admm, opts.ridge, scratch);
        }
      }
    }

    const real_t err = observed_error_from_tree(csf.for_mode(0),
                                                result.factors, x_norm_sq);
    result.observed_relative_error = err;
    result.outer_iterations = outer;
    if (opts.record_trace) {
      result.trace.add(outer, wall.seconds(), err);
    }
    if (prev_error - err < opts.tolerance && outer > 1) {
      result.converged = true;
      break;
    }
    prev_error = err;
  }

  wall.stop();
  result.total_seconds = wall.seconds();
  return result;
}

}  // namespace aoadmm
