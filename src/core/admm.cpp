#include "core/admm.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "core/admm_impl.hpp"
#include "la/cholesky.hpp"
#include "obs/parallel_stats.hpp"
#include "obs/profile.hpp"
#include "parallel/reduce.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

#if defined(AOADMM_HAVE_OPENMP)
#include <omp.h>
#endif

namespace aoadmm {
namespace {

// Rows per chunk of the residual reduction grid (see parallel/reduce.hpp).
constexpr std::size_t kResidualRowGrain = 256;

}  // namespace

AdmmResult admm_update(Matrix& h, Matrix& u, const Matrix& k, const Matrix& g,
                       const ProxOperator& prox, const AdmmOptions& opts,
                       AdmmScratch& scratch) {
  AOADMM_PROFILE_SCOPE("admm/base");
  const std::size_t rows = h.rows();
  const std::size_t f = h.cols();
  AOADMM_CHECK(u.rows() == rows && u.cols() == f);
  AOADMM_CHECK(k.rows() == rows && k.cols() == f);
  AOADMM_CHECK(g.rows() == f && g.cols() == f);
  AOADMM_CHECK_MSG(opts.relaxation > 0 && opts.relaxation < 2,
                   "relaxation must lie in (0, 2)");
  scratch.ensure(rows, f);
  Matrix& aux = scratch.aux;
  Matrix& h_old = scratch.h_old;

  const RobustnessOptions& rb = opts.robustness;
  real_t rho = detail::admm_penalty(g);
  if (rb.enabled) {
    // Entry snapshot: divergence restarts and the final abandon path roll
    // the primal back to it. The copy reuses h_entry's capacity after the
    // first call, so the steady state stays allocation-free.
    scratch.h_entry = h;
  }

  AdmmResult result;
  detail::ResidualAccum acc;
  // The residual norms are summed over a fixed row-chunk grid rather than
  // per thread, so their bits do not depend on the team size.
  const ReduceGrid grid(rows, kResidualRowGrain);
  std::array<detail::ResidualAccum, ReduceGrid::kMaxChunks> partials;
  const auto dual_chunk = [&](std::size_t lo, std::size_t hi) {
    return detail::admm_dual_rows(h, u, aux, h_old, lo, hi);
  };
  unsigned restarts = 0;
  bool abandoned = false;

  // Divergence-recovery attempts: the entire inner loop runs under a
  // monitor, and a blow-up restarts it from the entry iterate with a
  // rescaled penalty and reset duals, a bounded number of times.
  for (;;) {
    detail::regularized_gram_into(g, rho, scratch.sys);
    if (rb.enabled) {
      const CholeskyReport cr =
          scratch.chol.factor_guarded(scratch.sys, detail::to_guard(rb));
      result.cholesky_attempts += cr.attempts;
      if (cr.jitter > result.cholesky_jitter) {
        result.cholesky_jitter = cr.jitter;
      }
    } else {
      scratch.chol.factor(scratch.sys);
    }
    const Cholesky& chol = scratch.chol;

    detail::DivergenceMonitor monitor;
    bool diverged = false;

    for (unsigned iter = 0; iter < opts.max_iterations; ++iter) {
      // Each kernel runs over a static row partition with a barrier after
      // it — the §IV.A baseline decomposition. The partition is explicit
      // (rather than `omp for`) so each thread can time its own work,
      // excluding barrier waits, for the busy-time imbalance report.
#if defined(AOADMM_HAVE_OPENMP)
      obs::BusyTimes busy(max_threads());
#pragma omp parallel
      {
        const int nt = omp_get_num_threads();
        const std::size_t chunk = (rows + static_cast<std::size_t>(nt) - 1) /
                                  static_cast<std::size_t>(nt);
        const std::size_t lo =
            std::min(rows, chunk * static_cast<std::size_t>(thread_id()));
        const std::size_t hi = std::min(rows, lo + chunk);

        using clock = std::chrono::steady_clock;
        double busy_seconds = 0;
        const auto timed = [&busy_seconds](const auto& work) {
          const auto t0 = clock::now();
          work();
          busy_seconds += std::chrono::duration<double>(clock::now() - t0)
                              .count();
        };

        timed([&] {
          detail::admm_solve_rows(h, u, k, rho, chol, aux, lo, hi);
        });
#pragma omp barrier
        timed([&] {
          detail::admm_primal_prep_rows(h, u, aux, h_old, opts.relaxation, lo,
                                        hi);
        });
#pragma omp barrier
        timed([&] { prox.apply(h, lo, hi, rho); });
#pragma omp barrier
        timed([&] { reduce_chunks(grid, partials.data(), dual_chunk); });
        busy.add(thread_id(), busy_seconds);
      }
#else
      obs::BusyTimes busy(1);
      const auto t0 = std::chrono::steady_clock::now();
      detail::admm_solve_rows(h, u, k, rho, chol, aux, 0, rows);
      detail::admm_primal_prep_rows(h, u, aux, h_old, opts.relaxation, 0, rows);
      prox.apply(h, 0, rows, rho);
      reduce_chunks(grid, partials.data(), dual_chunk);
      busy.add(0, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
#endif
      acc = fold_partials(grid, partials.data(),
                          [](detail::ResidualAccum& total,
                             const detail::ResidualAccum& part) {
                            total.merge(part);
                          });

      ++result.iterations;
      result.row_iterations += rows;
      if (rb.enabled && monitor.diverged(acc, rb.divergence_factor)) {
        diverged = true;
        break;
      }
      if (acc.converged(opts.tolerance)) {
        break;
      }

      // Residual-balancing adaptive ρ: rescale the penalty and duals when
      // the residuals drift more than `ratio` apart, then refactor the
      // system (it depends on ρ). Entirely skipped when disabled.
      const AdaptiveRhoOptions& ad = opts.adaptive;
      if (ad.enabled && result.rho_rebalances < ad.max_rescales &&
          (iter + 1) % (ad.check_every > 0 ? ad.check_every : 1) == 0) {
        const real_t scale = detail::rebalance_scale(acc, ad);
        if (scale != 0) {
          rho *= scale;
          detail::rescale_duals(u, scale);
          detail::regularized_gram_into(g, rho, scratch.sys);
          if (rb.enabled) {
            const CholeskyReport cr = scratch.chol.factor_guarded(
                scratch.sys, detail::to_guard(rb));
            result.cholesky_attempts += cr.attempts;
            if (cr.jitter > result.cholesky_jitter) {
              result.cholesky_jitter = cr.jitter;
            }
          } else {
            scratch.chol.factor(scratch.sys);
          }
          ++result.rho_rebalances;
        }
      }
    }

    if (!diverged) {
      break;
    }
    if (restarts >= rb.max_recoveries) {
      // Out of retries: roll the primal back to the entry iterate and reset
      // the duals so the caller keeps a sane (if stale) factor.
      h = scratch.h_entry;
      u.zero();
      acc = detail::ResidualAccum{};
      abandoned = true;
      break;
    }
    ++restarts;
    rho *= rb.rho_rescale;
    h = scratch.h_entry;
    u.zero();
  }

  result.restarts = restarts;
  result.abandoned = abandoned;
  result.rho = rho;
  result.primal_residual = acc.primal();
  result.dual_residual = acc.dual();
  return result;
}

}  // namespace aoadmm
