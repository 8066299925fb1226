#include "parallel/runtime.hpp"

#include <chrono>

#include "obs/parallel_stats.hpp"

#if defined(AOADMM_HAVE_OPENMP)
#include <omp.h>
#endif

namespace aoadmm {
namespace {

using obs_clock = std::chrono::steady_clock;

double seconds_since(obs_clock::time_point t0) noexcept {
  return std::chrono::duration<double>(obs_clock::now() - t0).count();
}

}  // namespace

int max_threads() noexcept {
#if defined(AOADMM_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_num_threads(int n) noexcept {
#if defined(AOADMM_HAVE_OPENMP)
  if (n > 0) {
    omp_set_num_threads(n);
  }
#else
  (void)n;
#endif
}

int thread_id() noexcept {
#if defined(AOADMM_HAVE_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

int team_size() noexcept {
#if defined(AOADMM_HAVE_OPENMP)
  return omp_get_num_threads();
#else
  return 1;
#endif
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  Schedule schedule, std::size_t chunk) {
  if (begin >= end) {
    return;
  }
  // Every region reports its per-thread busy time (work only — the
  // `nowait` clauses keep barrier waits out of the measurement) so the
  // observability layer can derive thread imbalance.
  obs::BusyTimes busy(max_threads());
#if defined(AOADMM_HAVE_OPENMP)
  const auto n = static_cast<std::ptrdiff_t>(end - begin);
  if (schedule == Schedule::kDynamic) {
    const std::ptrdiff_t nchunks =
        (n + static_cast<std::ptrdiff_t>(chunk) - 1) /
        static_cast<std::ptrdiff_t>(chunk);
#pragma omp parallel
    {
      const auto t0 = obs_clock::now();
#pragma omp for schedule(dynamic, 1) nowait
      for (std::ptrdiff_t c = 0; c < nchunks; ++c) {
        const std::size_t lo = begin + static_cast<std::size_t>(c) * chunk;
        const std::size_t hi = lo + chunk < end ? lo + chunk : end;
        for (std::size_t i = lo; i < hi; ++i) {
          body(i);
        }
      }
      busy.add(thread_id(), seconds_since(t0));
    }
  } else {
#pragma omp parallel
    {
      const auto t0 = obs_clock::now();
#pragma omp for schedule(static) nowait
      for (std::ptrdiff_t i = 0; i < n; ++i) {
        body(begin + static_cast<std::size_t>(i));
      }
      busy.add(thread_id(), seconds_since(t0));
    }
  }
#else
  (void)schedule;
  (void)chunk;
  const auto t0 = obs_clock::now();
  for (std::size_t i = begin; i < end; ++i) {
    body(i);
  }
  busy.add(0, seconds_since(t0));
#endif
}

}  // namespace aoadmm
