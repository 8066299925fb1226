// Thin shim over OpenMP so the library builds (serially) without it and so
// call sites stay testable. All parallelism in the library flows through
// these helpers, the deterministic reductions of parallel/reduce.hpp, or
// explicit `#pragma omp` regions in the kernels.
#pragma once

#include <cstddef>
#include <functional>

namespace aoadmm {

/// Number of threads a parallel region will use (respects omp_set_num_threads
/// and OMP_NUM_THREADS). 1 when built without OpenMP.
int max_threads() noexcept;

/// Set the team size for subsequent parallel regions. No-op without OpenMP.
void set_num_threads(int n) noexcept;

/// Calling thread's id inside a parallel region (0 outside / without OpenMP).
int thread_id() noexcept;

/// Size of the current team when called inside a parallel region (1 outside
/// or without OpenMP). May be smaller than max_threads() was when the
/// region started — schedulers planned against max_threads() must tolerate
/// that (see mttkrp_root_loop's chunk striding).
int team_size() noexcept;

/// True when compiled with OpenMP support.
constexpr bool have_openmp() noexcept {
#if defined(AOADMM_HAVE_OPENMP)
  return true;
#else
  return false;
#endif
}

/// Scheduling policy for parallel_for.
enum class Schedule {
  kStatic,   // contiguous even chunks — uniform work
  kDynamic,  // work-stealing-style chunks — irregular work (blocked ADMM)
};

/// Parallel loop over [begin, end). `body(i)` must be safe to run
/// concurrently for distinct i. `chunk` controls dynamic granularity.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  Schedule schedule = Schedule::kStatic,
                  std::size_t chunk = 1);

}  // namespace aoadmm
