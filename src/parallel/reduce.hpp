// The library's one floating-point reduction. Floating-point addition is
// not associative, so a parallel sum's bits depend on how its terms are
// grouped. Every floating-point sum outside the MTTKRP scatter kernels
// (Gram, norms, dot/fit, ADMM residuals, objectives) goes through the
// fixed-shape grid below instead of an OpenMP reduction clause (whose
// combine order is unspecified) or an arrival-order `critical` merge:
//
//   * [0, n) is cut into ReduceGrid chunks whose boundaries depend only on n
//     and the caller's grain — never on the team size or the schedule;
//   * each chunk is summed serially, in index order, into its own partial;
//   * the partials are folded in chunk order (0, 1, 2, ...).
//
// Which thread runs a chunk, and how many threads there are, therefore
// never changes a result's bits.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "parallel/runtime.hpp"
#include "util/types.hpp"

namespace aoadmm {

/// Fixed chunk grid over [0, n): floor(n / grain) chunks, clamped to
/// [1, kMaxChunks], balanced to within one element. Chunk c covers
/// [begin(c), begin(c + 1)).
class ReduceGrid {
 public:
  /// Upper bound on the chunk count, so the typed partials fit on the stack
  /// and an array reduction's partials stay within kMaxChunks × width.
  static constexpr std::size_t kMaxChunks = 64;

  ReduceGrid(std::size_t n, std::size_t grain) noexcept
      : n_(n), count_(n / (grain > 0 ? grain : 1)) {
    if (count_ < 1) {
      count_ = 1;
    } else if (count_ > kMaxChunks) {
      count_ = kMaxChunks;
    }
  }

  std::size_t count() const noexcept { return count_; }
  std::size_t begin(std::size_t c) const noexcept { return c * n_ / count_; }

 private:
  std::size_t n_;
  std::size_t count_;
};

/// Default grain (elements per chunk at least) for cheap per-element bodies.
inline constexpr std::size_t kReduceGrain = 1024;

/// partials[c] = chunk(begin(c), begin(c + 1)) for every chunk of `grid`,
/// work-shared (`omp for nowait`) across the enclosing OpenMP team, or run
/// serially when called outside one. Callers read the partials only after a
/// barrier (the end of the enclosing parallel region).
template <class T, class Chunk>
void reduce_chunks(const ReduceGrid& grid, T* partials, Chunk&& chunk) {
  const auto count = static_cast<std::ptrdiff_t>(grid.count());
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 1) nowait
#endif
  for (std::ptrdiff_t c = 0; c < count; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    partials[cc] = chunk(grid.begin(cc), grid.begin(cc + 1));
  }
}

/// Folds partials[0..count) in chunk order: combine(acc, partials[c]) for
/// c = 1, 2, ... starting from acc = partials[0].
template <class T, class Combine>
T fold_partials(const ReduceGrid& grid, const T* partials, Combine&& combine) {
  T acc = partials[0];
  for (std::size_t c = 1; c < grid.count(); ++c) {
    combine(acc, partials[c]);
  }
  return acc;
}

/// Deterministic parallel reduction of a small value type over [0, n):
/// `chunk(lo, hi)` returns the serial partial of one chunk and
/// `combine(acc, partial)` folds one partial into the running total.
/// Partials live on the caller's stack: no allocation.
template <class T, class Chunk, class Combine>
T parallel_reduce(std::size_t n, std::size_t grain, Chunk&& chunk,
                  Combine&& combine) {
  const ReduceGrid grid(n, grain);
  if (grid.count() == 1) {
    return chunk(std::size_t{0}, n);
  }
  std::array<T, ReduceGrid::kMaxChunks> partials{};
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  reduce_chunks(grid, partials.data(), chunk);
  return fold_partials(grid, partials.data(), combine);
}

/// Σ body(i) over [begin, end), bitwise identical at every team size.
template <class Body>
double parallel_reduce_sum(std::size_t begin, std::size_t end, Body&& body,
                           std::size_t grain = kReduceGrain) {
  if (begin >= end) {
    return 0.0;
  }
  return parallel_reduce<double>(
      end - begin, grain,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += body(begin + i);
        }
        return s;
      },
      [](double& acc, double partial) { acc += partial; });
}

namespace detail {

/// Scratch for array partials: borrows the calling thread's grow-only
/// buffer, so steady-state callers (gram() every outer iteration) never
/// touch the allocator. A reduction nested inside another one's chunk body
/// on the same thread gets a private buffer instead.
class PartialBuffer {
 public:
  explicit PartialBuffer(std::size_t size);
  ~PartialBuffer();
  PartialBuffer(const PartialBuffer&) = delete;
  PartialBuffer& operator=(const PartialBuffer&) = delete;

  real_t* data() noexcept { return data_; }

 private:
  real_t* data_ = nullptr;
  bool borrowed_ = false;
  std::vector<real_t> own_;
};

}  // namespace detail

/// Deterministic parallel reduction of a flat array over [0, n):
/// out[k] = Σ_c partial_c[k], folded in chunk order, where each partial_c
/// starts zeroed and `chunk(lo, hi, partial_c)` accumulates chunk c into it.
template <class Chunk>
void parallel_reduce_array(std::size_t n, std::size_t grain, span<real_t> out,
                           Chunk&& chunk) {
  const std::size_t width = out.size();
  const ReduceGrid grid(n, grain);
  if (grid.count() == 1) {
    for (real_t& v : out) {
      v = 0;
    }
    chunk(std::size_t{0}, n, out.data());
    return;
  }
  detail::PartialBuffer buffer(grid.count() * width);
  real_t* partials = buffer.data();
  const auto count = static_cast<std::ptrdiff_t>(grid.count());
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (std::ptrdiff_t c = 0; c < count; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    real_t* p = partials + cc * width;
    for (std::size_t k = 0; k < width; ++k) {
      p[k] = 0;
    }
    chunk(grid.begin(cc), grid.begin(cc + 1), p);
  }
  for (std::size_t k = 0; k < width; ++k) {
    out[k] = partials[k];
  }
  for (std::size_t c = 1; c < grid.count(); ++c) {
    const real_t* p = partials + c * width;
    for (std::size_t k = 0; k < width; ++k) {
      out[k] += p[k];
    }
  }
}

}  // namespace aoadmm
