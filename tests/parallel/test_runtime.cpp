#include "parallel/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "parallel/reduce.hpp"

namespace aoadmm {
namespace {

TEST(Runtime, MaxThreadsPositive) { EXPECT_GE(max_threads(), 1); }

TEST(Runtime, SetNumThreadsRoundTrips) {
  const int before = max_threads();
  set_num_threads(1);
  EXPECT_EQ(max_threads(), 1);
  set_num_threads(before);
  EXPECT_EQ(max_threads(), before);
}

TEST(Runtime, ParallelForVisitsEachIndexOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Runtime, ParallelForDynamicVisitsEachIndexOnce) {
  const std::size_t n = 1003;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      0, n, [&](std::size_t i) { hits[i].fetch_add(1); },
      Schedule::kDynamic, 7);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(Runtime, ParallelForRespectsOffset) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10+...+19
}

TEST(Runtime, ParallelForEmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Runtime, ReduceSumMatchesSerial) {
  const std::size_t n = 50000;
  const double got = parallel_reduce_sum(
      0, n, [](std::size_t i) { return static_cast<double>(i); });
  const double want = static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_DOUBLE_EQ(got, want);
}

TEST(Runtime, ReduceSumEmptyRange) {
  EXPECT_DOUBLE_EQ(parallel_reduce_sum(3, 3, [](std::size_t) { return 1.0; }),
                   0.0);
}

// Restores the process-wide team size when a test that changes it ends.
class TeamSizeGuard {
 public:
  TeamSizeGuard() : before_(max_threads()) {}
  ~TeamSizeGuard() { set_num_threads(before_); }
  TeamSizeGuard(const TeamSizeGuard&) = delete;
  TeamSizeGuard& operator=(const TeamSizeGuard&) = delete;

 private:
  int before_;
};

// Mixed-sign terms spread over 30 orders of magnitude: regrouping their
// additions changes the rounded total.
std::vector<double> spread_terms(std::size_t n) {
  std::mt19937_64 gen(2017);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-15, 15);
  std::vector<double> terms(n);
  for (double& v : terms) {
    const double sign = (gen() & 1) != 0 ? -1.0 : 1.0;
    v = sign * mantissa(gen) * std::pow(10.0, exponent(gen));
  }
  return terms;
}

TEST(Reduce, GridCoversTheRangeInBoundedChunks) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1023}, std::size_t{1024},
                              std::size_t{5000}, std::size_t{1} << 20}) {
    const ReduceGrid grid(n, kReduceGrain);
    const std::size_t count = grid.count();
    ASSERT_GE(count, 1u);
    ASSERT_LE(count, ReduceGrid::kMaxChunks);
    EXPECT_EQ(grid.begin(0), 0u);
    EXPECT_EQ(grid.begin(count), n);
    for (std::size_t c = 0; c < count; ++c) {
      EXPECT_LE(grid.begin(c), grid.begin(c + 1));
      if (count > 1) {
        EXPECT_GE(grid.begin(c + 1) - grid.begin(c), kReduceGrain);
      }
    }
  }
}

TEST(Reduce, SumIsBitwiseIdenticalAtTeamSizesOneToFour) {
  const std::vector<double> terms = spread_terms(200000);
  double forward = 0;
  for (const double v : terms) {
    forward += v;
  }
  double backward = 0;
  for (auto it = terms.rbegin(); it != terms.rend(); ++it) {
    backward += *it;
  }
  ASSERT_NE(std::bit_cast<std::uint64_t>(forward),
            std::bit_cast<std::uint64_t>(backward))
      << "input does not make the summation order matter";

  const TeamSizeGuard guard;
  std::uint64_t first = 0;
  for (int team = 1; team <= 4; ++team) {
    set_num_threads(team);
    const double got = parallel_reduce_sum(
        0, terms.size(), [&](std::size_t i) { return terms[i]; });
    const auto bits = std::bit_cast<std::uint64_t>(got);
    if (team == 1) {
      first = bits;
    } else {
      EXPECT_EQ(bits, first) << "team size " << team;
    }
  }
}

TEST(Reduce, NestedArrayReductionsKeepSeparatePartials) {
  // Integer-valued terms, so every grouping is exact and the totals are
  // known; a nested call that shared the outer call's partials would not
  // reproduce them.
  const std::size_t n = 8192;
  std::vector<real_t> totals(2);
  parallel_reduce_array(
      n, kReduceGrain, span<real_t>(totals),
      [&](std::size_t lo, std::size_t hi, real_t* partial) {
        std::vector<real_t> inner(3);
        parallel_reduce_array(
            n, kReduceGrain, span<real_t>(inner),
            [](std::size_t ilo, std::size_t ihi, real_t* p) {
              for (std::size_t i = ilo; i < ihi; ++i) {
                p[0] += 1;
                p[1] += static_cast<real_t>(i);
                p[2] += 2;
              }
            });
        for (std::size_t i = lo; i < hi; ++i) {
          partial[0] += 1;
          partial[1] += inner[0] == static_cast<real_t>(n) ? 0 : 1;
        }
      });
  EXPECT_EQ(totals[0], static_cast<real_t>(n));
  EXPECT_EQ(totals[1], 0) << "an inner reduction returned a wrong total";
}

}  // namespace
}  // namespace aoadmm
