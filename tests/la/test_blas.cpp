#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "parallel/runtime.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      real_t s = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        s += a(i, k) * b(k, j);
      }
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Gram, MatchesNaiveAtA) {
  Rng rng(1);
  const Matrix a = Matrix::random_normal(200, 7, rng);
  Matrix g;
  gram(a, g);
  const Matrix want = naive_matmul(transpose(a), a);
  EXPECT_LT(max_abs_diff(g, want), 1e-10);
}

TEST(Gram, SymmetricOutput) {
  Rng rng(2);
  const Matrix a = Matrix::random_normal(64, 5, rng);
  Matrix g;
  gram(a, g);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

TEST(Gram, ReusesPreallocatedOutput) {
  Rng rng(3);
  const Matrix a = Matrix::random_normal(10, 3, rng);
  Matrix g(3, 3);
  g.fill(99);
  gram(a, g);
  const Matrix want = naive_matmul(transpose(a), a);
  EXPECT_LT(max_abs_diff(g, want), 1e-12);
}

TEST(Gram, BitwiseIdenticalAtTeamSizesOneToFour) {
  // Rows scaled over 30 orders of magnitude: regrouping the row sums
  // changes the rounded Gram, so only a fixed reduction shape gives the
  // same bits at every team size.
  const std::size_t n = 20000;
  const std::size_t f = 6;
  Rng rng(6);
  Matrix a = Matrix::random_normal(n, f, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const real_t s = std::pow(real_t{10}, static_cast<real_t>(
                                              (i * 7919) % 31) - 15);
    for (std::size_t j = 0; j < f; ++j) {
      a(i, j) *= s;
    }
  }
  Matrix reversed(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < f; ++j) {
      reversed(i, j) = a(n - 1 - i, j);
    }
  }
  Matrix forward_sum(f, f);
  gram_accumulate(a, 0, n, forward_sum);
  Matrix backward_sum(f, f);
  gram_accumulate(reversed, 0, n, backward_sum);
  ASSERT_NE(std::memcmp(forward_sum.data(), backward_sum.data(),
                        f * f * sizeof(real_t)),
            0)
      << "input does not make the summation order matter";

  const int before = max_threads();
  Matrix first;
  for (int team = 1; team <= 4; ++team) {
    set_num_threads(team);
    Matrix g;
    gram(a, g);
    if (team == 1) {
      first = g;
    } else {
      EXPECT_EQ(std::memcmp(g.data(), first.data(), f * f * sizeof(real_t)),
                0)
          << "team size " << team;
    }
  }
  set_num_threads(before);
}

TEST(GramAccumulate, PartialRangesSumToWhole) {
  Rng rng(4);
  const Matrix a = Matrix::random_normal(30, 4, rng);
  Matrix g1(4, 4);
  gram_accumulate(a, 0, 30, g1);
  Matrix g2(4, 4);
  gram_accumulate(a, 0, 13, g2);
  gram_accumulate(a, 13, 30, g2);
  // Only the upper triangle is defined for gram_accumulate.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i; j < 4; ++j) {
      EXPECT_NEAR(g1(i, j), g2(i, j), 1e-12);
    }
  }
}

TEST(Matmul, MatchesNaive) {
  Rng rng(5);
  const Matrix a = Matrix::random_normal(17, 9, rng);
  const Matrix b = Matrix::random_normal(9, 13, rng);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-11);
}

TEST(Matmul, RejectsDimensionMismatch) {
  const Matrix a(2, 3);
  const Matrix b(4, 2);
  EXPECT_THROW(matmul(a, b), InvalidArgument);
}

TEST(MatmulTn, MatchesNaiveTransposed) {
  Rng rng(6);
  const Matrix a = Matrix::random_normal(11, 4, rng);
  const Matrix b = Matrix::random_normal(11, 6, rng);
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), naive_matmul(transpose(a), b)),
            1e-11);
}

TEST(Hadamard, ElementwiseProduct) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a(0, 0) = 2;
  a(1, 1) = 3;
  b(0, 0) = 4;
  b(1, 1) = 5;
  const Matrix c = hadamard(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 8);
  EXPECT_DOUBLE_EQ(c(1, 1), 15);
  EXPECT_DOUBLE_EQ(c(0, 1), 0);
}

TEST(Hadamard, InPlaceMutates) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    a(0, j) = static_cast<real_t>(j + 1);
    b(0, j) = 2;
  }
  hadamard_inplace(a, b);
  EXPECT_DOUBLE_EQ(a(0, 2), 6);
}

TEST(Hadamard, RejectsShapeMismatch) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(hadamard_inplace(a, b), InvalidArgument);
}

TEST(Axpy, AccumulatesScaled) {
  std::vector<real_t> x{1, 2, 3};
  std::vector<real_t> y{10, 20, 30};
  axpy(2.0, cspan<real_t>{x.data(), 3}, span<real_t>{y.data(), 3});
  EXPECT_DOUBLE_EQ(y[0], 12);
  EXPECT_DOUBLE_EQ(y[2], 36);
}

TEST(Scale, MultipliesInPlace) {
  std::vector<real_t> x{1, -2, 4};
  scale(span<real_t>{x.data(), 3}, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  EXPECT_DOUBLE_EQ(x[2], 2.0);
}

TEST(Dot, ElementwiseInnerProduct) {
  Rng rng(7);
  const Matrix a = Matrix::random_normal(40, 3, rng);
  const Matrix b = Matrix::random_normal(40, 3, rng);
  real_t want = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    want += a.data()[k] * b.data()[k];
  }
  EXPECT_NEAR(dot(a, b), want, 1e-10);
}

TEST(FroNorm, MatchesDefinition) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(fro_norm_sq(a), 25.0);
}

TEST(SumAll, AddsEverything) {
  Matrix a(2, 3);
  a.fill(1.5);
  EXPECT_DOUBLE_EQ(sum_all(a), 9.0);
}

TEST(Transpose, SwapsIndices) {
  Matrix a(2, 3);
  a(0, 2) = 7;
  a(1, 0) = 8;
  const Matrix t = transpose(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 7);
  EXPECT_DOUBLE_EQ(t(0, 1), 8);
}

TEST(MaxAbsDiff, FindsLargestDeviation) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  a(0, 1) = 2;
  b(0, 1) = -1;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 3.0);
}

}  // namespace
}  // namespace aoadmm
