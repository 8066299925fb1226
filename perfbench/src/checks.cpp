#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

std::vector<std::uint32_t> coord_of(const CooTensor& x, std::uint64_t n) {
  std::vector<std::uint32_t> c(x.order());
  for (std::size_t m = 0; m < x.order(); ++m) c[m] = x.index(m, n);
  return c;
}

bool near(double a, double b, double rel_tol) {
  return std::abs(a - b) <= rel_tol * std::max({std::abs(a), std::abs(b),
                                                1e-300});
}

}  // namespace

double model_value(const std::vector<Matrix>& factors,
                   const std::vector<double>& lambda,
                   const std::vector<std::uint32_t>& coord) {
  const std::size_t rank = factors.front().cols();
  double sum = 0;
  for (std::size_t f = 0; f < rank; ++f) {
    double prod = lambda.empty() ? 1.0 : lambda[f];
    for (std::size_t m = 0; m < factors.size(); ++m) {
      prod *= factors[m](coord[m], f);
    }
    sum += prod;
  }
  return sum;
}

double full_relative_error(const CooTensor& x,
                           const std::vector<Matrix>& factors) {
  const std::size_t rank = factors.front().cols();
  double x_sq = 0;
  double inner = 0;
  for (std::uint64_t n = 0; n < x.nnz(); ++n) {
    const double v = x.value(n);
    x_sq += v * v;
    inner += v * model_value(factors, {}, coord_of(x, n));
  }
  // ‖M‖² = 1ᵀ (⊛_m A_mᵀ A_m) 1, with each Gram formed here row by row.
  std::vector<double> had(rank * rank, 1.0);
  for (const Matrix& a : factors) {
    std::vector<double> g(rank * rank, 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t p = 0; p < rank; ++p) {
        for (std::size_t q = 0; q < rank; ++q) {
          g[p * rank + q] += a(i, p) * a(i, q);
        }
      }
    }
    for (std::size_t k = 0; k < had.size(); ++k) had[k] *= g[k];
  }
  double m_sq = 0;
  for (const double h : had) m_sq += h;
  return std::sqrt(std::max(0.0, x_sq - 2 * inner + m_sq) / x_sq);
}

double observed_relative_error(const CooTensor& x,
                               const std::vector<Matrix>& factors) {
  double x_sq = 0;
  double r_sq = 0;
  for (std::uint64_t n = 0; n < x.nnz(); ++n) {
    const double v = x.value(n);
    const double r = v - model_value(factors, {}, coord_of(x, n));
    x_sq += v * v;
    r_sq += r * r;
  }
  return std::sqrt(r_sq / x_sq);
}

std::string check_error(double reported, double recomputed, double rel_tol) {
  if (std::isfinite(reported) && near(reported, recomputed, rel_tol)) return {};
  std::ostringstream s;
  s.precision(10);
  s << "reported relative error " << reported << " but recomputed "
    << recomputed << " (tolerance " << rel_tol << " relative)";
  return s.str();
}

std::string check_nonnegative(const std::vector<Matrix>& factors) {
  for (std::size_t m = 0; m < factors.size(); ++m) {
    const Matrix& a = factors[m];
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t f = 0; f < a.cols(); ++f) {
        const double v = a(i, f);
        if (!(v >= 0) || !std::isfinite(v)) {
          std::ostringstream s;
          s << "factor " << m << " entry (" << i << "," << f << ") = " << v
            << " violates non-negativity";
          return s.str();
        }
      }
    }
  }
  return {};
}

std::string check_predict(const aoadmm::KruskalSnapshot& held,
                          std::uint64_t answered_epoch,
                          const std::vector<std::uint32_t>& coord,
                          double answer) {
  if (answered_epoch != held.epoch) {
    return "predict answered from epoch " + std::to_string(answered_epoch) +
           " while the reader held epoch " + std::to_string(held.epoch);
  }
  const double expect =
      model_value(held.model.factors(), held.model.lambda(), coord);
  if (near(answer, expect, 1e-9) || std::abs(answer - expect) < 1e-12) {
    return {};
  }
  std::ostringstream s;
  s.precision(12);
  s << "predict returned " << answer << ", snapshot gives " << expect;
  return s.str();
}

std::string check_fresh(std::uint64_t published, std::uint64_t answered_epoch) {
  if (answered_epoch >= published) return {};
  return "query answered from stale epoch " + std::to_string(answered_epoch) +
         " after epoch " + std::to_string(published) + " was published";
}

std::string check_top_k(const aoadmm::KruskalSnapshot& held,
                        std::uint64_t answered_epoch, std::size_t anchor_mode,
                        std::uint32_t row, std::size_t target_mode,
                        std::size_t k,
                        const std::vector<aoadmm::ScoredIndex>& answer) {
  if (answered_epoch != held.epoch) {
    return "top_k answered from epoch " + std::to_string(answered_epoch) +
           " while the reader held epoch " + std::to_string(held.epoch);
  }
  const auto& f = held.model.factors();
  const auto& lambda = held.model.lambda();
  const Matrix& a = f[anchor_mode];
  const Matrix& b = f[target_mode];
  const std::size_t rank = a.cols();
  std::vector<double> score(b.rows());
  for (std::size_t j = 0; j < b.rows(); ++j) {
    double s = 0;
    for (std::size_t c = 0; c < rank; ++c) s += lambda[c] * a(row, c) * b(j, c);
    score[j] = s;
  }
  const std::size_t want = std::min(k, b.rows());
  if (answer.size() != want) {
    return "top_k returned " + std::to_string(answer.size()) +
           " indices, expected " + std::to_string(want);
  }
  std::vector<char> taken(b.rows(), 0);
  const double tol = 1e-9;
  for (std::size_t r = 0; r < answer.size(); ++r) {
    const auto idx = answer[r].index;
    if (idx >= b.rows() || taken[idx]) return "top_k index invalid or repeated";
    taken[idx] = 1;
    const double expect = score[idx];
    if (!near(answer[r].score, expect, tol) &&
        std::abs(answer[r].score - expect) > 1e-12) {
      return "top_k score of index " + std::to_string(idx) + " is wrong";
    }
    if (r > 0 && answer[r].score > answer[r - 1].score) {
      return "top_k answer is not sorted best-first";
    }
  }
  const double worst = answer.empty() ? 0 : answer.back().score;
  for (std::size_t j = 0; j < b.rows(); ++j) {
    if (!taken[j] && score[j] > worst + tol * std::max(1.0, std::abs(worst))) {
      return "top_k omitted index " + std::to_string(j) +
             " that scores better than its worst answer";
    }
  }
  return {};
}

std::uint64_t stream_key(std::uint32_t u, std::uint32_t i, std::uint32_t t) {
  return (static_cast<std::uint64_t>(u) << 40) |
         (static_cast<std::uint64_t>(i) << 16) | t;
}

std::string check_live_set(const CooTensor& live, const LiveSet& expected) {
  if (live.nnz() != expected.size()) {
    return "live tensor holds " + std::to_string(live.nnz()) +
           " non-zeros, expected " + std::to_string(expected.size()) +
           " distinct in-window coordinates";
  }
  for (std::uint64_t n = 0; n < live.nnz(); ++n) {
    const auto it = expected.find(
        stream_key(live.index(0, n), live.index(1, n), live.index(2, n)));
    if (it == expected.end()) return "live tensor holds an unexpected entry";
    if (it->second != live.value(n)) return "live tensor holds a stale value";
  }
  return {};
}

std::string check_epochs(const std::vector<std::uint64_t>& epochs,
                         std::uint64_t first) {
  for (std::size_t r = 0; r < epochs.size(); ++r) {
    if (epochs[r] != first + r) {
      return "refresh " + std::to_string(r + 1) + " published epoch " +
             std::to_string(epochs[r]) + ", expected " +
             std::to_string(first + r);
    }
  }
  return {};
}

}  // namespace perfbench
