#include "core/eval.hpp"

#include <cmath>

#include "core/kruskal.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"

namespace aoadmm {

PredictionMetrics evaluate_predictions(const CooTensor& observed,
                                       cspan<const Matrix> factors) {
  AOADMM_CHECK(factors.size() == observed.order());
  const std::size_t order = observed.order();
  const std::size_t f = factors[0].cols();
  for (std::size_t m = 0; m < order; ++m) {
    AOADMM_CHECK(factors[m].rows() == observed.dim(m));
    AOADMM_CHECK(factors[m].cols() == f);
  }

  PredictionMetrics metrics;
  metrics.count = observed.nnz();
  if (metrics.count == 0) {
    return metrics;
  }

  const double sq_sum = parallel_reduce_sum(
      0, observed.nnz(), [&](std::size_t n) {
        const real_t d =
            observed.value(n) - kruskal_value_at(factors, {}, observed, n);
        return static_cast<double>(d * d);
      });
  const double abs_sum = parallel_reduce_sum(
      0, observed.nnz(), [&](std::size_t n) {
        const real_t d =
            observed.value(n) - kruskal_value_at(factors, {}, observed, n);
        return static_cast<double>(std::abs(d));
      });
  double value_sum = 0;
  for (const real_t v : observed.values()) {
    value_sum += v;
  }

  const auto count = static_cast<double>(metrics.count);
  metrics.rmse = static_cast<real_t>(std::sqrt(sq_sum / count));
  metrics.mae = static_cast<real_t>(abs_sum / count);
  metrics.mean_value = static_cast<real_t>(value_sum / count);
  return metrics;
}

}  // namespace aoadmm
