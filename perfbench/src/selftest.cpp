// Self-test of the output checkers: each checker first accepts a correct
// output from the library, then must reject the same output with one
// corruption (a perturbed factor entry, a flipped sign, a wrong λ, an answer
// from a stale epoch, a dropped coordinate, a skipped epoch).
#include <iostream>

#include "checks.hpp"
#include "core/solver.hpp"
#include "stream/model_server.hpp"
#include "tensor/synthetic.hpp"

namespace perfbench {

int run_selftest() {
  using namespace aoadmm;
  int missed = 0;
  const auto expect = [&](const char* what, bool accepted, bool want) {
    if (accepted != want) {
      ++missed;
      std::cout << "# selftest " << what << ": "
                << (accepted ? "accepted" : "rejected")
                << ", expected " << (want ? "accepted" : "rejected") << '\n';
    }
  };

  SyntheticSpec spec;
  spec.dims = {30, 20, 10};
  spec.nnz = 800;
  spec.true_rank = 3;
  spec.seed = 5;
  const CooTensor x = make_synthetic(spec);
  const CsfSet csf(x);
  const CpdResult r =
      CpdSolver(csf, CpdConfig().with_rank(4).with_max_outer(5)).solve();

  // Relative error: clean, then one perturbed factor entry.
  expect("error/clean",
         check_error(r.relative_error, full_relative_error(x, r.factors), 1e-6)
             .empty(),
         true);
  std::vector<Matrix> perturbed = r.factors;
  perturbed[1](3, 2) += 0.5;
  expect("error/perturbed-entry",
         check_error(r.relative_error, full_relative_error(x, perturbed), 1e-6)
             .empty(),
         false);
  expect("observed-error/perturbed-entry",
         check_error(observed_relative_error(x, r.factors),
                     observed_relative_error(x, perturbed), 1e-6)
             .empty(),
         false);

  // Non-negativity: clean, then one flipped sign.
  expect("nonneg/clean", check_nonnegative(r.factors).empty(), true);
  std::vector<Matrix> flipped = r.factors;
  for (std::size_t i = 0; i < flipped[2].rows(); ++i) {
    if (flipped[2](i, 0) > 0) {
      flipped[2](i, 0) = -flipped[2](i, 0);
      break;
    }
  }
  expect("nonneg/flipped-sign", check_nonnegative(flipped).empty(), false);

  // Queries: predict and top_k against the held snapshot.
  ModelServer server;
  KruskalTensor model(r.factors);
  model.normalize_columns();
  server.publish(model);
  auto reader = server.reader();
  const std::vector<std::uint32_t> coord = {4, 7, 2};
  const double v = reader.predict(coord);
  const auto held = server.snapshot();
  expect("predict/clean", check_predict(*held, reader.cached_epoch(), coord, v)
                              .empty(),
         true);
  std::vector<double> wrong_lambda = model.lambda();
  wrong_lambda[0] *= 1.1;
  const double v_bad = model_value(model.factors(), wrong_lambda, coord);
  expect("predict/wrong-lambda",
         check_predict(*held, reader.cached_epoch(), coord, v_bad).empty(),
         false);
  const auto top = reader.top_k(0, 4, 1, 5);
  expect("top_k/clean",
         check_top_k(*held, reader.cached_epoch(), 0, 4, 1, 5, top).empty(),
         true);
  auto dropped = top;
  dropped.erase(dropped.begin() + 1);
  expect("top_k/dropped-coordinate",
         check_top_k(*held, reader.cached_epoch(), 0, 4, 1, 5, dropped).empty(),
         false);

  // Stale epoch: the reader answered from epoch 1 after epoch 2 went out.
  const std::uint64_t answered = reader.cached_epoch();
  KruskalTensor next = model;
  next.factors()[0](4, 0) *= 2;
  server.publish(next);
  const auto newer = server.snapshot();
  expect("fresh/clean", check_fresh(answered, answered).empty(), true);
  expect("fresh/stale-epoch", check_fresh(server.epoch(), answered).empty(),
         false);
  expect("predict/stale-epoch",
         check_predict(*newer, answered, coord, v).empty(), false);
  expect("top_k/stale-epoch",
         check_top_k(*newer, answered, 0, 4, 1, 5, top).empty(), false);

  // Live window: the exact coordinate set, then one dropped coordinate.
  CooTensor live({8, 8, 8});
  LiveSet want;
  for (std::uint32_t n = 0; n < 6; ++n) {
    const std::vector<std::uint32_t> c = {n, (n * 3) % 8, n % 4};
    live.add(c, 1.0 + n);
    want[stream_key(c[0], c[1], c[2])] = 1.0 + n;
  }
  expect("live/clean", check_live_set(live, want).empty(), true);
  CooTensor short_live({8, 8, 8});
  for (std::uint64_t n = 1; n < live.nnz(); ++n) {
    short_live.add(std::vector<std::uint32_t>{live.index(0, n),
                                              live.index(1, n),
                                              live.index(2, n)},
                   live.value(n));
  }
  expect("live/dropped-coordinate", check_live_set(short_live, want).empty(),
         false);

  expect("epochs/clean", check_epochs({1, 2, 3}, 1).empty(), true);
  expect("epochs/skipped", check_epochs({1, 2, 4}, 1).empty(), false);
  return missed;
}

}  // namespace perfbench
