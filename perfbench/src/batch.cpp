// Batch workloads (o3-hypersparse, o3-sharded, completion-masked).
//
// One round is the whole pipeline a user runs: read the .tns file, compile
// it, construct the solver, solve a fixed number of outer iterations with
// tolerance 0, publish the model to a ModelServer and serve a fixed number
// of closed-loop queries from it. Rounds repeat until --seconds have passed;
// every metric is the median over rounds (query latencies pool all rounds).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "checks.hpp"
#include "core/admm.hpp"
#include "core/loss.hpp"
#include "core/prox.hpp"
#include "core/solver.hpp"
#include "dist/shard_plan.hpp"
#include "dist/sharded_solver.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "mttkrp/mttkrp.hpp"
#include "stream/model_server.hpp"
#include "tensor/io.hpp"

namespace perfbench {
namespace {

using namespace aoadmm;

constexpr double kErrorRelTol = 1e-6;
/// completion-masked: the full masked solve must come within this factor of
/// the ground-truth model's observed error.
constexpr double kCompletionFactor = 1.5;
/// o3-sharded must match the unsharded solve's error to this (relative).
constexpr double kShardedRelTol = 1e-4;
constexpr std::size_t kTopK = 10;
/// Serve-phase queries per round: enough that each round's p99 has 40
/// samples beyond it.
constexpr unsigned kQueriesPerRound = 4000;
/// Every n-th served query is also checked against the snapshot.
constexpr unsigned kVerifyEvery = 7;

CpdConfig solve_config(const Workload& w, unsigned outers) {
  CpdConfig cfg = CpdConfig()
                      .with_rank(w.rank)
                      .with_max_outer(outers)
                      .with_tolerance(0)
                      .with_constraints(ModeConstraints::broadcast(
                          {ConstraintKind::kNonNegative}));
  if (w.kind == Kind::kCompletion) {
    cfg.with_loss(parse_loss_spec("frobenius:masked"));
  }
  if (w.kind == Kind::kSharded) {
    ShardOptions s;
    s.grid = {4, 1, 1};
    cfg.with_shards(s);
  }
  return cfg;
}

/// One outer iteration's layer calls replayed from outside on the solved
/// state: per mode the Gram of every other factor, the MTTKRP, the Cholesky
/// of G + ρI and one blocked ADMM update.
struct Probe {
  double mttkrp_s = 0;
  double gram_s = 0;
  double cholesky_s = 0;
  double admm_s = 0;
};

Probe replay_outer(const CsfSet& csf, const std::vector<Matrix>& solved,
                   Tracer& tr) {
  Probe p;
  std::vector<Matrix> factors = solved;
  const std::size_t order = factors.size();
  const std::size_t rank = factors.front().cols();
  std::vector<Matrix> grams(order, Matrix(rank, rank));
  {
    const Scoped s(tr, "la.gram");
    const auto t0 = Clock::now();
    for (std::size_t m = 0; m < order; ++m) gram(factors[m], grams[m]);
    p.gram_s = seconds_since(t0);
  }
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmScratch scratch;
  for (std::size_t m = 0; m < order; ++m) {
    Matrix g(rank, rank);
    g.fill(1);
    for (std::size_t n = 0; n < order; ++n) {
      if (n != m) hadamard_inplace(g, grams[n]);
    }
    Matrix k(factors[m].rows(), rank);
    {
      Scoped s(tr, "mttkrp.mttkrp_dispatch");
      mttkrp_dispatch(csf.for_mode(m), factors, m, k);
      p.mttkrp_s += s.stop();
    }
    {
      double trace = 0;
      for (std::size_t f = 0; f < rank; ++f) trace += g(f, f);
      Matrix sys = g;
      for (std::size_t f = 0; f < rank; ++f) sys(f, f) += trace / rank;
      Scoped s(tr, "la.cholesky");
      Cholesky chol;
      chol.factor(sys);
      p.cholesky_s += s.stop();
    }
    Matrix h = factors[m];
    Matrix u(h.rows(), rank);
    u.zero();
    {
      Scoped s(tr, "core.admm_update_blocked");
      admm_update_blocked(h, u, k, g, *prox, AdmmOptions{}, scratch);
      p.admm_s += s.stop();
    }
  }
  return p;
}

/// Closed-loop serve phase: `n` queries back to back on the calling thread,
/// predict and top_k in turn; every kVerifyEvery-th answer is checked
/// against the snapshot the reader held.
void serve(ModelServer& server, ModelServer::Reader& reader,
           const std::vector<index_t>& dims, unsigned n, std::mt19937_64& rng,
           std::vector<double>& latency_us, RunResult& res) {
  std::vector<index_t> coord(dims.size());
  for (unsigned q = 0; q < n; ++q) {
    for (std::size_t m = 0; m < dims.size(); ++m) coord[m] = rng() % dims[m];
    const bool verify = q % kVerifyEvery == 0;
    const auto held = verify ? server.snapshot() : nullptr;
    std::string bad;
    if (q % 2 == 0) {
      const auto t0 = Clock::now();
      const real_t v = reader.predict(coord);
      latency_us.push_back(seconds_since(t0) * 1e6);
      if (verify) bad = check_predict(*held, reader.cached_epoch(), coord, v);
    } else {
      const auto t0 = Clock::now();
      const auto top = reader.top_k(0, coord[0], 1, kTopK);
      latency_us.push_back(seconds_since(t0) * 1e6);
      if (verify) {
        bad = check_top_k(*held, reader.cached_epoch(), 0, coord[0], 1, kTopK,
                          top);
      }
    }
    if (!bad.empty()) res.wrong(bad);
  }
}

}  // namespace

void print_curve(const Workload& w, const RunOptions& o) {
  const CooTensor x = read_tns_file(input_path(o.input_dir, w.input, o.seed));
  const unsigned outers = w.kind == Kind::kCompletion ? 1 : w.outers;
  CpdConfig cfg = solve_config(w, outers);
  const CsfSet csf(x);
  const CpdResult r = w.kind == Kind::kSharded
                          ? ShardedCpdSolver(x, cfg).solve()
                          : CpdSolver(csf, cfg).solve();
  std::printf("# %s seed %llu, fit target %.4f\n", w.name.c_str(),
              static_cast<unsigned long long>(o.seed), w.fit_target);
  for (const TracePoint& p : r.trace.points()) {
    std::printf("%u %.4f %.6f\n", p.outer_iteration, p.seconds,
                p.relative_error);
  }
}

RunResult run_batch(const Workload& w, const RunOptions& o, Tracer& tr) {
  RunResult res;
  const std::string path = input_path(o.input_dir, w.input, o.seed);
  const bool sharded = w.kind == Kind::kSharded;
  const bool completion = w.kind == Kind::kCompletion;
  // completion-masked measures a one-outer masked solve (see README).
  const unsigned outers = completion ? 1 : w.outers;
  CpdConfig cfg = solve_config(w, outers);
  // Per-outer layer numbers of the latest solve (traced runs only).
  std::vector<obs::MetricsSnapshot> snaps;
  if (o.trace) {
    cfg.on_iteration = [&snaps](const obs::MetricsSnapshot& s) {
      snaps.push_back(s);
    };
  }

  // completion-masked: the full masked solve on the seed-independent input,
  // run once per round and counted as failed whenever it stops early or
  // misses the ground-truth bound.
  std::unique_ptr<CooTensor> fixed_x;
  std::unique_ptr<CsfSet> fixed_csf;
  std::unique_ptr<CpdSolver> fixed_solver;
  double gt_error = 0;
  if (completion) {
    const SyntheticSpec fs = completion_fixed_spec();
    fixed_x = std::make_unique<CooTensor>(
        read_tns_file(input_path(o.input_dir, "completion-fixed", 0)));
    gt_error = observed_relative_error(*fixed_x, synthetic_ground_truth(fs));
    fixed_csf = std::make_unique<CsfSet>(*fixed_x);
    fixed_solver =
        std::make_unique<CpdSolver>(*fixed_csf, solve_config(w, w.outers));
    std::ostringstream s;
    s.precision(6);
    s << gt_error;
    res.info["completion_ground_truth_error"] = s.str();
  }

  ModelServer server;
  auto reader = server.reader();
  std::mt19937_64 query_rng(o.seed * 0x9e3779b97f4a7c15ULL + 17);

  std::vector<double> setup_s, solve_s, fit_s, err, replay_s, read_s,
      ingest, p50_us, p99_us, csf_s, csf_mb, plan_s;
  std::vector<double> mttkrp_po, admm_po, other_po, inner_po, rows_po,
      outers_to_fit, exch_mb, exch_msgs, outer_count;
  std::vector<double> probe_mttkrp, probe_gram, probe_chol, probe_admm;
  std::vector<double> full_outer_iters, full_err;
  std::vector<index_t> dims;
  std::uint64_t nnz = 0, queries = 0;
  double sharded_err = 0;  // round 1's, recomputed from its factors
  std::uint64_t expected_epoch = 1;

  const auto run_t0 = Clock::now();
  unsigned rounds = 0;
  while (rounds < 3 || seconds_since(run_t0) < o.seconds) {
    ++rounds;
    snaps.clear();
    const Scoped round(tr, "round");
    const auto t0 = Clock::now();
    CooTensor x;
    {
      Scoped s(tr, "tensor.read_tns_file");
      x = read_tns_file(path);
      read_s.push_back(s.stop());
    }
    std::unique_ptr<CsfSet> csf;
    std::unique_ptr<CpdSolver> solver;
    std::unique_ptr<ShardedCpdSolver> sh;
    if (sharded) {
      Scoped s(tr, "dist.ShardedCpdSolver");
      sh = std::make_unique<ShardedCpdSolver>(x, cfg);
      csf_s.push_back(s.stop());
    } else {
      {
        Scoped s(tr, "tensor.CsfSet");
        csf = std::make_unique<CsfSet>(x);
        csf_s.push_back(s.stop());
      }
      csf_mb.push_back(static_cast<double>(csf->storage_bytes()) / 1048576.0);
      const Scoped s(tr, "core.CpdSolver");
      solver = std::make_unique<CpdSolver>(*csf, cfg);
    }
    setup_s.push_back(seconds_since(t0));

    const ExchangeStats ex0 = sh ? sh->exchange_stats() : ExchangeStats{};
    CpdResult r;
    {
      Scoped s(tr, "core.solve");
      r = sh ? sh->solve() : solver->solve();
      solve_s.push_back(s.stop());
    }
    std::uint64_t epoch = 0;
    {
      const Scoped s(tr, "stream.publish");
      epoch = server.publish(KruskalTensor(r.factors));
    }
    replay_s.push_back(seconds_since(t0));
    ingest.push_back(static_cast<double>(x.nnz()) / read_s.back());
    dims = x.dims();
    nnz = x.nnz();

    // --- checks on this round's solve (untimed) ---------------------------
    const double recomputed = completion
                                  ? observed_relative_error(x, r.factors)
                                  : full_relative_error(x, r.factors);
    std::string bad = check_error(r.relative_error, recomputed, kErrorRelTol);
    if (bad.empty()) bad = check_nonnegative(r.factors);
    if (bad.empty()) bad = check_epochs({epoch}, expected_epoch);
    ++expected_epoch;
    if (!bad.empty()) res.wrong(bad);
    const double fit = r.trace.time_to_error(w.fit_target);
    ++res.attempted;
    if (r.outer_iterations != outers ||
        r.stop_reason != StopReason::kMaxIterations) {
      ++res.failed;
      res.notes.push_back("solve stopped at outer " +
                          std::to_string(r.outer_iterations) + " of " +
                          std::to_string(outers) + " (" +
                          to_string(r.stop_reason) + ")");
    } else if (fit < 0) {
      ++res.failed;
      res.notes.push_back("solve never reached the fit target");
    }
    if (fit >= 0) fit_s.push_back(fit);
    err.push_back(r.relative_error);

    if (completion) {
      CpdResult full;
      {
        const Scoped s(tr, "core.solve_full_masked");
        full = fixed_solver->solve();
      }
      ++res.attempted;
      full_outer_iters.push_back(full.outer_iterations);
      full_err.push_back(full.relative_error);
      std::string why = check_error(
          full.relative_error, observed_relative_error(*fixed_x, full.factors),
          kErrorRelTol);
      if (why.empty()) why = check_nonnegative(full.factors);
      if (!why.empty()) res.wrong(why);
      const bool early = full.outer_iterations != w.outers ||
                         full.stop_reason == StopReason::kConverged;
      const bool poor = !(full.relative_error <= kCompletionFactor * gt_error);
      if (early || poor) {
        ++res.failed;
        std::ostringstream s;
        s.precision(4);
        s << "full masked solve stopped at outer " << full.outer_iterations
          << " of " << w.outers << " (" << to_string(full.stop_reason)
          << ") with observed error " << full.relative_error << " vs "
          << kCompletionFactor << " x ground truth " << gt_error;
        res.notes.push_back(s.str());
      }
    }

    // --- per-layer numbers (traced runs) -----------------------------------
    const double n_out = std::max(1u, r.outer_iterations);
    mttkrp_po.push_back(r.times.mttkrp_seconds / n_out);
    admm_po.push_back(r.times.admm_seconds / n_out);
    other_po.push_back(r.times.other_seconds / n_out);
    inner_po.push_back(static_cast<double>(r.total_inner_iterations) / n_out);
    rows_po.push_back(static_cast<double>(r.total_row_iterations) / n_out);
    outers_to_fit.push_back(
        static_cast<double>(r.trace.iterations_to_error(w.fit_target)));
    outer_count.push_back(r.outer_iterations);
    if (sh) {
      const ExchangeStats ex1 = sh->exchange_stats();
      exch_mb.push_back(static_cast<double>(ex1.bytes - ex0.bytes) /
                        1048576.0 / n_out);
      exch_msgs.push_back(static_cast<double>(ex1.messages - ex0.messages) /
                          n_out);
    }
    if (o.trace) {
      if (sharded) {
        Scoped s(tr, "dist.make_shard_plan");
        const ShardPlan plan = make_shard_plan(x, cfg.shards.grid);
        plan_s.push_back(s.stop());
        csf = std::make_unique<CsfSet>(x);  // probe input only, untimed
        csf_mb.push_back(static_cast<double>(csf->storage_bytes()) /
                         1048576.0);
      }
      const Probe p = replay_outer(*csf, r.factors, tr);
      probe_mttkrp.push_back(p.mttkrp_s);
      probe_gram.push_back(p.gram_s);
      probe_chol.push_back(p.cholesky_s);
      probe_admm.push_back(p.admm_s);
    }

    // --- serve -------------------------------------------------------------
    {
      const Scoped s(tr, "stream.serve");
      std::vector<double> lat;
      serve(server, reader, dims, kQueriesPerRound, query_rng, lat, res);
      res.attempted += kQueriesPerRound;
      p50_us.push_back(percentile(lat, 50));
      p99_us.push_back(percentile(lat, 99));
      queries += lat.size();
    }
    if (sharded && rounds == 1) sharded_err = recomputed;
  }
  // Read before the reference solve below, which is the benchmark's own.
  const double rss_mb = peak_rss_mb();

  // o3-sharded must agree with the unsharded solve of the same tensor.
  if (sharded) {
    CpdConfig ref = solve_config(w, w.outers);
    ref.shards = ShardOptions{};
    const CooTensor x = read_tns_file(path);
    const CsfSet csf(x);
    const CpdResult u = CpdSolver(csf, ref).solve();
    if (std::abs(sharded_err - u.relative_error) >
        kShardedRelTol * u.relative_error) {
      std::ostringstream s;
      s.precision(8);
      s << "sharded error " << sharded_err << " differs from unsharded "
        << u.relative_error;
      res.wrong(s.str());
    }
    std::ostringstream s;
    s.precision(8);
    s << sharded_err << " vs " << u.relative_error;
    res.info["sharded_vs_unsharded_error"] = s.str();
  }
  res.info["rounds"] = std::to_string(rounds);
  res.info["nnz"] = std::to_string(nnz);
  res.rounds("setup_s", setup_s);
  res.rounds("solve_s", solve_s);

  {
    const bool t = o.trace;
    res.end_to_end(t, "setup_s", median(setup_s), "s");
    res.end_to_end(t, "solve_s", median(solve_s), "s");
    res.end_to_end(t, "time_to_fit_s", median(fit_s), "s");
    // completion-masked: the observed error of the full masked solve.
    res.end_to_end(t, "final_rel_error",
                   completion ? median(full_err) : median(err), "1");
    res.end_to_end(t, "peak_rss_mb", rss_mb, "MiB");
    res.end_to_end(t, "replay_s", median(replay_s), "s");
    res.end_to_end(t, "ingest_nnz_per_s", median(ingest), "nnz/s");
    if (!t) return res;
  }

  // Per-layer metrics. Sums over modes use the snapshot of each outer.
  const std::size_t order = dims.size();
  std::vector<double> mode_s(3, 0.0);
  double first_outer = 0, imb = 0, thr_imb = 0, shard_imb = 0;
  const std::size_t ns = snaps.size();
  for (std::size_t k = 0; k < ns; ++k) {
    const auto& s = snaps[k];
    for (std::size_t m = 0; m < s.mode_mttkrp_seconds.size() && m < 3; ++m) {
      mode_s[m] += s.mode_mttkrp_seconds[m] / ns;
      if (k == 0) first_outer += s.mode_mttkrp_seconds[m];
    }
    imb += s.mttkrp_imbalance / ns;
    thr_imb += s.thread_imbalance / ns;
    shard_imb += s.shard_imbalance / ns;
  }
  // Computed kernel work per outer, from nnz, rank and order alone: per
  // mode, each non-zero costs rank x order flops (order-1 products, the
  // value scale, one add) and moves its indices and value, order-1 factor
  // rows, plus one output row per slice.
  double flops = 0, bytes = 0;
  const double nz = static_cast<double>(nnz), rk = w.rank,
               od = static_cast<double>(order);
  for (std::size_t m = 0; m < order; ++m) {
    flops += nz * rk * od;
    bytes += nz * (4 * od + 8) + nz * (od - 1) * rk * 8 + dims[m] * rk * 8;
  }
  const double kernel_s = median(mttkrp_po);
  const double file_bytes = static_cast<double>(std::ifstream(
      path, std::ios::binary | std::ios::ate).tellg());
  res.set("tensor.read_s", median(read_s), "s");
  res.set("tensor.read_mb_per_s", file_bytes / 1048576.0 / median(read_s),
          "MiB/s");
  res.set("tensor.csf_build_s", median(csf_s), "s");
  res.set("tensor.csf_mb", median(csf_mb), "MiB");
  res.set("mttkrp.s_per_outer", median(mttkrp_po), "s");
  for (std::size_t m = 0; m < 3; ++m) {
    res.set("mttkrp.mode" + std::to_string(m) + "_s", mode_s[m], "s");
  }
  res.set("mttkrp.probe_s", median(probe_mttkrp), "s");
  res.set("mttkrp.first_outer_s", first_outer, "s");
  res.set("mttkrp.imbalance", imb, "1");
  res.set("mttkrp.gflops_computed", kernel_s > 0 ? flops / kernel_s / 1e9 : 0,
          "GFLOP/s");
  res.set("mttkrp.bw_frac_computed",
          kernel_s > 0 && o.triad_gb_per_s > 0
              ? bytes / kernel_s / 1e9 / o.triad_gb_per_s
              : 0,
          "1");
  res.set("la.gram_s", median(probe_gram), "s");
  res.set("la.cholesky_s", median(probe_chol), "s");
  res.set("core.admm_s_per_outer", completion ? 0 : median(admm_po), "s");
  res.set("core.admm_row_iters_per_outer", median(rows_po), "count");
  res.set("core.admm_probe_s", median(probe_admm), "s");
  res.set("core.admm_inner_iters_per_outer", median(inner_po), "count");
  res.set("core.outers_to_fit", median(outers_to_fit), "count");
  res.set("core.other_s_per_outer", median(other_po), "s");
  res.set("core.outer_iterations",
          completion ? median(full_outer_iters) : median(outer_count),
          "count");
  res.set("core.loss_admm_s_per_outer", completion ? median(admm_po) : 0,
          "s");
  res.set("parallel.thread_imbalance", thr_imb, "1");
  res.set("dist.plan_build_s", median(plan_s), "s");
  res.set("dist.exchange_mb_per_outer", median(exch_mb), "MiB");
  res.set("dist.exchange_msgs_per_outer", median(exch_msgs), "count");
  res.set("dist.shard_imbalance", shard_imb, "1");
  res.set("dist.coordinator_admm_s_per_outer", sharded ? median(admm_po) : 0,
          "s");
  res.set("stream.queries_done", static_cast<double>(queries), "count");
  res.set("stream.query_p50_us", median(p50_us), "us");
  res.set("stream.query_p99_us", median(p99_us), "us");
  return res;
}

}  // namespace perfbench
