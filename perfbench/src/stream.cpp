// stream-replay: an event tensor (user x item x time) ingested in time order.
//
// One round replays the whole event file, split into equal tick ranges:
// every step applies a batch to a StreamingTensor with a sliding window and
// a write-ahead log, then runs a warm StreamingSolver::refresh that
// publishes to a ModelServer. New-event steps carry a share of re-scored
// earlier entries (overwrites); after every second new-event step a
// re-score-only step follows, whose refresh takes the value-patch path
// instead of a CSF rebuild. One closed-loop reader
// thread issues predict and top_k queries back to back for the whole round.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "bench.hpp"
#include "checks.hpp"
#include "core/solver.hpp"
#include "stream/streaming_solver.hpp"
#include "stream/wal.hpp"
#include "tensor/io.hpp"

namespace perfbench {
namespace {

using namespace aoadmm;
namespace fs = std::filesystem;

constexpr std::size_t kTopK = 10;
constexpr unsigned kVerifyEvery = 15;
constexpr std::size_t kTimeMode = 2;
constexpr std::size_t kBatches = 12;      // equal tick ranges per replay
constexpr std::uint32_t kWindow = 16;     // ticks kept live
constexpr double kRescoreShare = 0.05;    // re-scored entries per new event
constexpr unsigned kRefreshOuters = 4;    // per warm refresh, tolerance 0

/// What the reader thread measured and found over one round.
struct ReaderLog {
  std::vector<double> latency_us;
  std::vector<std::string> wrong;
  std::uint64_t verified = 0;
};

/// Closed-loop query client: waits for the first epoch, then issues predict
/// and top_k in turn, back to back, until `stop` is set. A sampled answer
/// must come from an epoch no older than the one published when its query
/// began, and must equal the recomputation from that epoch's snapshot.
void reader_loop(const ModelServer& server, const std::atomic<bool>& stop,
                 std::uint64_t seed, ReaderLog& log) {
  auto reader = server.reader();
  std::mt19937_64 rng(seed);
  while (!stop.load(std::memory_order_acquire) && server.epoch() == 0) {
    std::this_thread::yield();
  }
  std::vector<index_t> coord(3);
  for (std::uint64_t q = 0; !stop.load(std::memory_order_acquire); ++q) {
    const KruskalSnapshot& cur = reader.acquire();
    for (std::size_t m = 0; m < 3; ++m) {
      coord[m] = rng() % cur.model.factors()[m].rows();
    }
    const bool predict = q % 2 == 0;
    const bool verify = q % kVerifyEvery == 0;
    const std::uint64_t published = server.epoch();
    double v = 0;
    std::vector<ScoredIndex> top;
    const auto t0 = Clock::now();
    if (predict) {
      v = reader.predict(coord);
    } else {
      top = reader.top_k(0, coord[0], 1, kTopK);
    }
    log.latency_us.push_back(seconds_since(t0) * 1e6);
    if (!verify) continue;
    const std::uint64_t answered = reader.cached_epoch();
    std::string bad = check_fresh(published, answered);
    if (bad.empty()) {
      const auto held = server.snapshot();
      if (held->epoch != answered) {
        // A publish landed after the answer; ask the sample again so that
        // every sample is checked against the snapshot it came from.
        --q;
        continue;
      }
      bad = predict ? check_predict(*held, answered, coord, v)
                    : check_top_k(*held, answered, 0, coord[0], 1, kTopK, top);
    }
    ++log.verified;
    if (!bad.empty() && log.wrong.size() < 4) log.wrong.push_back(bad);
  }
}

/// The CPUs this process may use, split in two: the last one for the query
/// thread, the rest for the solver's threads, so the closed-loop client and
/// the refresh do not trade cores mid-round. Empty sets when there is only
/// one CPU (nothing is pinned then).
struct CpuSplit {
  cpu_set_t solver{};
  cpu_set_t reader{};
  bool split = false;
};

CpuSplit split_cpus() {
  CpuSplit s;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    return s;
  }
  int last = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  s.solver = all;
  CPU_CLR(last, &s.solver);
  CPU_ZERO(&s.reader);
  CPU_SET(last, &s.reader);
  s.split = true;
  return s;
}

void pin_self(const cpu_set_t& cpus) {
  pthread_setaffinity_np(pthread_self(), sizeof cpus, &cpus);
}

void reader_main(const ModelServer& server, const std::atomic<bool>& stop,
                 std::uint64_t seed, const CpuSplit& cpus, ReaderLog& log) {
  if (cpus.split) pin_self(cpus.reader);
  try {
    reader_loop(server, stop, seed, log);
  } catch (const std::exception& e) {
    log.wrong.push_back(std::string("query thread failed: ") + e.what());
  }
}

/// Stops and joins the reader thread on every path out of a round.
struct ReaderGuard {
  std::atomic<bool>& stop;
  std::thread& thread;
  ~ReaderGuard() {
    stop.store(true, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
};

/// Time-ordered batches: batch b holds the events whose tick falls in the
/// b-th of `batches` equal tick ranges, so every seed replays the same
/// number of batches over the same window boundaries.
std::vector<CooTensor> split_by_tick(const CooTensor& events,
                                     std::size_t batches) {
  const std::uint64_t ticks = events.dim(kTimeMode);
  std::vector<CooTensor> out(batches, CooTensor(events.dims()));
  std::vector<index_t> c(3);
  for (std::uint64_t n = 0; n < events.nnz(); ++n) {
    for (std::size_t m = 0; m < 3; ++m) c[m] = events.index(m, n);
    out[c[kTimeMode] * batches / ticks].add(c, events.value(n));
  }
  return out;
}

/// The steps of one replay: new-event batches (plus re-scores of entries of
/// the previous batch) and, after every second one, a re-score-only batch.
std::vector<CooTensor> make_steps(const std::vector<CooTensor>& batches,
                                  double share, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.8, 1.2);
  std::vector<CooTensor> steps;
  const auto rescore = [&](const CooTensor& from, std::size_t count,
                           CooTensor& into) {
    std::vector<index_t> c(3);
    for (std::size_t k = 0; k < count && from.nnz() > 0; ++k) {
      const auto n = rng() % from.nnz();
      for (std::size_t m = 0; m < 3; ++m) c[m] = from.index(m, n);
      into.add(c, from.value(n) * jitter(rng));
    }
  };
  for (std::size_t b = 0; b < batches.size(); ++b) {
    CooTensor step = batches[b];
    if (b > 0) {
      rescore(batches[b - 1],
              static_cast<std::size_t>(share * batches[b].nnz()), step);
    }
    steps.push_back(std::move(step));
    if (b % 2 == 1) {
      CooTensor only(batches[b].dims());
      rescore(batches[b], static_cast<std::size_t>(share * batches[b].nnz()),
              only);
      steps.push_back(std::move(only));
    }
  }
  return steps;
}

/// The benchmark's own replay of the window semantics: last value per
/// distinct coordinate, restricted to time > watermark - window.
LiveSet expected_live(const std::vector<CooTensor>& steps,
                      std::uint32_t window) {
  LiveSet all;
  std::uint32_t watermark = 0;
  for (const CooTensor& s : steps) {
    for (std::uint64_t n = 0; n < s.nnz(); ++n) {
      watermark = std::max(watermark, s.index(kTimeMode, n));
    }
  }
  // Entries behind the window when they arrived were dropped; entries that
  // fell behind later were evicted. Either way only t > W - window lives.
  const std::uint32_t cutoff = watermark >= window ? watermark - window + 1 : 0;
  for (const CooTensor& s : steps) {
    for (std::uint64_t n = 0; n < s.nnz(); ++n) {
      const std::uint32_t t = s.index(kTimeMode, n);
      if (t < cutoff) continue;
      all[stream_key(s.index(0, n), s.index(1, n), t)] = s.value(n);
    }
  }
  return all;
}

}  // namespace

RunResult run_stream(const Workload& w, const RunOptions& o, Tracer& tr) {
  RunResult res;
  const std::string path = input_path(o.input_dir, w.input, o.seed);
  StreamingOptions sopts;
  sopts.time_mode = kTimeMode;
  sopts.window = kWindow;
  const CpdConfig cfg =
      CpdConfig()
          .with_rank(w.rank)
          .with_max_outer(kRefreshOuters)
          .with_tolerance(0)
          .with_constraints(
              ModeConstraints::broadcast({ConstraintKind::kNonNegative}));

  std::vector<double> setup_s, refresh_s, fit_s, err, replay_s, ingest,
      read_s, apply_s, wal_s, wal_mb_s, compile_s, solve_s, outers, rebuilds,
      patches, publish_s;
  std::vector<double> p50_us, p99_us;
  double queries = 0;
  double file_mb = 0;

  const CpuSplit cpus = split_cpus();
  if (cpus.split) {
    // Every thread of the solver's pool, the driving thread included.
#pragma omp parallel
    pin_self(cpus.solver);
  }

  const auto run_t0 = Clock::now();
  unsigned rounds = 0;
  while (rounds < 2 || seconds_since(run_t0) < o.seconds) {
    ++rounds;
    const Scoped round(tr, "round");
    const fs::path wal_dir =
        fs::path(o.work_dir) / ("wal-round" + std::to_string(rounds));
    fs::remove_all(wal_dir);

    // --- setup: load + split (timed), re-score input making (untimed),
    //     tensor/WAL/server/solver construction (timed) --------------------
    auto t0 = Clock::now();
    std::vector<CooTensor> batches;
    {
      Scoped s(tr, "tensor.read_tns_file");
      const CooTensor events = read_tns_file(path);
      read_s.push_back(s.stop());
      file_mb = static_cast<double>(fs::file_size(path)) / 1048576.0;
      batches = split_by_tick(events, kBatches);
    }
    double setup = seconds_since(t0);
    const std::vector<CooTensor> steps =
        make_steps(batches, kRescoreShare, o.seed + rounds);
    t0 = Clock::now();
    auto st = std::make_unique<StreamingTensor>(std::vector<index_t>{1, 1, 1},
                                                sopts);
    auto wal = std::make_unique<WriteAheadLog>((wal_dir / "log").string(),
                                               WalOptions{});
    ModelServer server;
    StreamingSolver solver(*st, cfg, &server);
    if (!o.trace) st->attach_wal(wal.get());
    setup += seconds_since(t0);
    setup_s.push_back(setup);

    // --- replay -------------------------------------------------------------
    std::atomic<bool> stop{false};
    ReaderLog rlog;
    std::thread reader([&] {
      reader_main(server, stop, o.seed * 7919 + rounds, cpus, rlog);
    });
    std::optional<ReaderGuard> guard(std::in_place, stop, reader);
    std::vector<std::uint64_t> epochs;
    double ingest_nnz = 0, ingest_s = 0, append_s = 0, fit = -1, last_err = 1;
    std::vector<double> round_refresh;
    const auto replay_t0 = Clock::now();
    for (const CooTensor& step : steps) {
      if (o.trace) {
        Scoped a(tr, "stream.wal_append");
        wal->append(step);
        const double s = a.stop();
        append_s += s;
        wal_s.push_back(s);
      }
      {
        Scoped a(tr, "stream.apply");
        st->apply(step);
        const double s = a.stop();
        ingest_s += s;
        apply_s.push_back(s);
      }
      ingest_nnz += static_cast<double>(step.nnz());
      Scoped r(tr, "stream.refresh");
      const RefreshReport rep = solver.refresh();
      round_refresh.push_back(r.stop());
      epochs.push_back(rep.epoch);
      compile_s.push_back(rep.compile_seconds);
      solve_s.push_back(rep.solve_seconds);
      outers.push_back(rep.outer_iterations);
      if (fit < 0 && rep.relative_error <= w.fit_target) {
        fit = seconds_since(replay_t0);
      }
      last_err = rep.relative_error;
      if (rounds == 1) {
        res.info["refresh_errors"] += (epochs.size() > 1 ? " " : "") +
                                      std::to_string(rep.relative_error);
      }
    }
    replay_s.push_back(seconds_since(replay_t0));
    guard.reset();
    err.push_back(last_err);
    if (o.trace) ingest_s += append_s;
    ingest.push_back(ingest_nnz / ingest_s);
    refresh_s.push_back(median(round_refresh));
    if (fit >= 0) fit_s.push_back(fit);
    p50_us.push_back(percentile(rlog.latency_us, 50));
    p99_us.push_back(percentile(rlog.latency_us, 99));
    queries += static_cast<double>(rlog.latency_us.size());
    rebuilds.push_back(st->stats().full_rebuilds);
    patches.push_back(st->stats().value_patches);
    res.attempted += 2 * steps.size() + rlog.latency_us.size();
    if (fit < 0) {
      ++res.failed;
      res.notes.push_back("no refresh reached the fit target");
    }

    // --- checks (untimed) -------------------------------------------------
    for (const auto& why : rlog.wrong) res.wrong(why);
    if (rlog.verified == 0) res.wrong("no query answer could be verified");
    std::string bad = check_epochs(epochs, 1);
    if (bad.empty()) {
      bad = check_live_set(st->coo(), expected_live(steps, kWindow));
    }
    if (!bad.empty()) res.wrong(bad);
    st->attach_wal(nullptr);
    wal.reset();  // closes the open segment
    double wal_bytes = 0;
    for (const auto& e : fs::directory_iterator(wal_dir)) {
      wal_bytes += static_cast<double>(e.file_size());
    }
    if (o.trace && append_s > 0) wal_mb_s.push_back(wal_bytes / 1048576.0 /
                                                    append_s);
    {
      StreamingTensor recovered(std::vector<index_t>{1, 1, 1}, sopts);
      WriteAheadLog log((wal_dir / "log").string(), WalOptions{});
      log.recover_into(recovered);
      if (recovered.state_digest() != st->state_digest()) {
        res.wrong("tensor recovered from the WAL has a different digest");
      }
    }
    fs::remove_all(wal_dir);
    if (o.trace) {
      // Publish cost, probed on a server of its own so the live epochs
      // stay one per refresh.
      ModelServer probe;
      KruskalTensor copy = solver.model();
      Scoped p(tr, "stream.publish");
      probe.publish(std::move(copy));
      publish_s.push_back(p.stop());
    }
  }
  res.info["rounds"] = std::to_string(rounds);
  res.rounds("setup_s", setup_s);
  res.rounds("solve_s", refresh_s);
  res.rounds("replay_s", replay_s);
  res.rounds("ingest_nnz_per_s", ingest);

  {
    const bool t = o.trace;
    res.end_to_end(t, "setup_s", median(setup_s), "s");
    res.end_to_end(t, "solve_s", median(refresh_s), "s");
    res.end_to_end(t, "time_to_fit_s", median(fit_s), "s");
    res.end_to_end(t, "final_rel_error", median(err), "1");
    res.end_to_end(t, "peak_rss_mb", peak_rss_mb(), "MiB");
    res.end_to_end(t, "replay_s", median(replay_s), "s");
    res.end_to_end(t, "ingest_nnz_per_s", median(ingest), "nnz/s");
    if (!t) return res;
  }
  res.set("tensor.read_s", median(read_s), "s");
  res.set("tensor.read_mb_per_s", file_mb / median(read_s), "MiB/s");
  res.set("stream.apply_s_per_batch", median(apply_s), "s");
  res.set("stream.wal_append_s_per_batch", median(wal_s), "s");
  res.set("stream.wal_mb_per_s", median(wal_mb_s), "MiB/s");
  res.set("stream.compile_s_per_refresh", mean(compile_s), "s");
  res.set("stream.solve_s_per_refresh", mean(solve_s), "s");
  res.set("stream.refresh_outers", mean(outers), "count");
  res.set("stream.full_rebuilds", median(rebuilds), "count");
  res.set("stream.value_patches", median(patches), "count");
  res.set("stream.publish_s", median(publish_s), "s");
  res.set("stream.queries_done", queries, "count");
  res.set("stream.query_p50_us", median(p50_us), "us");
  res.set("stream.query_p99_us", median(p99_us), "us");
  return res;
}

}  // namespace perfbench
