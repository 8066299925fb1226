// Shared pieces of the end-to-end benchmark: workload specs, the span
// tracer, metric collection and small statistics helpers.
//
// The benchmark drives the aoadmm library only through its public API. Every
// measurement is taken from outside the library: spans wrap the calls this
// program makes into a layer, and layer counters come from the values the
// library already returns (KernelBreakdown, MetricsSnapshot, ExchangeStats,
// RefreshReport, StreamingStats).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/coo.hpp"
#include "tensor/synthetic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Tracing: spans with name, start, end and parent, kept in memory and written
// as Chrome-trace JSON when the run ends. Disabled tracers record nothing.

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 = root
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled). Spans are opened and closed by the driving thread only.
  int open(const char* name);
  void close(int id);
  void write_chrome_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

/// RAII span that also measures its own duration, so untraced runs take
/// their timings from the same boundaries as traced ones.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name) : t_(t), id_(t.open(name)),
                                        t0_(Clock::now()) {}
  ~Scoped() { stop(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  /// Close the span early; returns its duration in seconds.
  double stop() {
    if (!done_) {
      elapsed_ = seconds_since(t0_);
      t_.close(id_);
      done_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer& t_;
  int id_;
  Clock::time_point t0_;
  bool done_ = false;
  double elapsed_ = 0;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable reasons for correct=false or failed operations.
  std::vector<std::string> notes;
  /// Extra report fields (sizes, targets, provenance), free-form.
  std::map<std::string, std::string> info;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  /// End-to-end metric: reported by untraced runs; traced runs keep it in
  /// the report file only, where it shows the tracing overhead.
  void end_to_end(bool traced, const std::string& name, double value,
                  const char* unit) {
    if (traced) {
      info["traced." + name] = std::to_string(value) + " " + unit;
    } else {
      set(name, value, unit);
    }
  }
  /// Per-round values of a metric, kept in the report file.
  void rounds(const std::string& name, const std::vector<double>& values) {
    std::string& out = info["round." + name];
    for (const double v : values) {
      out += (out.empty() ? "" : " ") + std::to_string(v);
    }
  }
  void wrong(const std::string& why) {
    correct = false;
    notes.push_back("INCORRECT: " + why);
  }
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kBatch, kSharded, kCompletion, kStream };

struct Workload {
  std::string name;
  Kind kind = Kind::kBatch;
  /// Base tensor the seeded inputs are relabelings of (completion: the
  /// tensor of the one-outer measured solve).
  aoadmm::SyntheticSpec spec;
  /// Short name of the generated input, shared between workloads that
  /// solve the same tensor (o3-hypersparse and o3-sharded).
  std::string input;
  unsigned rank = 16;
  unsigned outers = 20;
  /// time_to_fit_s target error (see README for how each was placed).
  double fit_target = 0;
  int threads = 4;
};

/// Every workload, in report order.
const std::vector<Workload>& workloads();
const Workload& find_workload(const std::string& name);

/// completion-masked: the seed-independent input of the full masked solve
/// that the known convergence fault makes fail on every run.
aoadmm::SyntheticSpec completion_fixed_spec();

/// Path of a workload input inside `dir` for a given seed.
std::string input_path(const std::string& dir, const std::string& input,
                       std::uint64_t seed);

/// The tensor a workload loads for `seed`: the workload's base tensor
/// (make_synthetic with a fixed per-input seed) with every mode relabeled
/// by a fixed random permutation (the stream's time mode excepted) and
/// each value scaled by a seeded factor in [0.99, 1.01]. Seeds thus change
/// the values a run sees but not the work its sparsity pattern implies.
aoadmm::CooTensor seeded_input(const Workload& w, std::uint64_t seed);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string input_dir;
  std::string work_dir;    // scratch (WAL segments) and trace output
  /// Triad bandwidth of this run (traced runs only), the roofline reference.
  double triad_gb_per_s = 0;
};

RunResult run_batch(const Workload& w, const RunOptions& o, Tracer& tracer);
RunResult run_stream(const Workload& w, const RunOptions& o, Tracer& tracer);

/// Print the error trace of one solve of a batch workload (outer, seconds,
/// relative error), the data each time_to_fit_s target was placed on.
void print_curve(const Workload& w, const RunOptions& o);

/// Process peak resident set in MiB.
double peak_rss_mb();

}  // namespace perfbench
