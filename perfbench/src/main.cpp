// perfbench: end-to-end AO-ADMM benchmark driver.
//
//   perfbench gen --workload W --seed S --dir D
//       write the workload's seeded input tensor(s) as .tns under D
//       (skipped when present), outside any timed region.
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --inputs D --work D [--commit C]
//       run the workload; the last stdout line is the JSON result.
//   perfbench curve --workload W --seed S --inputs D
//       print the error trace of one solve (how fit targets were placed).
//   perfbench selftest
//       feed every output checker a corrupted output; exit 1 unless all
//       corruptions are rejected.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "checks.hpp"
#include "parallel/runtime.hpp"
#include "tensor/io.hpp"
#include "tensor/synthetic.hpp"

namespace perfbench {

using aoadmm::SyntheticSpec;

// ---------------------------------------------------------------------------
// Workloads. Sizes keep one round (load → compile → solve → serve) near one
// to three seconds on a 4-core host, so a 10 s run takes medians over
// several rounds.

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload o3;
    o3.name = "o3-hypersparse";
    o3.input = "o3";
    o3.spec.dims = {40000, 500, 4000};
    o3.spec.nnz = 1000000;
    o3.spec.zipf_alpha = {1.3};
    o3.fit_target = 0.90;
    v.push_back(o3);

    Workload sh = o3;
    sh.name = "o3-sharded";
    sh.kind = Kind::kSharded;
    v.push_back(sh);

    Workload cm;
    cm.name = "completion-masked";
    cm.kind = Kind::kCompletion;
    cm.input = "ratings";
    cm.spec.dims = {2000, 1500, 800};
    cm.spec.nnz = 300000;
    cm.spec.zipf_alpha = {1.0};
    cm.fit_target = 0.30;
    v.push_back(cm);

    Workload st;
    st.name = "stream-replay";
    st.kind = Kind::kStream;
    st.input = "events";
    st.spec.dims = {20000, 4000, 48};
    st.spec.nnz = 300000;
    st.spec.zipf_alpha = {1.1, 1.1, 0.0};
    st.threads = 3;
    st.fit_target = 0.9;
    v.push_back(st);
    return v;
  }();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

SyntheticSpec completion_fixed_spec() {
  SyntheticSpec s;
  s.dims = {2000, 1500, 800};
  s.nnz = 300000;
  s.zipf_alpha = {1.0};
  s.true_rank = 8;
  s.noise = 0.1;
  s.seed = 2017;
  return s;
}

std::string input_path(const std::string& dir, const std::string& input,
                       std::uint64_t seed) {
  return dir + "/" + input + "-seed" + std::to_string(seed) + ".tns";
}

SyntheticSpec base_spec(const Workload& w) {
  SyntheticSpec s = w.spec;
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : w.input) h = (h ^ static_cast<unsigned char>(c)) *
                                   1099511628211ULL;
  s.seed = h;
  return s;
}

aoadmm::CooTensor seeded_input(const Workload& w, std::uint64_t seed) {
  const SyntheticSpec base = base_spec(w);
  const aoadmm::CooTensor x = aoadmm::make_synthetic(base);
  // One fixed random relabeling per input, the same for every seed: the
  // blocked ADMM's work depends on which rows share a block, so a seeded
  // relabeling would change the work a run measures (see README). The
  // stream's time mode keeps its ticks: only users and items move.
  std::mt19937_64 layout(base.seed);
  const std::size_t relabeled = w.kind == Kind::kStream ? 2 : x.order();
  std::vector<std::vector<std::uint32_t>> perm(relabeled);
  for (std::size_t m = 0; m < relabeled; ++m) {
    perm[m].resize(x.dim(m));
    std::iota(perm[m].begin(), perm[m].end(), 0u);
    std::shuffle(perm[m].begin(), perm[m].end(), layout);
  }
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  aoadmm::CooTensor out(x.dims());
  out.reserve(x.nnz());
  std::uniform_real_distribution<double> jitter(0.99, 1.01);
  std::vector<std::uint32_t> c(x.order());
  for (std::uint64_t n = 0; n < x.nnz(); ++n) {
    for (std::size_t m = 0; m < x.order(); ++m) {
      c[m] = m < relabeled ? perm[m][x.index(m, n)] : x.index(m, n);
    }
    out.add(c, x.value(n) * jitter(rng));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics, tracer, memory.

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (p == 50) {
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i ? "," : "", s.name.c_str(), s.start_ns * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3, i, s.parent);
    out << buf << '\n';
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// ---------------------------------------------------------------------------
// Input generation: make_synthetic, written with the library's .tns writer
// (round-trip precision) to a temporary name and renamed, so an interrupted
// run never leaves a partial input behind.

void write_input(const aoadmm::CooTensor& x, const std::string& path) {
  const std::string tmp = path + ".tmp";
  aoadmm::write_tns_file(x, tmp);
  std::filesystem::rename(tmp, path);
}

void generate(const Workload& w, std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = input_path(dir, w.input, seed);
  if (!std::filesystem::exists(path)) {
    write_input(seeded_input(w, seed), path);
  }
  if (w.kind == Kind::kCompletion) {
    const std::string fixed = input_path(dir, "completion-fixed", 0);
    if (!std::filesystem::exists(fixed)) {
      write_input(aoadmm::make_synthetic(completion_fixed_spec()), fixed);
    }
  }
}

// ---------------------------------------------------------------------------
// STREAM-style triad a = b + s*c over arrays each at least 4x the last-level
// cache, best of five passes (bytes counted as 3 x 8 per element).

std::size_t llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s && !s.empty()) {
    std::size_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    return static_cast<std::size_t>(std::stoull(s)) * mult;
  }
  return 32u << 20;
}

double triad_gb_per_s(RunResult& res) {
  const std::size_t llc = llc_bytes();
  const std::size_t n = 4 * llc / sizeof(double) + 1;
  std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, seconds_since(t0));
  }
  if (a[n / 2] != b[n / 2] + 6.0) res.wrong("triad probe computed wrongly");
  res.info["triad_array_mib"] = std::to_string(n * sizeof(double) >> 20);
  res.info["llc_mib"] = std::to_string(llc >> 20);
  return 3.0 * sizeof(double) * static_cast<double>(n) / best / 1e9;
}

// Every per-layer metric, in report order, with its unit. A workload that
// does not exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> v = {
      {"tensor.read_s", "s"},
      {"tensor.read_mb_per_s", "MiB/s"},
      {"tensor.csf_build_s", "s"},
      {"tensor.csf_mb", "MiB"},
      {"mttkrp.s_per_outer", "s"},
      {"mttkrp.mode0_s", "s"},
      {"mttkrp.mode1_s", "s"},
      {"mttkrp.mode2_s", "s"},
      {"mttkrp.probe_s", "s"},
      {"mttkrp.first_outer_s", "s"},
      {"mttkrp.imbalance", "1"},
      {"mttkrp.gflops_computed", "GFLOP/s"},
      {"mttkrp.bw_frac_computed", "1"},
      {"la.gram_s", "s"},
      {"la.cholesky_s", "s"},
      {"core.admm_s_per_outer", "s"},
      {"core.admm_row_iters_per_outer", "count"},
      {"core.admm_probe_s", "s"},
      {"core.admm_inner_iters_per_outer", "count"},
      {"core.outers_to_fit", "count"},
      {"core.other_s_per_outer", "s"},
      {"core.outer_iterations", "count"},
      {"core.loss_admm_s_per_outer", "s"},
      {"parallel.thread_imbalance", "1"},
      {"dist.plan_build_s", "s"},
      {"dist.exchange_mb_per_outer", "MiB"},
      {"dist.exchange_msgs_per_outer", "count"},
      {"dist.shard_imbalance", "1"},
      {"dist.coordinator_admm_s_per_outer", "s"},
      {"stream.apply_s_per_batch", "s"},
      {"stream.wal_append_s_per_batch", "s"},
      {"stream.wal_mb_per_s", "MiB/s"},
      {"stream.compile_s_per_refresh", "s"},
      {"stream.solve_s_per_refresh", "s"},
      {"stream.refresh_outers", "count"},
      {"stream.full_rebuilds", "count"},
      {"stream.value_patches", "count"},
      {"stream.publish_s", "s"},
      {"stream.queries_done", "count"},
      {"stream.query_p50_us", "us"},
      {"stream.query_p99_us", "us"},
      {"mem.triad_gb_per_s", "GB/s"},
  };
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string result_json(const RunResult& r) {
  std::ostringstream s;
  s << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    s << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
      << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  s << "}}";
  return s.str();
}

std::string report_json(const RunResult& r, const RunOptions& o,
                        const std::map<std::string, std::string>& prov) {
  std::ostringstream s;
  s << "{\n  \"workload\": \"" << o.workload << "\",\n  \"seed\": " << o.seed
    << ",\n  \"seconds\": " << num(o.seconds)
    << ",\n  \"trace\": " << (o.trace ? 1 : 0) << ",\n  \"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : prov) {
    s << (first ? "" : ", ") << '"' << k << "\": \"" << json_escape(v) << '"';
    first = false;
  }
  s << "},\n  \"info\": {";
  first = true;
  for (const auto& [k, v] : r.info) {
    s << (first ? "" : ", ") << '"' << k << "\": \"" << json_escape(v) << '"';
    first = false;
  }
  s << "},\n  \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    s << (i ? ", " : "") << '"' << json_escape(r.notes[i]) << '"';
  }
  s << "],\n  \"result\": " << result_json(r) << "\n}\n";
  return s.str();
}

struct Args {
  std::string cmd;
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    if (it != kv.end()) return it->second;
    if (def.empty()) throw std::invalid_argument("missing --" + k);
    return def;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run|selftest");
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument '" + k + "'");
    }
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

int run(const Args& a) {
  RunOptions o;
  o.workload = a.get("workload");
  o.seed = std::stoull(a.get("seed"));
  o.seconds = std::stod(a.get("seconds"));
  o.trace = a.get("trace") == "1";
  o.input_dir = a.get("inputs");
  o.work_dir = a.get("work");
  const Workload& w = find_workload(o.workload);
  std::filesystem::create_directories(o.work_dir);

  std::map<std::string, std::string> prov;
  prov["threads"] = std::to_string(w.threads);
  prov["nproc"] = std::to_string(std::thread::hardware_concurrency());
#ifdef _OPENMP
  prov["omp_threads"] = std::to_string(omp_get_max_threads());
#else
  prov["omp_threads"] = "1 (no OpenMP)";
#endif
  prov["build_type"] = PERFBENCH_BUILD_TYPE;
  prov["compiler"] = std::string(PERFBENCH_COMPILER) + " " + __VERSION__;
  prov["commit"] = a.get("commit", "unknown");

  RunResult res;
  if (o.trace) o.triad_gb_per_s = triad_gb_per_s(res);  // all cores
  aoadmm::set_num_threads(w.threads);
  Tracer tracer(o.trace);
  RunResult wr = w.kind == Kind::kStream ? run_stream(w, o, tracer)
                                         : run_batch(w, o, tracer);
  wr.info.insert(res.info.begin(), res.info.end());
  for (const auto& n : res.notes) wr.notes.push_back(n);
  if (!res.correct) wr.correct = false;
  if (o.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (!wr.metrics.count(name)) wr.set(name, 0, unit);
    }
    wr.set("mem.triad_gb_per_s", o.triad_gb_per_s, "GB/s");
    const std::string trace_path = o.work_dir + "/trace-" + o.workload +
                                   "-seed" + std::to_string(o.seed) + ".json";
    tracer.write_chrome_json(trace_path);
    wr.info["chrome_trace"] = trace_path;
  }
  const std::string report = o.work_dir + "/report-" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
  std::ofstream(report) << report_json(wr, o, prov);
  std::vector<std::string> notes = wr.notes;
  notes.erase(std::unique(notes.begin(), notes.end()), notes.end());
  for (const auto& n : notes) std::cout << "# " << n << '\n';
  std::cout << "# report: " << report << '\n';
  std::cout << result_json(wr) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse(argc, argv);
    if (a.cmd == "gen") {
      generate(find_workload(a.get("workload")), std::stoull(a.get("seed")),
               a.get("dir"));
      return 0;
    }
    if (a.cmd == "run") return run(a);
    if (a.cmd == "curve") {
      RunOptions o;
      o.seed = std::stoull(a.get("seed"));
      o.input_dir = a.get("inputs");
      print_curve(find_workload(a.get("workload")), o);
      return 0;
    }
    if (a.cmd == "selftest") {
      return run_selftest() == 0 ? 0 : 1;
    }
    throw std::invalid_argument("unknown command '" + a.cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
