// perfbench — the repository benchmark: everywhere-BA instances run as a
// closed loop (one client; each instance starts when the previous one has
// decided), with every instance's outputs checked.
//
//   perfbench --workload NAME --seed S --seconds R --trace 0|1
//             [--quick] [--set key=value ...] [--out-dir DIR]
//   perfbench --workload NAME --describe     # the full spec, key=value
//
// Workloads start from the registered `quickstart` spec. --seconds sets the
// instance count (instance_count); seed S runs the instances at seed
// offsets 1000*S, 1000*S+1, ... so every instance is a replayable job line
// (written to <out-dir>/<workload>-seed<S>.jobs; replay with
// `ba_run --jobs-file` or `ba_launch`).
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it also replays every instance from the library's public
// pieces under spans (replay.h), checks the replay against the untraced
// report, probes the crypto kernels, and reports the per-layer metrics; the
// spans go to <out-dir>/<workload>-seed<S>.trace.json.
//
// Output: one JSON record per instance and a host record, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "common/simd.h"
#include "replay.h"
#include "sim/protocol.h"
#include "sim/sweep.h"
#include "trace.h"
#include "transport/launch.h"

extern char** environ;

namespace {

namespace sim = ba::sim;
using perfbench::Clock;
using perfbench::secs;

/// A workload's reason for being here is recorded in BENCHMARK.json.
struct Workload {
  const char* name;
  /// spec.apply pairs on top of the registered quickstart spec.
  std::vector<std::pair<std::string, std::string>> overrides;
  std::size_t nodes;  ///< 0 = in-process; >= 2 = ba_node processes over TCP
  /// Seconds one loop iteration takes on a 4-core x86 host in a slow
  /// stretch, untraced and traced. They turn --seconds into a fixed
  /// instance count, so a seed always runs the same instances.
  double iteration_s[2];
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"lying_n256_w1",
       {{"n", "256"}, {"adversary", "static_malicious"}, {"workers", "1"}},
       0,
       {4.2, 8.4}},
      {"crash_n256_w2",
       {{"n", "256"}, {"adversary", "crash"}, {"workers", "2"}},
       0,
       {1.4, 2.8}},
      {"tcp2_n128_w1",
       {{"n", "128"}, {"adversary", "static_malicious"}, {"workers", "1"}},
       2,
       {6.5, 9.5}},
  };
  return all;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;  ///< n=32, at most 2 instances (the benchmark's tests)
  bool probe = false;  ///< set up, run the warm-up instance, exit
  bool describe = false;
  std::vector<std::pair<std::string, std::string>> sets;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string git_commit = "unknown";
};

/// Instances in one run: as many as fit the --seconds window at the
/// workload's nominal iteration time, at least 3; 2 in quick mode.
std::size_t instance_count(const Workload& w, const Options& o) {
  if (o.quick) return 2;
  const double fit = std::floor(o.seconds / w.iteration_s[o.trace ? 1 : 0]);
  return static_cast<std::size_t>(std::max(3.0, fit));
}

/// A run stops starting instances after this long, so that it ends within
/// the 180 s a run may take even when the host is far slower than nominal.
constexpr double kHardStopS = 120;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload: " + name);
}

sim::ScenarioSpec resolve_spec(const Workload& w, const Options& o) {
  sim::ScenarioSpec s = sim::ScenarioRegistry::get("quickstart");
  for (const auto& [k, v] : w.overrides) s.apply(k, v);
  if (o.quick) s.apply("n", "32");
  for (const auto& [k, v] : o.sets) s.apply(k, v);
  s.name = w.name;
  s.note = std::string("perfbench workload ") + w.name;
  return s;
}

/// First seed offset of the run: seeds own disjoint blocks of 1000.
std::uint64_t base_offset(const Options& o) { return o.seed * 1000; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// The highest percentile with at least 10 samples beyond it, when that is
/// at or above the median (22 samples or more); otherwise the maximum.
/// Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {0.0, 0.0};
  if (n < 22) return {v.back(), 100.0};
  const std::size_t k = n - 11;  // v[k+1..n-1] are the 10 beyond
  return {v[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)};
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double loadavg_1min() {
  std::ifstream in("/proc/loadavg");
  double v = -1;
  in >> v;
  return v;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#else
  return "gcc " __VERSION__;
#endif
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A one-line JSON object built key by key.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    return raw(k, sim::json_double(v));
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& flag(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Json& raw(const std::string& k, const std::string& json) {
    s_ += s_.size() > 1 ? "," : "";
    s_ += quote(k) + ":" + json;
    return *this;
  }
  std::string done() const { return s_ + "}"; }

 private:
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
        continue;
      }
      q += c;
    }
    return q + "\"";
  }
  std::string s_ = "{";
};

/// Why an instance failed, or "" when its outputs are right.
std::string check_outcome(const sim::RunReport& r) {
  if (r.decided_bit != 0 && r.decided_bit != 1) return "no decision";
  if (r.all_good_agree != 1) return "good processors disagree";
  if (r.validity != 1) return "validity broken";
  if (r.rounds == 0 || r.max_bits_good == 0) return "empty run";
  return "";
}

/// Set-up: pin the pool to the workload's workers and run one warm-up
/// instance at n=32, so lazily built state (pool threads, first-touch
/// pages) is ready before the first timed instance. The warm-up's outcome
/// is not an instance of the workload; it only has to run to a decision.
void set_up(const sim::ScenarioSpec& spec, std::uint64_t offset) {
  ba::Pool::set_threads(spec.workers);
  const sim::ScenarioSpec warm =
      spec.with_n(std::min<std::size_t>(spec.n, 32));
  if (sim::run_scenario(warm, offset).rounds == 0)
    throw std::runtime_error("the warm-up instance ran no round");
}

/// Set-up probes per end-to-end run: one before each of the first
/// kProbes instances, and the rest after the last instance.
constexpr std::size_t kProbes = 9;

/// Wall time of a fresh copy of this program doing set-up only (--probe):
/// process start, spec resolution and set_up.
double probe_setup_seconds(const Options& o) {
  std::vector<std::string> args = {
      "perfbench", "--probe", "--workload", o.workload,
      "--seed", std::to_string(o.seed)};
  if (o.quick) args.push_back("--quick");
  for (const auto& [k, v] : o.sets) {
    args.push_back("--set");
    args.push_back(k + "=" + v);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const Clock::time_point t0 = Clock::now();
  pid_t pid = -1;
  if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0)
    throw std::runtime_error("cannot spawn the set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw std::runtime_error("lost the set-up probe");
  const double s = secs(Clock::now() - t0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up probe failed");
  return s;
}

/// One closed-loop instance (plus, traced, its replay).
struct Instance {
  std::uint64_t offset = 0;
  sim::RunReport report;  ///< run_scenario's, or the TCP oracle's
  double wall_s = 0;      ///< in-process run, or the slowest node's run
  double peak_rss_mb = 0;
  std::string failure;    ///< "" = outputs checked and right
  // TCP only.
  double fleet_overhead_s = 0;      ///< fleet wall - slowest node - oracle
  double transport_overhead_s = 0;  ///< slowest node - oracle
  std::uint64_t frames_sent = 0, bytes_sent = 0;
  double cpu_s = 0;  ///< CPU of the processes running the instance
  // Traced run only.
  perfbench::LayerSample layers;
  std::vector<std::string> mismatches;  ///< equivalence guard
};

double extra(const sim::RunReport& r, const std::string& key) {
  for (const auto& [k, v] : r.extras)
    if (k == key) return v;
  return 0.0;
}

Instance run_tcp(const Workload& w, const sim::ScenarioSpec& spec,
                 std::uint64_t off, std::size_t index) {
  Instance in;
  in.offset = off;
  ba::transport::LaunchConfig cfg;
  cfg.node_bin = PERFBENCH_NODE_BIN;
  cfg.nodes = w.nodes;
  cfg.spec = spec;
  cfg.seed_offset = off;
  cfg.port_base = static_cast<std::uint16_t>(
      20000 + (static_cast<std::uint32_t>(::getpid()) * 131u +
               static_cast<std::uint32_t>(index * w.nodes)) %
                  20000u);
  cfg.timeout_ms = 60000;
  cfg.timing = true;
  const double cpu0 = cpu_seconds(RUSAGE_CHILDREN);
  const Clock::time_point t0 = Clock::now();
  const ba::transport::LaunchOutcome out = ba::transport::launch_local(cfg);
  const double fleet_s = secs(Clock::now() - t0);
  in.cpu_s = (cpu_seconds(RUSAGE_CHILDREN) - cpu0) /
             static_cast<double>(w.nodes);
  in.report = out.oracle;
  for (const auto& node : out.nodes) {
    in.wall_s = std::max(in.wall_s, node.report.wall_ms / 1000);
    in.peak_rss_mb = std::max(
        in.peak_rss_mb, static_cast<double>(node.report.peak_rss_kb) / 1024);
    in.frames_sent += static_cast<std::uint64_t>(
        extra(node.report, "transport_frames_sent"));
    in.bytes_sent += static_cast<std::uint64_t>(
        extra(node.report, "transport_bytes_sent"));
  }
  const double oracle_s = out.oracle.wall_ms / 1000;
  in.fleet_overhead_s = fleet_s - in.wall_s - oracle_s;
  in.transport_overhead_s = in.wall_s - oracle_s;
  in.failure = out.parity() ? check_outcome(out.oracle)
                            : "parity: " + out.errors.front();
  return in;
}

Instance run_in_process(const sim::ScenarioSpec& spec, std::uint64_t off) {
  Instance in;
  in.offset = off;
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const Clock::time_point t0 = Clock::now();
  in.report = sim::run_scenario(spec, off);
  in.wall_s = secs(Clock::now() - t0);
  in.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
  in.peak_rss_mb = static_cast<double>(in.report.peak_rss_kb) / 1024;
  in.failure = check_outcome(in.report);
  return in;
}

std::string instance_record(const Options& o, const Instance& in, bool tcp) {
  Json j;
  j.str("record", "instance")
      .str("workload", o.workload)
      .count("seed_offset", in.offset)
      .str("fingerprint", hex64(in.report.fingerprint))
      .num("wall_s", in.wall_s)
      .count("max_bits_good", in.report.max_bits_good)
      .count("rounds", in.report.rounds)
      .num("peak_rss_mb", in.peak_rss_mb)
      .flag("ok", in.failure.empty());
  if (!in.failure.empty()) j.str("failure", in.failure);
  if (tcp)
    j.num("fleet_overhead_s", in.fleet_overhead_s)
        .num("transport_overhead_s", in.transport_overhead_s)
        .count("frames_sent", in.frames_sent)
        .count("bytes_sent", in.bytes_sent);
  if (o.trace) {
    const perfbench::LayerSample& l = in.layers;
    j.str("replay_fingerprint", hex64(l.fingerprint))
        .str("ledger_digest", hex64(l.ledger_digest))
        .num("replay_wall_s", l.wall_s)
        .num("tree_s", l.tree_s)
        .num("ae_s", l.ae_s)
        .num("a2e_s", l.a2e_s)
        .num("cpu_s", in.cpu_s)
        .flag("guard_ok", in.mismatches.empty());
    std::string why;
    for (const std::string& m : in.mismatches)
      why += (why.empty() ? "" : "; ") + m;
    if (!why.empty()) j.str("guard", why);
  }
  return j.done();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
std::vector<double> column(const std::vector<Instance>& done, F field) {
  std::vector<double> v;
  for (const Instance& in : done) v.push_back(static_cast<double>(field(in)));
  return v;
}

std::vector<Metric> end_to_end(const std::vector<Instance>& done, bool tcp,
                               const std::vector<double>& probes,
                               std::size_t failed, Json& summary) {
  double setup_s = median(probes);
  if (tcp)
    setup_s += median(column(done, [](const Instance& in) {
      return in.fleet_overhead_s;
    }));
  const std::vector<double> walls =
      column(done, [](const Instance& in) { return in.wall_s; });
  const auto [tail_s, tail_pct] = tail(walls);
  // In process: the benchmark process's own high-water mark; over TCP:
  // the largest over every node of every instance.
  double rss_mb = static_cast<double>(sim::current_peak_rss_kb()) / 1024;
  if (tcp) {
    const std::vector<double> rss =
        column(done, [](const Instance& in) { return in.peak_rss_mb; });
    rss_mb = *std::max_element(rss.begin(), rss.end());
  }
  const double attempted = static_cast<double>(done.size());
  summary.num("instance_s.tail_percentile", tail_pct)
      .count("instance_s.samples", done.size())
      .num("failed_share", static_cast<double>(failed) / attempted);
  return {
      {"setup_s", setup_s, "s"},
      {"instance_s.p50", median(walls), "s"},
      {"instance_s.tail", tail_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"max_bits_good", median(column(done, [](const Instance& in) {
         return in.report.max_bits_good;
       })),
       "bits"},
      {"rounds", median(column(done, [](const Instance& in) {
         return in.report.rounds;
       })),
       "count"},
      {"ok_share", (attempted - static_cast<double>(failed)) / attempted,
       "share"},
  };
}

std::vector<Metric> per_layer(const std::vector<Instance>& done,
                              const perfbench::CryptoCosts& crypto,
                              std::size_t workers, bool tcp) {
  const auto med = [&](auto field) { return median(column(done, field)); };
  using L = const Instance&;
  // Over TCP the in-process counterpart of the replay is the oracle run.
  const double untraced_s = med([tcp](L in) {
    return tcp ? in.report.wall_ms / 1000 : in.wall_s;
  });
  return {
      {"tree.build_s", med([](L in) { return in.layers.tree_s; }), "s"},
      {"core.ae_s", med([](L in) { return in.layers.ae_s; }), "s"},
      {"core.a2e_s", med([](L in) { return in.layers.a2e_s; }), "s"},
      {"core.remainder_s",
       med([](L in) {
         const perfbench::LayerSample& l = in.layers;
         return l.wall_s - l.tree_s - l.ae_s - l.a2e_s;
       }),
       "s"},
      {"core.ae_bits_good_max",
       med([](L in) { return in.layers.ae_bits_good_max; }), "bits"},
      {"core.a2e_bits_good_max",
       med([](L in) { return in.layers.a2e_bits_good_max; }), "bits"},
      {"aeba.round_s", med([](L in) { return in.layers.aeba_round_s; }), "s"},
      {"share_flow.round_s",
       med([](L in) { return in.layers.share_flow_round_s; }), "s"},
      {"net.envelopes", med([](L in) { return in.layers.envelopes; }),
       "count"},
      {"net.rounds", med([](L in) { return in.layers.net_rounds; }), "count"},
      {"crypto.decode_damaged_us_per_word", crypto.decode_damaged_us, "us"},
      {"crypto.decode_clean_us_per_word", crypto.decode_clean_us, "us"},
      {"crypto.deal_us_per_word", crypto.deal_us, "us"},
      {"pool.cpu_s", med([](L in) { return in.cpu_s; }), "s"},
      {"pool.utilization",
       med([&](L in) {
         return in.cpu_s / (in.wall_s * static_cast<double>(workers));
       }),
       "share"},
      {"transport.frames_sent", med([](L in) { return in.frames_sent; }),
       "count"},
      {"transport.bytes_sent", med([](L in) { return in.bytes_sent; }), "B"},
      {"transport.overhead_s",
       med([](L in) { return in.transport_overhead_s; }), "s"},
      {"trace.overhead",
       med([](L in) { return in.layers.wall_s; }) / untraced_s - 1, "share"},
  };
}

int run(const Workload& w, const Options& o, const sim::ScenarioSpec& spec) {
  const double load_before = loadavg_1min();
  const bool tcp = w.nodes > 0;
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);

  set_up(spec, base_offset(o));

  perfbench::Tracer tracer;
  perfbench::CryptoCosts crypto;
  if (o.trace)
    crypto = perfbench::crypto_probe(spec, base_offset(o), tracer, -1);

  // The closed loop over a fixed number of instances. The end-to-end run
  // also times set-up in fresh processes, one probe before each of the
  // first instances, so the probes sample the same stretch of time as the
  // instances.
  std::vector<double> probes;
  const auto probe = [&] { probes.push_back(probe_setup_seconds(o)); };
  std::vector<Instance> done;
  std::ofstream jobs(stem + ".jobs");
  std::ofstream records(stem + "-trace" + (o.trace ? "1" : "0") + ".ndjson");
  const std::size_t planned = instance_count(w, o);
  const Clock::time_point loop_start = Clock::now();
  while (done.size() < planned &&
         secs(Clock::now() - loop_start) < kHardStopS) {
    if (!o.trace && probes.size() < kProbes) probe();
    const std::uint64_t off = base_offset(o) + done.size();
    // Traced, the replay runs before the untraced run on every other
    // instance, so that order effects cancel out of trace.overhead.
    const bool replay_first = o.trace && done.size() % 2 == 1;
    perfbench::LayerSample layers;
    if (replay_first) layers = perfbench::traced_replay(spec, off, tracer, -1);
    Instance in = tcp ? run_tcp(w, spec, off, done.size())
                      : run_in_process(spec, off);
    if (o.trace) {
      if (!replay_first)
        layers = perfbench::traced_replay(spec, off, tracer, -1);
      in.layers = layers;
      in.mismatches = perfbench::equivalence_mismatches(in.layers, in.report);
    }
    jobs << sim::format_job_line(sim::SweepJob{spec, off}) << '\n';
    const std::string record = instance_record(o, in, tcp);
    std::cout << record << '\n';
    records << record << '\n';
    done.push_back(std::move(in));
  }
  while (!o.trace && probes.size() < kProbes) probe();

  std::size_t failed = 0;
  for (const Instance& in : done) failed += in.failure.empty() ? 0 : 1;
  bool correct = failed == 0;
  Json summary;
  summary.str("record", "summary")
      .str("workload", o.workload)
      .count("seed", o.seed)
      .flag("trace", o.trace)
      .count("planned_instances", planned)
      .num("loop_s", secs(Clock::now() - loop_start))
      .str("jobs", stem + ".jobs");
  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = end_to_end(done, tcp, probes, failed, summary);
    std::string probe_list;
    for (double p : probes)
      probe_list += (probe_list.empty() ? "" : ",") + sim::json_double(p);
    summary.raw("setup_probes_s", "[" + probe_list + "]");
  } else {
    bool guard_ok = true;
    for (const Instance& in : done) guard_ok &= in.mismatches.empty();
    const std::vector<std::string> problems = tracer.problems();
    for (const std::string& p : problems)
      std::cerr << "perfbench: span " << p << '\n';
    correct &= guard_ok && problems.empty() && crypto.correct;
    metrics = per_layer(done, crypto, ba::Pool::num_threads(), tcp);
    std::ofstream chrome(stem + ".trace.json");
    tracer.write_chrome(chrome);
    summary.flag("equivalence_guard_ok", guard_ok)
        .count("span_problems", problems.size())
        .flag("crypto_probe_ok", crypto.correct)
        .str("trace_file", stem + ".trace.json");
  }
  for (const Metric& m : metrics) correct &= std::isfinite(m.value);
  std::cout << summary.done() << '\n';

  Json host;
  host.str("record", "host")
      .count("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("simd", ba::simd::backend())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", compiler())
      .str("git_commit", o.git_commit)
      .num("loadavg_1m_before", load_before)
      .num("loadavg_1m_after", loadavg_1min());
  std::cout << host.done() << '\n';

  Json values;
  for (const Metric& m : metrics)
    values.raw(m.name, Json().num("value", m.value).str("unit", m.unit).done());
  Json result;
  result.flag("correct", correct)
      .count("attempted", done.size())
      .count("failed", failed)
      .raw("metrics", values.done());
  std::cout << result.done() << std::endl;
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed S] [--seconds R] "
               "[--trace 0|1]\n"
               "                 [--quick] [--set key=value ...] "
               "[--out-dir DIR] [--git-commit REV]\n"
               "                 [--describe | --probe]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") o.quick = true;
    else if (arg == "--probe") o.probe = true;
    else if (arg == "--describe") o.describe = true;
    else if (!has_value) return usage();
    else if (arg == "--workload") o.workload = argv[++i];
    else if (arg == "--seed") o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(argv[++i], nullptr);
    else if (arg == "--trace") o.trace = std::string(argv[++i]) == "1";
    else if (arg == "--out-dir") o.out_dir = argv[++i];
    else if (arg == "--git-commit") o.git_commit = argv[++i];
    else if (arg == "--set") {
      const std::string kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) return usage();
      o.sets.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      return usage();
    }
  }
  if (o.workload.empty()) return usage();
  try {
    const Workload& w = find_workload(o.workload);
    const sim::ScenarioSpec spec = resolve_spec(w, o);
    if (o.describe) {
      for (const auto& [k, v] : spec.to_kv())
        std::cout << k << '=' << v << '\n';
      return 0;
    }
    if (o.probe) {
      set_up(spec, base_offset(o));
      return 0;
    }
    return run(w, o, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
