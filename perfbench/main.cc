// lvm_perfbench: the host-performance benchmark's main program (perfbench/README.md).
//
//   lvm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--data-dir DIR] [--trace-out PATH] [--scale F]
//                 [--episode-log PATH]
//
// Runs one warm-up episode, then fixed-work episodes of the workload until
// S seconds have passed (at least kMinEpisodes), and prints a summary on
// stderr and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics, each the median
// over the untraced episodes of a calibrated host timing (see
// CalibrationMs). With --trace 1, traced and untraced episodes alternate
// and the metrics are the per-layer ones (medians over the traced
// episodes) plus trace.overhead_pct.
//
// Simulated counters must repeat exactly across the episodes of a seed;
// a mismatch aborts the run (exit 3) without a result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/sim/params.h"

namespace perfbench {

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values->size())));
  rank = std::clamp<size_t>(rank, 1, values->size()) - 1;
  std::nth_element(values->begin(), values->begin() + static_cast<std::ptrdiff_t>(rank),
                   values->end());
  return (*values)[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

constexpr size_t kMinEpisodes = 5;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks).
constexpr Metric kEndToEnd[] = {
    {"host_ops_per_s", "1/s"}, {"op_p50_us", "us"},       {"op_p99_us", "us"},
    {"setup_s", "s"},          {"recovery_s", "s"},       {"peak_rss_mib", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"lvm.system_ctor_ms", "ms"},
    {"tpc.setup_ms", "ms"},
    {"tpc.txn_self_ns", "ns"},
    {"rvm.begin_ns", "ns"},
    {"rvm.begin_calls", "count"},
    {"rvm.write_ns", "ns"},
    {"rvm.write_calls", "count"},
    {"rvm.read_ns", "ns"},
    {"rvm.read_calls", "count"},
    {"rvm.commit_ns", "ns"},
    {"rvm.commit_calls", "count"},
    {"rvm.truncate_ns", "ns"},
    {"rvm.truncate_calls", "count"},
    {"rvm.disk_bytes_per_txn", "B"},
    {"rvm.forces_per_txn", "count"},
    {"rvm.recover_records", "count"},
    {"sim.cycles_per_op", "cycles"},
    {"sim.logged_writes_per_op", "count"},
    {"logger.records_per_op", "count"},
    {"logger.overload_events", "count"},
    {"logger.records_dropped", "count"},
    {"bus.busy_cycles_per_op", "cycles"},
    {"par.worker_busy_share", "ratio"},
    {"par.host_speedup_x", "x"},
    {"par.start_join_ms", "ms"},
    {"par.overload_events", "count"},
    {"l2.stripe_contention", "count"},
    {"timewarp.execute_ns", "ns"},
    {"timewarp.kernel_self_ns", "ns"},
    {"timewarp.rollbacks_per_kevent", "count"},
    {"timewarp.efficiency", "ratio"},
    {"l2.fills_per_event", "count"},
    {"hostlvm.store_ns", "ns"},
    {"hostlvm.commit_ns", "ns"},
    {"hostlvm.commit_flush_ns", "ns"},
    {"wal.flushes_per_commit", "count"},
    {"wal.bytes_per_user_byte", "ratio"},
    {"hostlvm.open_ms", "ms"},
    {"hostlvm.replay_ms", "ms"},
    {"wal.records_replayed", "count"},
    {"obs.flight_events_per_op", "count"},
    {"trace.overhead_pct", "%"},
};

struct WorkloadInfo {
  const char* name;
  EpisodeFn fn;
  // The paper's sim_ops_per_s for this workload, 0 if it has none.
  double paper_sim_ops_per_s;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"rlvm_tpca", RunTpcaEpisode, 552.0},  // Table 3, RLVM TPC-A trans/s.
    {"par_shards", RunParEpisode, 0},
    {"timewarp_phold", RunPholdEpisode, 0},
    {"durable_commit", RunDurableEpisode, 0},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string data_dir = ".";
  std::string trace_out;
  // CSV of every untraced episode's raw timings and calibration-loop time,
  // for fitting a workload's calibration exponent.
  std::string episode_log;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "lvm_perfbench: %s\nusage: lvm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--trace-out PATH] [--scale F] "
               "[--episode-log PATH]\n",
               message);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      options.scale = std::strtod(value, nullptr);
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--episode-log") {
      options.episode_log = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(options.seconds > 0) || !(options.scale > 0)) {
    Usage("--seconds and --scale must be positive");
  }
  return options;
}

// Keeps the calibration loop's result observable, so it is not optimized out.
volatile uint32_t calibration_sink = 0;

// A field of /proc/self/status in MiB: "VmRSS" (resident now) or "VmHWM"
// (peak resident).
double StatusMib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = field + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

// Maps every page of the program's executable and libraries, so code and
// read-only data first run during an episode do not count towards its
// memory.
void MapProgramFiles() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  uint32_t sum = 0;
  while (std::getline(maps, line)) {
    unsigned long start = 0;
    unsigned long end = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &start, &end, perms) != 3 || perms[0] != 'r' ||
        line.find('/') == std::string::npos) {
      continue;
    }
    for (unsigned long page = start; page < end; page += 4096) {
      sum += *reinterpret_cast<const volatile uint8_t*>(page);
    }
  }
  calibration_sink = sum;
}

// CPUs this process may run on (what nproc prints).
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

// Host calibration (README, "Steadiness"). The host's memory system is
// shared with other tenants, and its speed drifts by up to ~2x for minutes
// at a time; every workload slows with it. A fixed loop of random
// read-modify-writes over 8 MiB runs between episodes. An episode's speed
// factor is the mean time of the loops just before and after it, over
// kReferenceCalibrationMs, raised to kCalibrationExponent; its host
// timings are divided by it. That estimates the time the episode would
// have taken on a host where the loop takes the reference time, and
// medians of it move less while the host drifts.
constexpr double kReferenceCalibrationMs = 4.0;
// The power of the loop time by which host timings are corrected. Fits
// over episodes and over runs bracket it between ~0.7 and ~1.5, and 1
// leaves the least spread across runs (README, "Steadiness").
constexpr double kCalibrationExponent = 1.0;


double CalibrationMs() {
  static std::vector<uint32_t> table(size_t{1} << 21);
  static uint64_t state = 1;
  uint32_t sum = 0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < (size_t{1} << 20); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t& slot = table[(state >> 40) & (table.size() - 1)];
    slot += static_cast<uint32_t>(state);
    sum += slot;
  }
  const int64_t end = NowNs();
  calibration_sink = sum;
  return static_cast<double>(end - start) / 1e6;
}

double HostRate(const Episode& episode) {
  return static_cast<double>(episode.ops) / episode.run_s;
}

// What a run keeps of an episode: raw host timings and the episode's
// speed factor. Per-op samples are reduced to percentiles at once, so
// memory does not grow with the episode count.
struct Sample {
  double loop_ms = 0;  // Mean calibration-loop time around the episode.
  double speed = 1;    // Divisor of its host timings (see CalibrationMs).
  double rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  double setup_s = 0;
  double recovery_s = 0;
  std::map<std::string, double> layers;

  double CalibratedRate() const { return rate * speed; }
};

Sample Reduce(Episode episode, double loop_ms, double speed) {
  Sample sample;
  sample.loop_ms = loop_ms;
  sample.speed = speed;
  sample.rate = HostRate(episode);
  sample.p50_us = Percentile(&episode.op_us, 50);
  sample.p99_us = Percentile(&episode.op_us, 99);
  sample.setup_s = episode.setup_s;
  sample.recovery_s = episode.recovery_s;
  sample.layers = std::move(episode.layers);
  return sample;
}

struct Run {
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  // par_shards, traced runs: untraced episodes at the traced worker count.
  std::vector<Sample> wide;
  uint64_t failed = 0;
  uint64_t attempted = 0;
};

void Account(Run* run, const Episode& episode) {
  run->attempted += episode.ops;
  run->failed += episode.failed;
}

void CheckDeterminism(const Episode& reference, const Episode& episode) {
  if (episode.fingerprint != reference.fingerprint) {
    std::fprintf(stderr,
                 "perfbench: determinism guard: episode counters differ for one seed\n"
                 "  first: %s\n  now:   %s\n",
                 reference.fingerprint.c_str(), episode.fingerprint.c_str());
    std::exit(3);
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<const Metric*, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first->name, metrics[i].second, metrics[i].first->unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  const WorkloadInfo* workload = nullptr;
  for (const WorkloadInfo& info : kWorkloads) {
    if (options.workload == info.name) {
      workload = &info;
    }
  }
  if (workload == nullptr) {
    Usage(("unknown workload " + options.workload).c_str());
  }
  const bool is_par = options.workload == std::string("par_shards");

  EpisodeConfig config;
  config.seed = options.seed;
  config.scale = options.scale;
  config.data_dir = options.data_dir;
  // par_shards: the end-to-end episodes drive one worker, because at
  // several workers the host rate swings with how the threads happen to
  // overlap (README, "Steadiness"); the traced run adds min(4, nproc)
  // workers for the scaling split.
  config.workers = 1;
  EpisodeConfig traced_config = config;
  if (is_par) {
    traced_config.workers = std::min(4, Nproc());
  }

  // The process's own footprint: the calibration table (the first loop
  // allocates it) and every page of the program's files. peak_rss_mib is
  // the peak above it.
  CalibrationMs();
  MapProgramFiles();
  const double baseline_rss_mib = StatusMib("VmRSS");

  // Warm-up: caches and lazy process set-up; checked, not measured.
  const Episode reference = workload->fn(config, nullptr);
  Run run;
  Account(&run, reference);
  Episode traced_reference;
  if (options.trace) {
    traced_reference = is_par ? workload->fn(traced_config, nullptr) : reference;
  }

  // Runs one episode, checks it against `expected`, and calibrates after
  // it; the calibration before it is the previous one.
  double calibration_ms = CalibrationMs();
  auto measure = [&](const EpisodeConfig& episode_config, SpanRecorder* recorder,
                     const Episode& expected) {
    Episode episode = workload->fn(episode_config, recorder);
    CheckDeterminism(expected, episode);
    Account(&run, episode);
    const double after_ms = CalibrationMs();
    const double loop_ms = 0.5 * (calibration_ms + after_ms);
    const double speed =
        std::pow(loop_ms / kReferenceCalibrationMs, kCalibrationExponent);
    calibration_ms = after_ms;
    return Reduce(std::move(episode), loop_ms, speed);
  };

  SpanRecorder spans;
  double peak_rss_mib = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  while (NowNs() < deadline ||
         run.untraced.size() < kMinEpisodes ||
         (options.trace && run.traced.size() < kMinEpisodes)) {
    run.untraced.push_back(measure(config, nullptr, reference));
    if (run.untraced.size() == kMinEpisodes) {
      // Read after a fixed number of episodes, so the run length (and the
      // harness's own per-episode samples) does not move it.
      peak_rss_mib = StatusMib("VmHWM") - baseline_rss_mib;
    }
    if (!options.trace) {
      continue;
    }
    spans.Clear();
    run.traced.push_back(measure(traced_config, &spans, traced_reference));
    if (is_par) {
      run.wide.push_back(measure(traced_config, nullptr, traced_reference));
    }
  }
  if (options.trace && !options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.trace_out.c_str());
    return 1;
  }

  if (!options.episode_log.empty()) {
    std::ofstream log(options.episode_log);
    log << "loop_ms,host_ops_per_s,op_p50_us,op_p99_us,setup_s,recovery_s\n";
    for (const Sample& s : run.untraced) {
      log << s.loop_ms << ',' << s.rate << ',' << s.p50_us << ',' << s.p99_us << ','
          << s.setup_s << ',' << s.recovery_s << '\n';
    }
    if (!log) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", options.episode_log.c_str());
      return 1;
    }
  }

  // Medians over episodes of calibrated host timings.
  auto median_of = [](const std::vector<Sample>& samples, auto&& value) {
    std::vector<double> values;
    for (const Sample& sample : samples) {
      values.push_back(value(sample));
    }
    return Median(std::move(values));
  };
  const double host_rate = median_of(run.untraced, [](const Sample& s) { return s.CalibratedRate(); });
  const bool correct = run.failed == 0;

  std::vector<std::pair<const Metric*, double>> metrics;
  if (!options.trace) {
    const double values[] = {
        host_rate,
        median_of(run.untraced, [](const Sample& s) { return s.p50_us / s.speed; }),
        median_of(run.untraced, [](const Sample& s) { return s.p99_us / s.speed; }),
        median_of(run.untraced, [](const Sample& s) { return s.setup_s / s.speed; }),
        median_of(run.untraced, [](const Sample& s) { return s.recovery_s / s.speed; }),
        peak_rss_mib,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    auto rate = [](const Sample& s) { return s.CalibratedRate(); };
    for (const Metric& metric : kPerLayer) {
      // Host timings are calibrated like the end-to-end ones; counts and
      // ratios are not.
      const bool is_time = std::strcmp(metric.unit, "ns") == 0 || std::strcmp(metric.unit, "ms") == 0;
      double value = median_of(run.traced, [&metric, is_time](const Sample& s) {
        auto it = s.layers.find(metric.name);
        const double raw = it == s.layers.end() ? 0.0 : it->second;
        return is_time ? raw / s.speed : raw;
      });
      if (std::strcmp(metric.name, "trace.overhead_pct") == 0) {
        const double untraced_rate = is_par ? median_of(run.wide, rate) : host_rate;
        value = 100.0 * (untraced_rate / median_of(run.traced, rate) - 1.0);
      } else if (std::strcmp(metric.name, "par.host_speedup_x") == 0 && is_par) {
        value = median_of(run.wide, rate) / host_rate;
      }
      metrics.emplace_back(&metric, value);
    }
  }

  // Human-readable summary.
  const double cycle_s = lvm::MachineParams{}.cycle_ns * 1e-9;
  std::fprintf(stderr, "perfbench %s seed=%llu: %zu untraced + %zu traced episodes, %s\n",
               workload->name, static_cast<unsigned long long>(options.seed),
               run.untraced.size(), run.traced.size(), correct ? "correct" : "INCORRECT");
  if (reference.sim_cycles > 0) {
    const double sim_rate = static_cast<double>(reference.ops) / (reference.sim_cycles * cycle_s);
    const double paper = workload->paper_sim_ops_per_s;
    std::fprintf(stderr, "  sim_ops_per_s %.4f (exact), ", sim_rate);
    if (paper > 0) {
      std::fprintf(stderr, "paper %.0f, error %+.2f%%\n", paper, 100.0 * (sim_rate - paper) / paper);
    } else {
      std::fprintf(stderr, "unvalidated\n");
    }
  } else {
    std::fprintf(stderr, "  sim_ops_per_s: none (no simulated machine)\n");
  }
  std::fprintf(stderr, "  counters: %s\n", reference.fingerprint.c_str());
  std::fprintf(stderr,
               "  uncalibrated median host_ops_per_s %.6g; calibration loop median %.4g ms "
               "(reference %.1f ms, exponent %.1f); baseline rss %.2f MiB\n",
               median_of(run.untraced, [](const Sample& s) { return s.rate; }),
               median_of(run.untraced, [](const Sample& s) { return s.loop_ms; }),
               kReferenceCalibrationMs, kCalibrationExponent, baseline_rss_mib);

  for (const auto& [metric, value] : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", metric->name, value, metric->unit);
  }
  std::fflush(stderr);
  PrintJson(correct, run.attempted, run.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
