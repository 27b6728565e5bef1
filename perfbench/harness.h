// Shared types of the host-performance benchmark (perfbench/README.md).
//
// A workload is a function that runs one *episode*: a fixed, seeded amount
// of work against the public APIs of src/, timed phase by phase. The
// main loop (main.cc) repeats episodes for the requested number of seconds
// and reports medians over them. Every episode of one seed does identical
// work; the run length only changes how many episodes are pooled.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct EpisodeConfig {
  uint64_t seed = 1;
  // Multiplies every episode's operation count; the smoke tests run at a
  // tiny scale, the benchmark at 1.
  double scale = 1.0;
  // par_shards: host worker threads.
  int workers = 1;
  // durable_commit: scratch directory for the region files.
  std::string data_dir;
};

// Operation count at `scale`, never below `floor`.
inline uint64_t Scaled(const EpisodeConfig& config, uint64_t count, uint64_t floor = 16) {
  auto scaled = static_cast<uint64_t>(static_cast<double>(count) * config.scale);
  return scaled < floor ? floor : scaled;
}

struct Episode {
  // Phase timings of this episode, seconds.
  double setup_s = 0;
  double run_s = 0;
  double recovery_s = 0;
  // Operations completed in the run phase (the unit of host_ops_per_s).
  uint64_t ops = 0;
  // Operations whose correctness check failed.
  uint64_t failed = 0;
  // Host latency per operation, microseconds (closed loop).
  std::vector<double> op_us;
  // Simulated makespan of the run phase in cycles (0: no simulated machine).
  double sim_cycles = 0;
  // Deterministic counters of the episode; must repeat exactly across the
  // episodes of one seed.
  std::string fingerprint;
  // Per-layer metrics, filled by traced episodes (and counters by all).
  std::map<std::string, double> layers;
};

// `spans` is null for an untraced episode. Traced episodes record their
// spans there and fill Episode::layers.
using EpisodeFn = Episode (*)(const EpisodeConfig& config, SpanRecorder* spans);

Episode RunTpcaEpisode(const EpisodeConfig& config, SpanRecorder* spans);
Episode RunParEpisode(const EpisodeConfig& config, SpanRecorder* spans);
Episode RunPholdEpisode(const EpisodeConfig& config, SpanRecorder* spans);
Episode RunDurableEpisode(const EpisodeConfig& config, SpanRecorder* spans);

// Percentile `p` in [0, 100] of `values` (nearest rank; reorders `values`).
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
