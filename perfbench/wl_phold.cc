// timewarp_phold: PHOLD on the Time Warp engine with LVM state saving, with
// the parameters of examples/timewarp_phold.cpp (4 simulated CPUs, 32
// objects of 512 bytes, CULT every 32 events).
//
// One episode: build the system, model and simulation and bootstrap the
// seeded job population (setup); run to the horizon (run); read back the
// committed state of every object through the memory system, i.e.
// OptimisticDigest (recovery). Time Warp has no crash-recovery path of its
// own; this read-back is what a restart from the committed state costs.
// The oracle is OptimisticDigest == SequentialDigest.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/base/rng.h"
#include "src/timewarp/models.h"
#include "src/timewarp/simulation.h"

namespace perfbench {
namespace {

using lvm::Cpu;

// Three times the example's horizon, so per-seed rollback transients weigh
// less in each episode's timings.
constexpr lvm::VirtualTime kEnd = 12000;
constexpr int kJobs = 32;
// One read-back of the committed state takes ~0.12 ms; it is repeated so
// the recovery timing covers ~30 ms per episode.
constexpr int kRecoveries = 256;

lvm::PholdModel::Params ModelParams() {
  lvm::PholdModel::Params params;
  params.mean_delay = 8.0;
  params.compute_cycles = 1024;
  params.writes = 4;
  params.locality = 0.95;
  params.locality_domain = 8;
  return params;
}

lvm::TimeWarpConfig SimConfig() {
  lvm::TimeWarpConfig config;
  config.num_schedulers = 4;
  config.objects_per_scheduler = 8;
  config.object_size = 512;
  config.state_saving = lvm::StateSaving::kLvm;
  config.cult_interval = 32;
  return config;
}

lvm::LvmConfig MachineConfig(uint64_t seed) {
  lvm::LvmConfig config;
  config.num_cpus = 4;
  config.seed = seed;
  return config;
}

std::vector<lvm::Event> Bootstrap(uint64_t seed) {
  std::vector<lvm::Event> events;
  lvm::Rng rng(seed);
  for (int job = 0; job < kJobs; ++job) {
    lvm::Event event;
    event.time = 1 + rng.Uniform(8);
    event.target_object = static_cast<uint32_t>(rng.Uniform(kJobs));
    event.payload = rng.Next64();
    events.push_back(event);
  }
  return events;
}

// Wraps the model: timestamps every event execution (host time per event
// is the gap between consecutive executions) and, in traced episodes,
// records one span per execution.
class ProbedModel : public lvm::SimulationModel {
 public:
  ProbedModel(lvm::SimulationModel* inner, SpanRecorder* spans) : inner_(inner), spans_(spans) {}

  void Execute(Cpu* cpu, lvm::Scheduler* scheduler, const lvm::Event& event) override {
    stamps_.push_back(NowNs());
    ScopedSpan span(spans_, "timewarp.execute", stamps_.size());
    inner_->Execute(cpu, scheduler, event);
  }

  const std::vector<int64_t>& stamps() const { return stamps_; }

 private:
  lvm::SimulationModel* inner_;
  SpanRecorder* spans_;
  std::vector<int64_t> stamps_;
};

// The sequential reference digest per seed, computed once per process.
uint64_t ReferenceDigest(uint64_t seed) {
  static std::map<uint64_t, uint64_t> cache;
  auto it = cache.find(seed);
  if (it != cache.end()) {
    return it->second;
  }
  lvm::LvmSystem system(MachineConfig(seed));
  lvm::PholdModel model(ModelParams());
  uint64_t digest = lvm::SequentialDigest(&system, &model, SimConfig(), Bootstrap(seed), kEnd);
  cache[seed] = digest;
  return digest;
}

}  // namespace

Episode RunPholdEpisode(const EpisodeConfig& config, SpanRecorder* spans) {
  Episode out;
  const std::vector<lvm::Event> bootstrap = Bootstrap(config.seed);
  const uint64_t reference = ReferenceDigest(config.seed);

  // --- setup ---
  const int64_t setup0 = NowNs();
  std::unique_ptr<lvm::LvmSystem> system;
  int64_t ctor_ns = 0;
  {
    ScopedSpan span(spans, "lvm.system_ctor", 0);
    const int64_t t0 = NowNs();
    system = std::make_unique<lvm::LvmSystem>(MachineConfig(config.seed));
    ctor_ns = NowNs() - t0;
  }
  lvm::PholdModel phold(ModelParams());
  ProbedModel model(&phold, spans);
  lvm::TimeWarpSimulation simulation(system.get(), &model, SimConfig());
  for (const lvm::Event& event : bootstrap) {
    simulation.Bootstrap(event);
  }
  out.setup_s = NsToS(NowNs() - setup0);

  // --- run ---
  const lvm::LvmSystem::Stats before = system->GetStats();
  const uint64_t fills0 = system->machine().l2().fills();
  const int64_t run0 = NowNs();
  {
    ScopedSpan span(spans, "timewarp.run", 0);
    simulation.Run(kEnd);
  }
  const int64_t run1 = NowNs();
  out.run_s = NsToS(run1 - run0);
  const uint64_t processed = simulation.total_events_processed();
  const uint64_t rolled_back = simulation.total_events_rolled_back();
  out.ops = processed - rolled_back;
  out.sim_cycles = static_cast<double>(simulation.ElapsedCycles());
  const std::vector<int64_t>& stamps = model.stamps();
  out.op_us.reserve(stamps.size());
  for (size_t i = 1; i < stamps.size(); ++i) {
    out.op_us.push_back(static_cast<double>(stamps[i] - stamps[i - 1]) / 1e3);
  }
  if (!stamps.empty()) {
    out.op_us.push_back(static_cast<double>(run1 - stamps.back()) / 1e3);
  }
  const lvm::LvmSystem::Stats delta = system->GetStats().Delta(before);
  const uint64_t fills = system->machine().l2().fills() - fills0;

  // --- recovery: read back the committed state of every object ---
  const int64_t recover0 = NowNs();
  uint64_t digest = 0;
  bool digests_match = true;
  for (int r = 0; r < kRecoveries; ++r) {
    ScopedSpan span(spans, "timewarp.recover", 0);
    digest = lvm::OptimisticDigest(&simulation, kEnd);
    digests_match = digests_match && digest == reference;
  }
  out.recovery_s = NsToS(NowNs() - recover0) / kRecoveries;
  if (!digests_match) {
    out.failed = out.ops;
  }

  char fingerprint[256];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "processed=%llu rolled_back=%llu rollbacks=%llu cycles=%llu lw=%llu digest=%llx",
                static_cast<unsigned long long>(processed),
                static_cast<unsigned long long>(rolled_back),
                static_cast<unsigned long long>(simulation.total_rollbacks()),
                static_cast<unsigned long long>(out.sim_cycles),
                static_cast<unsigned long long>(delta.logged_writes),
                static_cast<unsigned long long>(digest));
  out.fingerprint = fingerprint;

  const double ops = static_cast<double>(out.ops);
  const double events = static_cast<double>(processed);
  auto& layers = out.layers;
  layers["lvm.system_ctor_ms"] = static_cast<double>(ctor_ns) / 1e6;
  layers["sim.cycles_per_op"] = out.sim_cycles / ops;
  layers["sim.logged_writes_per_op"] = static_cast<double>(delta.logged_writes) / ops;
  layers["logger.records_per_op"] = static_cast<double>(delta.records_logged) / ops;
  layers["logger.overload_events"] =
      static_cast<double>(system->bus_logger()->overload_events());
  layers["logger.records_dropped"] = static_cast<double>(delta.records_dropped);
  layers["bus.busy_cycles_per_op"] = static_cast<double>(delta.bus_busy_cycles) / ops;
  layers["timewarp.rollbacks_per_kevent"] =
      1000.0 * static_cast<double>(simulation.total_rollbacks()) / events;
  layers["timewarp.efficiency"] = simulation.Efficiency();
  layers["l2.fills_per_event"] = static_cast<double>(fills) / events;
  layers["obs.flight_events_per_op"] = static_cast<double>(delta.flight_events_recorded) / ops;

  if (spans != nullptr) {
    std::map<std::string, LayerTime> times;
    if (!spans->Summarize(&times)) {
      out.failed = out.ops;
    }
    const LayerTime& execute = times["timewarp.execute"];
    layers["timewarp.execute_ns"] =
        execute.calls == 0 ? 0.0
                           : static_cast<double>(execute.self_ns) / static_cast<double>(execute.calls);
    layers["timewarp.kernel_self_ns"] =
        static_cast<double>(times["timewarp.run"].self_ns) / events;
  }
  return out;
}

}  // namespace perfbench
