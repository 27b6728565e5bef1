// par_shards: min(4, nproc) host workers, each driving its own simulated CPU
// through a paced logged-write loop into a private region whose log is a
// per-CPU LogShard (src/par, parallel mode). The only workload where host
// threads run the simulator concurrently.
//
// One episode: build the system, regions and engine (setup); run every
// worker for a fixed, seeded number of writes (run); replay the shard logs
// into an image of the regions (recovery), which is also the oracle: each
// log must hold exactly the writes its worker issued, in order.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/base/rng.h"
#include "src/lvm/log_reader.h"
#include "src/lvm/lvm_system.h"
#include "src/par/engine.h"

namespace perfbench {
namespace {

using lvm::Cpu;

// 64 MiB of simulated memory holds the logs of one episode: 4 x 250k
// records of 16 bytes is 16 MiB.
constexpr uint64_t kWritesPerWorker = 250000;
constexpr uint32_t kRegionWords = 4096;  // Four 4 KiB pages.
// Host latency samples are taken per window of this many writes: one
// write is ~100 ns, too short to time alone.
constexpr uint64_t kWindow = 256;
// One replay of the logs takes ~1 ms at one worker; it is repeated so the
// recovery timing covers ~25 ms per episode.
constexpr int kReplays = 24;

// A worker's seeded write stream: word index and value of write `step`.
struct Stream {
  uint32_t start = 0;
  uint32_t stride = 1;  // Odd, so the walk covers every word.
  uint64_t salt = 0;
  uint32_t pace = 32;   // Compute cycles per write, above the 27-cycle service time.

  uint32_t Word(uint64_t step) const {
    return static_cast<uint32_t>((start + step * stride) % kRegionWords);
  }
  uint32_t Value(uint64_t step) const {
    return static_cast<uint32_t>((step + 1) * 0x9e3779b1u ^ salt);
  }
};

struct WorkerTiming {
  std::vector<int64_t> window_ns;  // Timestamp every kWindow steps.
  int64_t busy_ns = 0;             // Traced runs: time inside the step body.
  int64_t first_ns = 0;
  int64_t last_ns = 0;
};

}  // namespace

Episode RunParEpisode(const EpisodeConfig& config, SpanRecorder* spans) {
  Episode out;
  const int workers = config.workers;
  const uint64_t writes = Scaled(config, kWritesPerWorker, kWindow * 4);
  const bool traced = spans != nullptr;

  // --- setup ---
  const int64_t setup0 = NowNs();
  lvm::LvmConfig lvm_config;
  lvm_config.num_cpus = workers;
  lvm_config.seed = config.seed;
  std::unique_ptr<lvm::LvmSystem> system;
  int64_t ctor_ns = 0;
  {
    ScopedSpan span(spans, "lvm.system_ctor", 0);
    const int64_t t0 = NowNs();
    system = std::make_unique<lvm::LvmSystem>(lvm_config);
    ctor_ns = NowNs() - t0;
  }
  lvm::Rng rng(config.seed);
  lvm::AddressSpace* as = system->CreateAddressSpace();
  std::vector<lvm::StdSegment*> segments;
  std::vector<lvm::Region*> regions;
  std::vector<lvm::LogSegment*> logs;
  std::vector<lvm::VirtAddr> bases;
  std::vector<Stream> streams;
  for (int i = 0; i < workers; ++i) {
    lvm::StdSegment* segment = system->CreateSegment(kRegionWords * 4);
    lvm::Region* region = system->CreateRegion(segment);
    bases.push_back(as->BindRegion(region));
    lvm::LogSegment* log = system->CreateLogSegment(8);
    system->AttachLog(region, log);
    segments.push_back(segment);
    regions.push_back(region);
    logs.push_back(log);
    Stream stream;
    stream.start = static_cast<uint32_t>(rng.Uniform(kRegionWords));
    stream.stride = static_cast<uint32_t>(rng.Uniform(kRegionWords / 2)) * 2 + 1;
    stream.salt = rng.Next64();
    stream.pace = 32 + static_cast<uint32_t>(rng.Uniform(8));
    streams.push_back(stream);
  }
  for (int i = 0; i < workers; ++i) {
    system->Activate(as, i);
  }
  lvm::par::ParallelEngine engine(system.get(), lvm::par::EngineConfig{});
  std::vector<WorkerTiming> timing(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    system->TouchRegion(&system->cpu(i), regions[static_cast<size_t>(i)]);
    const lvm::VirtAddr base = bases[static_cast<size_t>(i)];
    const Stream stream = streams[static_cast<size_t>(i)];
    WorkerTiming* t = &timing[static_cast<size_t>(i)];
    t->window_ns.reserve(writes / kWindow + 2);
    engine.AddWorker(logs[static_cast<size_t>(i)],
                     [base, stream, t, writes, traced](Cpu& cpu, uint64_t step) {
                       if (step % kWindow == 0) {
                         t->window_ns.push_back(NowNs());
                       }
                       const int64_t t0 = traced ? NowNs() : 0;
                       cpu.Write(base + 4 * stream.Word(step), stream.Value(step));
                       cpu.Compute(stream.pace);
                       const bool more = step + 1 < writes;
                       if (traced) {
                         const int64_t t1 = NowNs();
                         t->busy_ns += t1 - t0;
                         if (step == 0) {
                           t->first_ns = t0;
                         }
                         if (!more) {
                           t->last_ns = t1;
                         }
                       }
                       if (!more && step % kWindow != 0) {
                         t->window_ns.push_back(NowNs());
                       }
                       return more;
                     });
  }
  out.setup_s = NsToS(NowNs() - setup0);

  // --- run ---
  const lvm::LvmSystem::Stats before = system->GetStats();
  const uint64_t contention0 = system->machine().l2().stripe_contention();
  const int run_span = traced ? spans->Begin("par.run", 0) : -1;
  const int64_t run0 = NowNs();
  engine.Start();
  engine.Join();
  const int64_t run1 = NowNs();
  if (traced) {
    spans->End(run_span);
  }
  out.run_s = NsToS(run1 - run0);
  out.ops = writes * static_cast<uint64_t>(workers);
  for (const WorkerTiming& t : timing) {
    for (size_t k = 1; k < t.window_ns.size(); ++k) {
      out.op_us.push_back(static_cast<double>(t.window_ns[k] - t.window_ns[k - 1]) / 1e3 /
                          static_cast<double>(kWindow));
    }
  }
  lvm::Cycles makespan = 0;
  for (int i = 0; i < workers; ++i) {
    makespan = std::max(makespan, system->cpu(i).now());
  }
  out.sim_cycles = static_cast<double>(makespan);
  const lvm::LvmSystem::Stats delta = system->GetStats().Delta(before);

  // --- recovery: replay every shard log into an image of its region ---
  std::vector<std::vector<uint32_t>> images;
  uint64_t bad_records = 0;
  uint64_t records = 0;
  uint64_t log_hash = 0;
  const int64_t recover0 = NowNs();
  for (int r = 0; r < kReplays; ++r) {
    ScopedSpan span(spans, "par.replay", 0);
    images.assign(static_cast<size_t>(workers), std::vector<uint32_t>(kRegionWords, 0));
    bad_records = 0;
    records = 0;
    log_hash = 1469598103934665603ull;
    for (int i = 0; i < workers; ++i) {
      const lvm::LogReader reader(system->memory(), *logs[static_cast<size_t>(i)]);
      const lvm::StdSegment& segment = *segments[static_cast<size_t>(i)];
      std::vector<uint32_t>& image = images[static_cast<size_t>(i)];
      records += reader.size();
      for (size_t k = 0; k < reader.size(); ++k) {
        const lvm::LogRecord record = reader.At(k);
        const int32_t page = segment.PageIndexOfFrame(record.addr);
        if (page < 0 || record.size != 4) {
          ++bad_records;
          continue;
        }
        const uint32_t word =
            (static_cast<uint32_t>(page) * lvm::kPageSize + lvm::PageOffset(record.addr)) / 4;
        image[word % kRegionWords] = record.value;
        log_hash = (log_hash ^ record.value ^ (uint64_t{word} << 32)) * 1099511628211ull;
      }
    }
  }
  out.recovery_s = NsToS(NowNs() - recover0) / kReplays;

  // --- oracle: the replayed image equals the harness's shadow of the
  // writes issued, and each log holds exactly `writes` records ---
  for (int i = 0; i < workers; ++i) {
    const Stream& stream = streams[static_cast<size_t>(i)];
    std::vector<uint32_t> shadow(kRegionWords, 0);
    for (uint64_t step = 0; step < writes; ++step) {
      shadow[stream.Word(step)] = stream.Value(step);
    }
    const lvm::LogReader reader(system->memory(), *logs[static_cast<size_t>(i)]);
    if (shadow != images[static_cast<size_t>(i)] || reader.size() != writes) {
      out.failed += writes;
    }
  }
  if (bad_records != 0) {
    out.failed = out.ops;
  }

  char fingerprint[256];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "workers=%d records=%llu makespan=%llu lw=%llu log=%llx overloads=%llu", workers,
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(makespan),
                static_cast<unsigned long long>(delta.logged_writes),
                static_cast<unsigned long long>(log_hash),
                static_cast<unsigned long long>(engine.overload_events()));
  out.fingerprint = fingerprint;

  const double ops = static_cast<double>(out.ops);
  auto& layers = out.layers;
  layers["lvm.system_ctor_ms"] = static_cast<double>(ctor_ns) / 1e6;
  layers["sim.cycles_per_op"] = out.sim_cycles / ops;
  layers["sim.logged_writes_per_op"] = static_cast<double>(delta.logged_writes) / ops;
  layers["logger.records_per_op"] = static_cast<double>(records) / ops;
  layers["logger.records_dropped"] = static_cast<double>(delta.records_dropped);
  layers["bus.busy_cycles_per_op"] = static_cast<double>(delta.bus_busy_cycles) / ops;
  layers["par.overload_events"] = static_cast<double>(engine.overload_events());
  layers["l2.stripe_contention"] =
      static_cast<double>(system->machine().l2().stripe_contention() - contention0);
  layers["obs.flight_events_per_op"] = static_cast<double>(delta.flight_events_recorded) / ops;

  if (traced) {
    int64_t busy = 0;
    int64_t first = run1;
    int64_t last = run0;
    for (int i = 0; i < workers; ++i) {
      const WorkerTiming& t = timing[static_cast<size_t>(i)];
      busy += t.busy_ns;
      first = std::min(first, t.first_ns);
      last = std::max(last, t.last_ns);
      spans->Add("par.worker", t.first_ns, t.last_ns, run_span, static_cast<uint32_t>(i + 1),
                 static_cast<uint64_t>(i + 1));
    }
    layers["par.worker_busy_share"] =
        static_cast<double>(busy) / (static_cast<double>(workers) * static_cast<double>(run1 - run0));
    layers["par.start_join_ms"] = static_cast<double>((first - run0) + (run1 - last)) / 1e6;
    std::map<std::string, LayerTime> times;
    if (!spans->Summarize(&times)) {
      out.failed = out.ops;
    }
  }
  return out;
}

}  // namespace perfbench
