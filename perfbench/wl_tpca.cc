// rlvm_tpca: TPC-A debit-credit over Rlvm on one simulated CPU with the bus
// logger and the RAM-disk redo log — the paper's Table 3 workload.
//
// One episode: build the system and schema (setup), run a fixed number of
// seeded transactions with one closed-loop client (run), then rebuild the
// committed store from the RAM disk a fixed number of times (recovery).
#include <cstdio>
#include <cstring>
#include <memory>

#include "perfbench/harness.h"
#include "src/rvm/ram_disk.h"
#include "src/rvm/rlvm.h"
#include "src/tpc/tpca.h"

namespace perfbench {
namespace {

using lvm::Cpu;
using lvm::VirtAddr;

constexpr uint64_t kTransactions = 20000;
// One RecoverImage takes ~0.25 ms; it is repeated so the recovery timing
// covers ~25 ms per episode.
constexpr int kRecoveries = 96;
constexpr uint32_t kStoreBytes = 2u << 20;

// Times every call TpcA makes into the recoverable store.
class TracedStore : public lvm::RecoverableStore {
 public:
  TracedStore(lvm::RecoverableStore* inner, SpanRecorder* spans) : inner_(inner), spans_(spans) {}

  void set_op(uint64_t op) { op_ = op; }

  VirtAddr data_base() const override { return inner_->data_base(); }
  uint32_t data_size() const override { return inner_->data_size(); }
  void Begin(Cpu* cpu) override {
    ScopedSpan span(spans_, "rvm.begin", op_);
    inner_->Begin(cpu);
  }
  void Commit(Cpu* cpu) override {
    ScopedSpan span(spans_, "rvm.commit", op_);
    inner_->Commit(cpu);
  }
  void Abort(Cpu* cpu) override {
    ScopedSpan span(spans_, "rvm.abort", op_);
    inner_->Abort(cpu);
  }
  void SetRange(Cpu* cpu, VirtAddr addr, uint32_t len) override {
    ScopedSpan span(spans_, "rvm.set_range", op_);
    inner_->SetRange(cpu, addr, len);
  }
  void Write(Cpu* cpu, VirtAddr addr, uint32_t value, uint8_t size) override {
    ScopedSpan span(spans_, "rvm.write", op_);
    inner_->Write(cpu, addr, value, size);
  }
  uint32_t Read(Cpu* cpu, VirtAddr addr, uint8_t size) override {
    ScopedSpan span(spans_, "rvm.read", op_);
    return inner_->Read(cpu, addr, size);
  }
  void MaybeTruncate(Cpu* cpu) override {
    ScopedSpan span(spans_, "rvm.truncate", op_);
    inner_->MaybeTruncate(cpu);
  }

 private:
  lvm::RecoverableStore* inner_;
  SpanRecorder* spans_;
  uint64_t op_ = 0;
};

uint64_t Fnv(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (uint8_t byte : bytes) {
    hash = (hash ^ byte) * 1099511628211ull;
  }
  return hash;
}

}  // namespace

Episode RunTpcaEpisode(const EpisodeConfig& config, SpanRecorder* spans) {
  Episode out;
  const uint64_t transactions = Scaled(config, kTransactions);

  // --- setup ---
  const int64_t setup0 = NowNs();
  int64_t ctor_ns = 0;
  std::unique_ptr<lvm::LvmSystem> system;
  {
    ScopedSpan span(spans, "lvm.system_ctor", 0);
    const int64_t t0 = NowNs();
    system = std::make_unique<lvm::LvmSystem>();
    ctor_ns = NowNs() - t0;
  }
  lvm::RamDisk disk;
  lvm::AddressSpace* as = system->CreateAddressSpace();
  lvm::Rlvm rlvm(system.get(), as, &disk, kStoreBytes);
  system->Activate(as);
  Cpu& cpu = system->cpu();
  TracedStore traced(&rlvm, spans);
  lvm::RecoverableStore* store =
      spans != nullptr ? static_cast<lvm::RecoverableStore*>(&traced) : &rlvm;
  lvm::TpcAConfig tpc_config;
  tpc_config.seed = config.seed;
  std::unique_ptr<lvm::TpcA> tpc;
  int64_t tpc_setup_ns = 0;
  {
    ScopedSpan span(spans, "tpc.setup", 0);
    const int64_t t0 = NowNs();
    tpc = std::make_unique<lvm::TpcA>(store, tpc_config);
    tpc->Setup(&cpu);
    tpc_setup_ns = NowNs() - t0;
  }
  out.setup_s = NsToS(NowNs() - setup0);

  // --- run: one closed-loop client ---
  const lvm::LvmSystem::Stats before = system->GetStats();
  const uint64_t disk_bytes0 = disk.total_bytes_logged();
  const uint64_t forces0 = disk.forces();
  const lvm::Cycles cycles0 = cpu.now();
  out.op_us.reserve(transactions);
  const int64_t run0 = NowNs();
  {
    ScopedSpan run_span(spans, "tpca.run", 0);
    int64_t last = run0;
    for (uint64_t i = 0; i < transactions; ++i) {
      {
        ScopedSpan span(spans, "tpc.txn", i + 1);
        traced.set_op(i + 1);
        tpc->RunTransaction(&cpu);
      }
      const int64_t now = NowNs();
      out.op_us.push_back(static_cast<double>(now - last) / 1e3);
      last = now;
    }
  }
  out.run_s = NsToS(NowNs() - run0);
  out.ops = transactions;
  out.sim_cycles = static_cast<double>(cpu.now() - cycles0);
  const lvm::LvmSystem::Stats delta = system->GetStats().Delta(before);
  const uint64_t disk_bytes = disk.total_bytes_logged() - disk_bytes0;
  const uint64_t forces = disk.forces() - forces0;

  // --- recovery: rebuild the committed store from home image + log ---
  std::vector<uint8_t> recovered;
  const int64_t recover0 = NowNs();
  for (int r = 0; r < kRecoveries; ++r) {
    ScopedSpan span(spans, "rvm.recover", 0);
    recovered = disk.RecoverImage(rlvm.data_size());
  }
  out.recovery_s = NsToS(NowNs() - recover0) / kRecoveries;

  // --- correctness oracle (untimed) ---
  bool ok = tpc->CheckConsistency(&cpu);
  const uint32_t schema_bytes = tpc_config.RequiredBytes();
  for (uint32_t offset = 0; ok && offset < rlvm.data_size(); offset += 4) {
    uint32_t expected = 0;
    if (offset < schema_bytes) {
      expected = rlvm.Read(&cpu, rlvm.data_base() + offset);
    }
    uint32_t got = 0;
    std::memcpy(&got, &recovered[offset], 4);
    ok = got == expected;
  }
  if (!ok) {
    out.failed = transactions;
  }

  // RamDisk does not expose its record count. Every TPC-A record is a
  // 4-byte word plus a descriptor, and every force adds one commit marker
  // (RamDiskParams defaults), so the count follows from the bytes logged.
  const lvm::RamDiskParams disk_params;
  const uint64_t marker_bytes = disk.forces() * disk_params.commit_record_bytes;
  const uint64_t record_bytes = 4 + disk_params.record_descriptor_bytes;
  const uint64_t recover_records = (disk.total_bytes_logged() - marker_bytes) / record_bytes;

  char fingerprint[256];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "cycles=%llu lw=%llu rec=%llu busy=%llu disk=%llu forces=%llu total=%lld img=%llx",
                static_cast<unsigned long long>(out.sim_cycles),
                static_cast<unsigned long long>(delta.logged_writes),
                static_cast<unsigned long long>(delta.records_logged),
                static_cast<unsigned long long>(delta.bus_busy_cycles),
                static_cast<unsigned long long>(disk_bytes),
                static_cast<unsigned long long>(forces),
                static_cast<long long>(tpc->expected_total()),
                static_cast<unsigned long long>(Fnv(recovered)));
  out.fingerprint = fingerprint;

  const double ops = static_cast<double>(transactions);
  auto& layers = out.layers;
  layers["lvm.system_ctor_ms"] = static_cast<double>(ctor_ns) / 1e6;
  layers["tpc.setup_ms"] = static_cast<double>(tpc_setup_ns) / 1e6;
  layers["rvm.disk_bytes_per_txn"] = static_cast<double>(disk_bytes) / ops;
  layers["rvm.forces_per_txn"] = static_cast<double>(forces) / ops;
  layers["rvm.recover_records"] = static_cast<double>(recover_records);
  layers["sim.cycles_per_op"] = out.sim_cycles / ops;
  layers["sim.logged_writes_per_op"] = static_cast<double>(delta.logged_writes) / ops;
  layers["logger.records_per_op"] = static_cast<double>(delta.records_logged) / ops;
  layers["logger.overload_events"] =
      static_cast<double>(system->bus_logger()->overload_events());
  layers["logger.records_dropped"] = static_cast<double>(delta.records_dropped);
  layers["bus.busy_cycles_per_op"] = static_cast<double>(delta.bus_busy_cycles) / ops;
  layers["obs.flight_events_per_op"] = static_cast<double>(delta.flight_events_recorded) / ops;

  if (spans != nullptr) {
    std::map<std::string, LayerTime> times;
    if (!spans->Summarize(&times)) {
      out.failed = transactions;
    }
    auto per_call = [&times](const char* name) {
      const LayerTime& t = times[name];
      return t.calls == 0 ? 0.0 : static_cast<double>(t.self_ns) / static_cast<double>(t.calls);
    };
    layers["tpc.txn_self_ns"] = per_call("tpc.txn");
    for (const char* layer : {"begin", "write", "read", "commit", "truncate"}) {
      const std::string name = std::string("rvm.") + layer;
      layers[name + "_ns"] = per_call(name.c_str());
      layers[name + "_calls"] = static_cast<double>(times[name].calls);
    }
  }

  return out;
}

}  // namespace perfbench
