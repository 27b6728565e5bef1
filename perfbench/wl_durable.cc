// durable_commit: DurableTransactionalRegion Begin, plain stores and Commit
// with the default DurableRegionOptions (16 pages, a 256-block WAL, group
// commit after 8 commits or 64 KiB), then reopen and replay. The only
// workload that exercises hostlvm, mfile and msync; it touches no
// simulator.
//
// One episode: create fresh region directories (setup); run a fixed,
// seeded sequence of transactions with one closed-loop client on one of
// them, then Sync (run); close, reopen and replay the WAL (recovery). The
// filesystem is synced, untimed, before the setup and before the run, so
// neither pays for the file deletions and creations before it. A commit
// that finds the WAL full checkpoints inside Commit, as it does for any
// caller with the default options, and that cost stays in the commit's
// latency. The oracle compares the reopened image with the harness's
// shadow copy of committed bytes, and the replayed commits with those made
// since the last checkpoint.
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "perfbench/harness.h"
#include "src/base/rng.h"
#include "src/hostlvm/durable_region.h"

namespace perfbench {
namespace {

// The commit stream of bench/bench_wal_commit.cc: 2,000 commits of 16
// word records, here made as 16 plain stores to seeded random words.
constexpr uint64_t kCommits = 2000;
constexpr uint32_t kStoresPerCommit = 16;
// Creating and reopening a region take about a millisecond each; both are
// repeated so each timing covers tens of milliseconds per episode.
constexpr int kOpens = 32;

lvm::DurableRegionOptions Options() { return lvm::DurableRegionOptions{}; }

// Commits everything pending on the filesystem that holds `dir`: journal,
// data and the discards of deleted files.
void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0 || syncfs(fd) != 0) {
    std::fprintf(stderr, "perfbench: cannot sync the filesystem of %s\n", dir.c_str());
    std::exit(1);
  }
  close(fd);
}

}  // namespace

Episode RunDurableEpisode(const EpisodeConfig& config, SpanRecorder* spans) {
  Episode out;
  const uint64_t commits = Scaled(config, kCommits);
  const std::string base = config.data_dir + "/durable_regions";
  std::error_code ignored;
  std::filesystem::remove_all(base, ignored);
  std::filesystem::create_directories(base, ignored);
  SyncFilesystem(base);

  // --- setup: create kOpens regions (image + WAL files); the last one
  // takes the transactions ---
  std::unique_ptr<lvm::DurableTransactionalRegion> region;
  std::string dir;
  std::string error;
  int64_t open_ns = 0;
  for (int r = 0; r < kOpens; ++r) {
    region.reset();
    dir = base + "/" + std::to_string(r);
    ScopedSpan span(spans, "hostlvm.open", 0);
    const int64_t t0 = NowNs();
    region = lvm::DurableTransactionalRegion::Open(dir, Options(), &error);
    open_ns += NowNs() - t0;
    if (region == nullptr) {
      std::fprintf(stderr, "perfbench: cannot create %s: %s\n", dir.c_str(), error.c_str());
      std::exit(1);
    }
  }
  out.setup_s = NsToS(open_ns) / kOpens;
  SyncFilesystem(base);

  // --- run: one closed-loop client ---
  const size_t words = region->size_bytes() / 4;
  std::vector<uint32_t> shadow(words, 0);
  lvm::Rng rng(config.seed);
  uint32_t* data = region->data<uint32_t>();
  lvm::WalArena* wal = region->wal();
  int64_t store_ns = 0;
  int64_t commit_ns = 0;
  int64_t flush_commit_ns = 0;
  uint64_t flush_commits = 0;
  // Commits since the last checkpoint: the ones replay must apply.
  uint64_t logged_commits = 0;
  out.op_us.reserve(commits);
  const int run_span = spans != nullptr ? spans->Begin("durable.run", 0) : -1;
  const int64_t run0 = NowNs();
  int64_t last = run0;
  for (uint64_t i = 0; i < commits; ++i) {
    ScopedSpan txn(spans, "durable.txn", i + 1);
    const uint64_t checkpoints_before = region->checkpoints();
    {
      ScopedSpan span(spans, "hostlvm.begin", i + 1);
      region->Begin();
    }
    for (uint32_t k = 0; k < kStoresPerCommit; ++k) {
      const size_t word = rng.Uniform(words);
      const auto value = static_cast<uint32_t>(rng.Next64());
      if (spans != nullptr) {
        ScopedSpan span(spans, "hostlvm.store", i + 1);
        const int64_t t0 = NowNs();
        data[word] = value;  // May take the write-protect fault.
        store_ns += NowNs() - t0;
      } else {
        data[word] = value;
      }
      shadow[word] = value;
    }
    if (spans != nullptr) {
      ScopedSpan span(spans, "hostlvm.commit", i + 1);
      const uint64_t flushes0 = wal->flushes();
      const int64_t t0 = NowNs();
      region->Commit(i + 1);
      const int64_t took = NowNs() - t0;
      commit_ns += took;
      if (wal->flushes() != flushes0) {
        flush_commit_ns += took;
        ++flush_commits;
      }
    } else {
      region->Commit(i + 1);
    }
    logged_commits = region->checkpoints() != checkpoints_before ? 1 : logged_commits + 1;
    const int64_t now = NowNs();
    out.op_us.push_back(static_cast<double>(now - last) / 1e3);
    last = now;
  }
  {
    ScopedSpan span(spans, "hostlvm.sync", 0);
    region->Sync();
  }
  out.run_s = NsToS(NowNs() - run0);
  if (spans != nullptr) {
    spans->End(run_span);
  }
  out.ops = commits;
  const uint64_t wal_bytes = wal->bytes_appended();
  const uint64_t wal_flushes = wal->flushes();
  const uint64_t faults = region->region()->faults();
  const uint64_t checkpoints = region->checkpoints();
  region.reset();

  // --- recovery: reopen and replay the WAL (replay-on-open changes no
  // file, so every reopen does the same work) ---
  int64_t reopen_ns = 0;
  for (int r = 0; r < kOpens; ++r) {
    region.reset();
    ScopedSpan span(spans, "hostlvm.reopen", 0);
    const int64_t t0 = NowNs();
    region = lvm::DurableTransactionalRegion::Open(dir, Options(), &error);
    reopen_ns += NowNs() - t0;
    if (region == nullptr) {
      std::fprintf(stderr, "perfbench: cannot reopen %s: %s\n", dir.c_str(), error.c_str());
      std::exit(1);
    }
  }
  out.recovery_s = NsToS(reopen_ns) / kOpens;
  const lvm::WalRecoveryStats recovered = region->recovery_stats();
  const uint32_t* reopened = region->data<uint32_t>();
  uint64_t mismatched_words = 0;
  for (size_t w = 0; w < words; ++w) {
    mismatched_words += reopened[w] != shadow[w] ? 1 : 0;
  }
  if (mismatched_words != 0 || recovered.commits_applied != logged_commits) {
    out.failed = commits;
  }
  region.reset();
  std::filesystem::remove_all(base, ignored);

  char fingerprint[256];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "wal_bytes=%llu flushes=%llu checkpoints=%llu faults=%llu replayed_commits=%llu "
                "replayed_records=%llu",
                static_cast<unsigned long long>(wal_bytes),
                static_cast<unsigned long long>(wal_flushes),
                static_cast<unsigned long long>(checkpoints),
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(recovered.commits_applied),
                static_cast<unsigned long long>(recovered.records_applied));
  out.fingerprint = fingerprint;

  const double ops = static_cast<double>(commits);
  const double user_bytes = ops * kStoresPerCommit * 4;
  auto& layers = out.layers;
  layers["wal.flushes_per_commit"] = static_cast<double>(wal_flushes) / ops;
  layers["wal.bytes_per_user_byte"] = static_cast<double>(wal_bytes) / user_bytes;
  layers["wal.records_replayed"] = static_cast<double>(recovered.records_applied);
  layers["hostlvm.open_ms"] = out.setup_s * 1e3;
  layers["hostlvm.replay_ms"] = out.recovery_s * 1e3;
  if (spans != nullptr) {
    std::map<std::string, LayerTime> times;
    if (!spans->Summarize(&times)) {
      out.failed = commits;
    }
    layers["hostlvm.store_ns"] = static_cast<double>(store_ns) / (ops * kStoresPerCommit);
    layers["hostlvm.commit_ns"] = static_cast<double>(commit_ns) / ops;
    layers["hostlvm.commit_flush_ns"] =
        flush_commits == 0 ? 0.0
                           : static_cast<double>(flush_commit_ns) / static_cast<double>(flush_commits);
  }
  return out;
}

}  // namespace perfbench
