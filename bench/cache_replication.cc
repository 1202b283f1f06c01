// Cache replication under rolling node kills.
//
// The paper's cache tier treats all cached data as disposable soft state: losing
// a Harvest node costs only performance (§3.1.5, §4.4). This bench quantifies
// that cost — and what R-way replication buys back — by rolling kills through
// the cache tier at replica factors R=1/2/3 under steady load and measuring:
//
//   dip       — the deepest windowed cache-tier hit rate after each kill;
//   recovery  — seconds until the windowed hit rate is back within 2 points of
//               the pre-kill baseline (R=1 must re-fetch lost content through
//               origin + distillation; R>=2 serves from surviving replicas and
//               the rebalancer restores full replication in the background);
//   rebalance — bytes the survivors' rebalancers pushed, and the peak observed
//               migration rate, which must respect the token-bucket cap so
//               migration cannot starve request traffic on the SAN.
//
// `--short` runs the R=2 roll only (one kill, brief windows) for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/logging.h"

namespace sns {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

constexpr double kRate = 20.0;           // Steady offered load (req/s).
constexpr double kRebalanceBps = 256.0 * 1024;  // Tight cap: window is visible.
constexpr double kRebalanceBurst = 64.0 * 1024;

struct KillResult {
  double baseline = 0;    // Windowed hit rate just before the kill.
  double dip = 1.0;       // Minimum windowed hit rate after the kill.
  double recovery_s = -1; // Seconds to return within 2 points of baseline.
};

struct RollResult {
  int replication = 1;
  std::vector<KillResult> kills;
  int64_t rebalance_bytes = 0;  // Total migration bytes across the tier.
  int64_t rebalance_keys = 0;
  double peak_migration_bps = 0;  // Max over 500 ms sample windows.
  int64_t rebalance_log_entries = 0;  // Flight-recorder window instants.
  double answered = 0;  // Fraction of client requests answered.

  double worst_dip() const {
    double worst = 1.0;
    for (const KillResult& k : kills) worst = std::min(worst, k.dip);
    return worst;
  }
  double worst_recovery() const {
    double worst = 0;
    for (const KillResult& k : kills) worst = std::max(worst, k.recovery_s);
    return worst;
  }
};

// Cumulative tier-wide counters, read through the metrics registry so totals
// survive the death of the node that produced them.
struct TierCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t rebalance_bytes = 0;
  int64_t rebalance_keys = 0;
};

TierCounters ReadTier(SnsSystem* system, const std::vector<int>& cache_node_ids) {
  TierCounters t;
  for (int node : cache_node_ids) {
    std::string prefix = StrFormat("cache.n%d.", node);
    t.hits += static_cast<int64_t>(system->metrics()->GetGauge(prefix + "hits")->value());
    t.misses +=
        static_cast<int64_t>(system->metrics()->GetGauge(prefix + "misses")->value());
    t.rebalance_bytes = t.rebalance_bytes +
                        system->metrics()->GetCounter(prefix + "rebalance_bytes")->value();
    t.rebalance_keys =
        t.rebalance_keys +
        system->metrics()->GetCounter(prefix + "rebalance_keys_pushed")->value();
  }
  return t;
}

RollResult RunRoll(int replication, bool short_mode) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(40);
  options.topology.cache_nodes = 4;
  options.topology.worker_pool_nodes = 6;
  options.sns.cache_replication = replication;
  options.sns.cache_rebalance_bytes_per_s = kRebalanceBps;
  options.sns.cache_rebalance_burst_bytes = kRebalanceBurst;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xCA0 + static_cast<uint64_t>(replication));

  Simulator* sim = service.sim();
  SnsSystem* system = service.system();
  ContentUniverse* universe = service.universe();

  std::vector<int> cache_node_ids;
  std::vector<ProcessId> cache_pids;
  for (CacheNodeProcess* cache : system->cache_node_processes()) {
    cache_node_ids.push_back(cache->node());
    cache_pids.push_back(cache->pid());
  }

  Rng rng(0x5EED ^ static_cast<uint64_t>(replication));
  client->StartConstantRate(kRate, [&rng, universe] {
    TraceRecord record;
    record.user_id = "cache-repl";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  // Warm until the working set is cached and replicated (every URL re-requested
  // every ~2 s at this rate over 40 URLs).
  sim->RunFor(short_mode ? Seconds(30) : Seconds(45));

  RollResult result;
  result.replication = replication;
  // Baseline after warm-up: membership joins during startup may migrate a few
  // early entries; the roll measures only kill-induced migration.
  TierCounters warm = ReadTier(system, cache_node_ids);

  // 500 ms sampler over cumulative tier counters; windowed hit rate over 3 s.
  const SimDuration kSample = Milliseconds(500);
  const SimDuration kWindow = Seconds(3);
  const size_t kWindowSamples = static_cast<size_t>(kWindow / kSample);
  std::vector<TierCounters> samples;
  auto windowed_hit_rate = [&samples, kWindowSamples]() {
    if (samples.size() < 2) return 1.0;
    size_t back = std::min(samples.size() - 1, kWindowSamples);
    const TierCounters& a = samples[samples.size() - 1 - back];
    const TierCounters& b = samples.back();
    int64_t hits = b.hits - a.hits;
    int64_t total = hits + (b.misses - a.misses);
    return total <= 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(total);
  };

  const int kill_count = short_mode ? 1 : 2;
  const SimDuration observe = short_mode ? Seconds(25) : Seconds(35);
  for (int kill = 0; kill < kill_count; ++kill) {
    // Pre-kill baseline over a few settled windows.
    samples.clear();
    for (int i = 0; i < static_cast<int>(kWindowSamples) + 1; ++i) {
      sim->RunFor(kSample);
      samples.push_back(ReadTier(system, cache_node_ids));
    }
    KillResult kr;
    kr.baseline = windowed_hit_rate();

    Process* victim = system->cluster()->Find(cache_pids[static_cast<size_t>(kill)]);
    if (victim != nullptr) {
      system->cluster()->Crash(victim->pid());
    }
    SimTime killed_at = sim->now();

    while (sim->now() - killed_at < observe) {
      sim->RunFor(kSample);
      samples.push_back(ReadTier(system, cache_node_ids));
      double rate = windowed_hit_rate();
      kr.dip = std::min(kr.dip, rate);
      if (kr.recovery_s < 0 && rate >= kr.baseline - 0.02 &&
          sim->now() - killed_at >= kWindow) {
        kr.recovery_s = ToSeconds(sim->now() - killed_at);
      }
      // Peak migration rate over one sample interval.
      if (samples.size() >= 2) {
        const TierCounters& prev = samples[samples.size() - 2];
        double bps = static_cast<double>(samples.back().rebalance_bytes -
                                         prev.rebalance_bytes) /
                     ToSeconds(kSample);
        result.peak_migration_bps = std::max(result.peak_migration_bps, bps);
      }
    }
    result.kills.push_back(kr);
  }

  client->StopLoad();
  sim->RunFor(Seconds(15));  // Drain; let rebalance/echo passes finish.

  TierCounters final_counters = ReadTier(system, cache_node_ids);
  result.rebalance_bytes = final_counters.rebalance_bytes - warm.rebalance_bytes;
  result.rebalance_keys = final_counters.rebalance_keys - warm.rebalance_keys;
  for (const FaultInstant& instant : system->event_log()->faults()) {
    if (instant.what.find("rebalance") != std::string::npos ||
        instant.what.find("echo") != std::string::npos) {
      ++result.rebalance_log_entries;
    }
  }
  int64_t answered = client->completed();
  int64_t asked = client->completed() + client->timeouts();
  result.answered = asked == 0 ? 0 : static_cast<double>(answered) / static_cast<double>(asked);

  if (replication == 2) {
    benchutil::DumpBenchArtifact(system, "cache_replication");
  }
  return result;
}

void PrintRoll(const RollResult& r) {
  for (size_t i = 0; i < r.kills.size(); ++i) {
    const KillResult& k = r.kills[i];
    std::printf("  R=%d kill %zu: baseline hit rate %.3f, dip %.3f, recovery %s\n",
                r.replication, i + 1, k.baseline, k.dip,
                k.recovery_s < 0 ? "none" : StrFormat("%.1f s", k.recovery_s).c_str());
  }
  std::printf(
      "  R=%d rebalance: %lld keys, %lld bytes pushed, peak %.0f KB/s "
      "(cap %.0f KB/s), %lld recorder entries, answered %.3f\n",
      r.replication, static_cast<long long>(r.rebalance_keys),
      static_cast<long long>(r.rebalance_bytes), r.peak_migration_bps / 1024,
      kRebalanceBps / 1024, static_cast<long long>(r.rebalance_log_entries), r.answered);
}

void Claims(const RollResult& r) {
  // Over any 500 ms sample the token bucket admits at most rate/2 + burst bytes.
  double cap = kRebalanceBps / 2 + kRebalanceBurst;
  Check(r.peak_migration_bps * 0.5 <= cap * 1.01,
        StrFormat("R=%d migration traffic respects the bandwidth cap "
                  "(peak %.0f KB/s over 500 ms windows)",
                  r.replication, r.peak_migration_bps / 1024));
  Check(r.answered > 0.95,
        StrFormat("R=%d availability holds through the kills (%.3f answered)",
                  r.replication, r.answered));
  if (r.replication >= 2) {
    Check(r.worst_dip() >= 0.65,
          StrFormat("R=%d hit-rate dip bounded (worst %.3f)", r.replication,
                    r.worst_dip()));
    Check(r.kills.back().recovery_s >= 0 && r.worst_recovery() <= 20.0,
          StrFormat("R=%d hit rate recovered within the rebalance window "
                    "(worst %.1f s)",
                    r.replication, r.worst_recovery()));
    Check(r.rebalance_keys > 0 && r.rebalance_log_entries >= 2,
          StrFormat("R=%d rebalancer ran and surfaced its window in the flight "
                    "recorder (%lld entries)",
                    r.replication, static_cast<long long>(r.rebalance_log_entries)));
  }
}

void Run(bool short_mode) {
  Logger::Get().set_min_level(LogLevel::kError);
  benchutil::Header(
      "Cache replication: rolling cache-node kills at R=1/2/3",
      "paper Section 3.1.5 / 4.4 (cache loss costs only performance)");

  std::printf("\noffered load %.0f req/s, 4 cache nodes, rebalance cap %.0f KB/s "
              "(burst %.0f KB)\n\n",
              kRate, kRebalanceBps / 1024, kRebalanceBurst / 1024);

  if (short_mode) {
    RollResult r2 = RunRoll(2, true);
    PrintRoll(r2);
    std::printf("\n-- claims (short mode) --\n");
    Claims(r2);
    return;
  }

  RollResult r1 = RunRoll(1, false);
  PrintRoll(r1);
  RollResult r2 = RunRoll(2, false);
  PrintRoll(r2);
  RollResult r3 = RunRoll(3, false);
  PrintRoll(r3);

  std::printf("\n-- claims --\n");
  Claims(r2);
  Claims(r3);
  Check(r1.answered > 0.95, "R=1 stays available (losses cost performance only)");
  Check(r2.worst_dip() >= r1.worst_dip(),
        StrFormat("replication bounds the dip (R=1 worst %.3f vs R=2 worst %.3f)",
                  r1.worst_dip(), r2.worst_dip()));
  Check(r1.rebalance_bytes == 0,
        "R=1 has no replica chains to migrate (rebalancer is a no-op)");
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    }
  }
  sns::Run(short_mode);
  if (sns::failures > 0) {
    std::printf("\n%d claim(s) FAILED\n", sns::failures);
    return 1;
  }
  std::printf("\nAll claims PASS\n");
  return 0;
}
