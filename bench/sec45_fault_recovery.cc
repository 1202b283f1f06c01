// Section 4.5: fault tolerance and recovery.
//
// The paper's soft-state worker recovery claim: killing distillers mid-run is
// harmless — peers report the death (broken connections) or the registration
// times out, the manager restarts the worker, and throughput returns to the
// pre-fault level within seconds, with no recovery code in the workers.
//
// This run kills TWO JPEG distillers at once under steady load and measures the
// three recovery latencies separately:
//   detection  — manager's soft-state roster drops the dead workers;
//   respawn    — live distiller count is back to the pre-kill level;
//   recovery   — delivered throughput is back to >= 90% of baseline (2 s window).
//
// A second cell partitions the manager's node and times the fenced failover
// pipeline of DESIGN.md §14: detection (a majority front end's watchdog fires),
// fence (STONITH kills the stranded incumbent), promote (a successor epoch
// beacons), and recovery (throughput back to >= 90% of baseline).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/failure_injector.h"
#include "src/quorum/fencing.h"
#include "src/sns/front_end.h"
#include "src/util/logging.h"

namespace sns {
namespace {

int Run(bool short_mode) {
  Logger::Get().set_min_level(LogLevel::kError);
  benchutil::Header("Section 4.5: kill two distillers mid-run, measure recovery",
                    "paper Section 4.5");

  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(40);
  options.logic.cache_distilled = false;  // Every request needs a live distiller.
  options.topology.worker_pool_nodes = 6;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0x45F);

  Simulator* sim = service.sim();
  SnsSystem* system = service.system();
  ContentUniverse* universe = service.universe();
  Rng rng(0x45);
  constexpr double kRate = 40.0;  // Needs ~2-3 distillers at ~23 req/s each.
  client->StartConstantRate(kRate, [&rng, universe] {
    TraceRecord record;
    record.user_id = "sec45";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  double warm_s = short_mode ? 20.0 : 40.0;
  double baseline_s = short_mode ? 5.0 : 10.0;
  sim->RunFor(Seconds(warm_s));  // Warm: the manager grows the pool to match load.

  int64_t completed_before = client->completed();
  sim->RunFor(Seconds(baseline_s));
  double baseline =
      static_cast<double>(client->completed() - completed_before) / baseline_s;

  auto distillers = system->live_workers(kJpegDistillerType);
  size_t pool_before = distillers.size();
  size_t kills = std::min<size_t>(2, distillers.size());
  std::printf("\n  steady state: %zu live distillers, %.1f req/s delivered (offered %.0f)\n",
              pool_before, baseline, kRate);

  FailureInjector injector(system->cluster(), system->san());
  system->AttachFailureInjector(&injector);  // Faults land on the trace timeline.
  SimTime kill_at = sim->now();
  for (size_t i = 0; i < kills; ++i) {
    injector.CrashProcessAt(kill_at, distillers[i]->pid());
  }

  // 100 ms sampling: detection (roster drop), respawn (live count restored),
  // throughput recovery (2 s window back to >= 90% of baseline, post-respawn).
  SimTime detect_at = -1;
  SimTime respawn_at = -1;
  SimTime recover_at = -1;
  std::deque<std::pair<SimTime, int64_t>> window;  // (time, completed) samples.
  ManagerProcess* manager = system->manager();
  while (sim->now() < kill_at + Seconds(60) &&
         (detect_at < 0 || respawn_at < 0 || recover_at < 0)) {
    sim->RunFor(Milliseconds(100));
    SimTime now = sim->now();
    if (detect_at < 0 && manager->KnownWorkerCount(kJpegDistillerType) < pool_before) {
      detect_at = now;
    }
    if (respawn_at < 0 &&
        system->live_workers(kJpegDistillerType).size() >= pool_before) {
      respawn_at = now;
    }
    window.emplace_back(now, client->completed());
    while (window.size() > 1 && now - window.front().first > Seconds(2)) {
      window.pop_front();
    }
    if (recover_at < 0 && respawn_at >= 0 && now - window.front().first >= Seconds(2)) {
      double rate = static_cast<double>(window.back().second - window.front().second) /
                    ToSeconds(now - window.front().first);
      if (rate >= 0.9 * baseline) {
        recover_at = now;
      }
    }
  }

  auto since_kill = [kill_at](SimTime t) {
    return t < 0 ? -1.0 : ToSeconds(t - kill_at);
  };
  std::printf("\n  killed %zu distillers at t=%s\n", kills, FormatTime(kill_at).c_str());
  std::printf("  %-34s %6.2f s\n", "detection (roster drops dead pair):",
              since_kill(detect_at));
  std::printf("  %-34s %6.2f s\n", "respawn (pool back to full size):",
              since_kill(respawn_at));
  std::printf("  %-34s %6.2f s   (paper: \"within a few seconds\")\n",
              "recovery (>=90% baseline rate):", since_kill(recover_at));
  std::printf("  manager spawns initiated so far: %lld\n",
              static_cast<long long>(manager->spawns_initiated()));
  for (const std::string& line : injector.event_log()) {
    std::printf("  injector: %s\n", line.c_str());
  }
  size_t injector_lines_seen = injector.event_log().size();

  // ---- Cell 2: fenced manager failover (DESIGN.md §14) -----------------------
  // Partition the manager's node away from the rest of the cluster. The majority
  // side's front-end watchdog notices beacon silence, STONITH-fences the
  // stranded incumbent, and promotes a successor epoch. Four timings:
  //   detection — first front-end watchdog fires (manager_restarts counter);
  //   fence     — the fence agent records the back-channel kill;
  //   promote   — a successor manager epoch exists;
  //   recovery  — 2 s-window throughput back to >= 90% of baseline.
  sim->RunFor(Seconds(short_mode ? 5 : 10));  // Re-settle after cell 1.
  manager = system->manager();
  NodeId manager_node = manager->node();
  uint64_t epoch_before = system->manager_epoch();
  int64_t fence_kills_before = system->fence_agent()->kills();
  auto fe_restarts = [system] {
    int64_t total = 0;
    for (FrontEndProcess* fe : system->front_ends()) {
      total += fe->manager_restarts_triggered();
    }
    return total;
  };
  int64_t restarts_before = fe_restarts();

  SimTime part_at = sim->now();
  double partition_s = short_mode ? 15.0 : 30.0;
  injector.PartitionAt(part_at, {manager_node}, part_at + Seconds(partition_s));
  std::printf("\n  partitioned manager node n%d at t=%s for %.0f s (fencing on)\n",
              manager_node, FormatTime(part_at).c_str(), partition_s);

  SimTime fo_detect_at = -1;
  SimTime fence_at = -1;
  SimTime promote_at = -1;
  SimTime fo_recover_at = -1;
  window.clear();
  while (sim->now() < part_at + Seconds(60) &&
         (fo_detect_at < 0 || fence_at < 0 || promote_at < 0 || fo_recover_at < 0)) {
    sim->RunFor(Milliseconds(100));
    SimTime now = sim->now();
    if (fo_detect_at < 0 && fe_restarts() > restarts_before) fo_detect_at = now;
    if (fence_at < 0 && system->fence_agent()->kills() > fence_kills_before) {
      fence_at = now;
    }
    if (promote_at < 0 && system->manager_epoch() > epoch_before) promote_at = now;
    window.emplace_back(now, client->completed());
    while (window.size() > 1 && now - window.front().first > Seconds(2)) {
      window.pop_front();
    }
    if (fo_recover_at < 0 && promote_at >= 0 &&
        now - window.front().first >= Seconds(2)) {
      double rate = static_cast<double>(window.back().second - window.front().second) /
                    ToSeconds(now - window.front().first);
      if (rate >= 0.9 * baseline) fo_recover_at = now;
    }
  }

  auto since_part = [part_at](SimTime t) {
    return t < 0 ? -1.0 : ToSeconds(t - part_at);
  };
  std::printf("  %-34s %6.2f s\n", "detection (FE watchdog fires):", since_part(fo_detect_at));
  std::printf("  %-34s %6.2f s\n", "fence (incumbent STONITH-killed):", since_part(fence_at));
  std::printf("  %-34s %6.2f s   (epoch %llu -> %llu)\n",
              "promote (successor epoch beacons):", since_part(promote_at),
              static_cast<unsigned long long>(epoch_before),
              static_cast<unsigned long long>(system->manager_epoch()));
  std::printf("  %-34s %6.2f s\n", "recovery (>=90% baseline rate):",
              since_part(fo_recover_at));
  const auto& events = injector.event_log();
  for (size_t i = injector_lines_seen; i < events.size(); ++i) {
    std::printf("  injector: %s\n", events[i].c_str());
  }
  for (const std::string& line : system->fence_agent()->log()) {
    std::printf("  fence: %s\n", line.c_str());
  }

  // Let the tail of the run settle, then dump the observability artifact.
  client->StopLoad();
  sim->RunFor(Seconds(short_mode ? 10 : 15));
  benchutil::DumpBenchArtifact(system, "sec45_fault_recovery");
  return 0;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
  }
  return sns::Run(short_mode);
}
