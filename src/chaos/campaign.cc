#include "src/chaos/campaign.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>

#include "src/cluster/failure_injector.h"
#include "src/services/transend/transend.h"
#include "src/util/strings.h"
#include "src/workload/content_universe.h"

namespace sns {
namespace {

TranSendOptions ChaosOptions(const CampaignConfig& config) {
  TranSendOptions options = DefaultTranSendOptions();
  // All-JPEG universe: every request re-distills, keeping the worker pool
  // load-bearing throughout the fault storm (same idiom as the fault tests).
  options.universe = FixedJpegUniverse(config.url_count);
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = config.worker_pool_nodes;
  options.topology.front_ends = config.front_ends;
  options.topology.cache_nodes = config.cache_nodes;
  options.sns.manager_epoch_fencing = config.epoch_fencing;
  options.sns.quorum_membership = config.quorum_membership;
  options.sns.stonith_fencing = config.stonith_fencing;
  options.sns.profile_write_acks = config.profile_write_acks;
  options.sns.cache_replication = config.cache_replication;
  return options;
}

}  // namespace

// Resolves a symbolic fault event against the live topology and applies it (via
// the injector, so it lands in the injector's event log).
void ApplyScheduledFault(const FaultEvent& ev, SnsSystem* system, FailureInjector* injector) {
  Simulator* sim = system->sim();
  SimTime now = sim->now();
  auto pick = [&ev](size_t size) {
    return static_cast<size_t>(ev.index) % size;
  };
  switch (ev.kind) {
    case FaultKind::kCrashManager: {
      ProcessId pid = system->manager_pid();
      if (pid != kInvalidProcess && system->cluster()->Find(pid) != nullptr) {
        injector->CrashProcessAt(now, pid);
      }
      break;
    }
    case FaultKind::kCrashWorker: {
      auto workers = system->live_workers();
      if (!workers.empty()) {
        injector->CrashProcessAt(now, workers[pick(workers.size())]->pid());
      }
      break;
    }
    case FaultKind::kCrashFrontEnd: {
      auto fes = system->front_ends();
      if (!fes.empty()) {
        injector->CrashProcessAt(now, fes[pick(fes.size())]->pid());
      }
      break;
    }
    case FaultKind::kCrashCacheNode: {
      auto caches = system->cache_node_processes();
      if (!caches.empty()) {
        injector->CrashProcessAt(now, caches[pick(caches.size())]->pid());
      }
      break;
    }
    case FaultKind::kKillWorkerNode: {
      const auto& pool = system->worker_pool();
      if (!pool.empty()) {
        NodeId victim = pool[pick(pool.size())];
        if (system->cluster()->NodeUp(victim)) {
          injector->CrashNodeAt(now, victim);
          injector->RestartNodeAt(now + ev.duration, victim);
        }
      }
      break;
    }
    case FaultKind::kPartitionManager: {
      ManagerProcess* manager = system->manager();
      if (manager != nullptr &&
          system->san()->PartitionGroupOf(manager->node()) == 0) {
        injector->PartitionAt(now, {manager->node()}, now + ev.duration);
      }
      break;
    }
    case FaultKind::kPartitionWorkers: {
      std::vector<NodeId> victims;
      const auto& pool = system->worker_pool();
      for (size_t i = 0; i < pool.size() && victims.size() < static_cast<size_t>(ev.count);
           ++i) {
        NodeId node = pool[(static_cast<size_t>(ev.index) + i) % pool.size()];
        if (system->cluster()->NodeUp(node) && system->san()->PartitionGroupOf(node) == 0 &&
            std::find(victims.begin(), victims.end(), node) == victims.end()) {
          victims.push_back(node);
        }
      }
      if (!victims.empty()) {
        injector->PartitionAt(now, victims, now + ev.duration);
      }
      break;
    }
    case FaultKind::kPartitionFrontEnd: {
      auto fes = system->front_ends();
      if (!fes.empty()) {
        NodeId victim = fes[pick(fes.size())]->node();
        if (system->san()->PartitionGroupOf(victim) == 0) {
          injector->PartitionAt(now, {victim}, now + ev.duration);
        }
      }
      break;
    }
    case FaultKind::kBeaconLoss:
      injector->BeaconLossAt(now, kGroupManagerBeacon, ev.duration);
      break;
    case FaultKind::kCrashProfileDb: {
      ProfileDbProcess* db = system->profile_db();
      if (db != nullptr) {
        injector->CrashProcessAt(now, db->pid());
      }
      break;
    }
    case FaultKind::kPartitionProfileDb: {
      ProfileDbProcess* db = system->profile_db();
      if (db != nullptr && system->san()->PartitionGroupOf(db->node()) == 0) {
        injector->PartitionAt(now, {db->node()}, now + ev.duration);
      }
      break;
    }
  }
}

std::string ChaosRunResult::Describe() const {
  std::string out = schedule.ToScript();
  out += StrFormat(
      "  result: %s, max_managers=%d, final_epoch=%llu, demotions=%lld, faults=%lld\n",
      passed() ? "PASS" : "FAIL", max_concurrent_managers,
      static_cast<unsigned long long>(final_manager_epoch),
      static_cast<long long>(manager_demotions), static_cast<long long>(faults_injected));
  out += StrFormat(
      "  clients: sent=%lld completed=%lld timeouts=%lld send_failures=%lld late=%lld\n",
      static_cast<long long>(sent), static_cast<long long>(completed),
      static_cast<long long>(timeouts), static_cast<long long>(send_failures),
      static_cast<long long>(late_completions));
  out += StrFormat(
      "  writes: acked=%lld/%lld lost=%lld nonquorate=%lld fence_kills=%lld\n",
      static_cast<long long>(writes_acked), static_cast<long long>(writes_sent),
      static_cast<long long>(writes_lost), static_cast<long long>(nonquorate_writes),
      static_cast<long long>(fence_kills));
  if (!passed()) {
    out += report.ToString();
  }
  return out;
}

ChaosRunResult RunSchedule(const FaultSchedule& schedule, const CampaignConfig& config) {
  ChaosRunResult result;
  result.schedule = schedule;

  TranSendService service(ChaosOptions(config));
  service.Start();
  PlaybackConfig playback;
  playback.seed = schedule.seed ^ 0xC11E47ULL;
  playback.request_timeout = config.request_timeout;
  playback.request_deadline = config.request_deadline;
  PlaybackEngine* client = service.AddPlaybackEngine(playback);

  // Profile-write side load feeding the acked-write ledger: one unique user per
  // write, so durability of each acked value is decidable at quiesce (no
  // last-writer races between ledger entries).
  ProfileWriteLedger ledger;
  std::unordered_map<std::string, size_t> ledger_index;
  PlaybackConfig writer_config;
  writer_config.seed = schedule.seed ^ 0x3717E5ULL;
  writer_config.request_timeout = config.request_timeout;
  writer_config.request_deadline = config.request_deadline;
  writer_config.on_response = [&ledger, &ledger_index](const std::string& user, bool ok) {
    auto it = ledger_index.find(user);
    if (ok && it != ledger_index.end()) {
      ledger.entries[it->second].acked = true;
    }
  };
  PlaybackEngine* writer = service.AddPlaybackEngine(writer_config);

  Simulator* sim = service.sim();
  SnsSystem* system = service.system();
  ContentUniverse* universe = service.universe();
  Rng load_rng(schedule.seed ^ 0x10ADULL);
  client->StartConstantRate(config.request_rate, [&load_rng, universe] {
    TraceRecord record;
    record.user_id = "chaos";
    record.url = universe->UrlAt(load_rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  // Warm up: the manager spawns the initial workers under load. Stats are NOT
  // reset — requests in flight at a reset would complete without a matching
  // send, breaking the answered-or-expired conservation check; accounting from
  // t=0 keeps sent == completed + timeouts + send_failures exact.
  sim->RunFor(config.warmup);

  // The ledgered writer starts only after warmup: before the first manager
  // beacon reaches the front ends, the pre-PR-8 fire-and-forget path false-acks
  // puts into the void, so a t=0 writer would make even the empty schedule lose
  // acked writes under the baseline config — the contract under test is
  // steady-state durability across faults, not the cold-start race.
  int64_t write_seq = 0;
  writer->StartConstantRate(
      config.profile_write_rate, [&ledger, &ledger_index, &write_seq, universe] {
        TraceRecord record;
        record.user_id = StrFormat("qw%lld", static_cast<long long>(write_seq));
        record.url = universe->UrlAt(0);
        std::string value = StrFormat("v%lld", static_cast<long long>(write_seq));
        record.params["set_qpref"] = value;
        ledger_index[record.user_id] = ledger.entries.size();
        ledger.entries.push_back({record.user_id, "qpref", value, false});
        ++write_seq;
        return record;
      });

  FailureInjector injector(system->cluster(), system->san());
  system->AttachFailureInjector(&injector);
  SimTime fault_start = sim->now();
  for (const FaultEvent& ev : schedule.events) {
    sim->ScheduleAt(fault_start + ev.at,
                    [&ev, system, &injector] { ApplyScheduledFault(ev, system, &injector); });
  }

  // Half-second census of live manager incarnations; trace records transitions.
  SimTime sample_end = fault_start + config.gen.horizon + config.gen.max_outage +
                       config.request_timeout + config.quiesce_settle;
  int last_census = -1;
  int last_quorate = -1;
  std::function<void()> sample = [&] {
    std::vector<ManagerProcess*> managers = LiveManagers(system);
    int census = static_cast<int>(managers.size());
    int quorate = 0;
    for (ManagerProcess* m : managers) {
      if (!m->read_only_degraded()) {
        ++quorate;
      }
    }
    result.max_concurrent_managers = std::max(result.max_concurrent_managers, census);
    if (census != last_census || quorate != last_quorate) {
      result.trace += StrFormat("t=%s managers=%d quorate=%d epoch=%llu\n",
                                FormatTime(sim->now()).c_str(), census, quorate,
                                static_cast<unsigned long long>(system->manager_epoch()));
      last_census = census;
      last_quorate = quorate;
    }
    if (sim->now() < sample_end) {
      sim->Schedule(Milliseconds(500), sample);
    }
  };
  sim->Schedule(0, sample);

  // Fault window, plus slack for the longest outage to heal.
  sim->RunFor(config.gen.horizon + config.gen.max_outage);
  client->StopLoad();
  writer->StopLoad();
  // Drain: every outstanding request completes or times out.
  sim->RunFor(config.request_timeout + Seconds(2));
  // Settle: beacons, TTL expiries, and re-registrations converge the soft state.
  sim->RunFor(config.quiesce_settle);

  result.report = CheckInvariantsAtQuiesce(system, {client, writer}, &ledger);
  result.final_manager_epoch = system->manager_epoch();
  result.manager_demotions = system->metrics()->GetCounter("manager.demotions")->value();
  result.faults_injected = injector.injected_count();
  result.sent = client->sent() + writer->sent();
  result.completed = client->completed() + writer->completed();
  result.timeouts = client->timeouts() + writer->timeouts();
  result.send_failures = client->send_failures() + writer->send_failures();
  result.late_completions = client->late_completions() + writer->late_completions();
  result.fence_kills = system->metrics()->GetCounter("fencing.kills")->value();
  result.writes_sent = static_cast<int64_t>(ledger.entries.size());
  result.writes_acked = ledger.acked();
  result.nonquorate_writes =
      system->metrics()->GetCounter("profiledb.writes_nonquorate")->value();
  for (const InvariantViolation& v : result.report.violations) {
    if (v.invariant == "acked-write-durable") {
      ++result.writes_lost;
    }
  }
  for (const std::string& line : injector.event_log()) {
    result.trace += line + "\n";
  }
  for (const std::string& line : system->fence_agent()->log()) {
    result.trace += line + "\n";
  }
  for (const std::string& line : system->membership()->transitions()) {
    result.trace += line + "\n";
  }
  result.trace += StrFormat(
      "final managers=%zu epoch=%llu demotions=%lld fence_kills=%lld "
      "writes acked=%lld/%lld lost=%lld nonquorate=%lld\n",
      LiveManagers(system).size(),
      static_cast<unsigned long long>(result.final_manager_epoch),
      static_cast<long long>(result.manager_demotions),
      static_cast<long long>(result.fence_kills),
      static_cast<long long>(result.writes_acked),
      static_cast<long long>(result.writes_sent),
      static_cast<long long>(result.writes_lost),
      static_cast<long long>(result.nonquorate_writes));
  return result;
}

std::string CampaignResult::Summary() const {
  std::string out =
      StrFormat("chaos campaign: %zu run(s), %d failed\n", runs.size(), failed);
  for (const ChaosRunResult& run : runs) {
    out += StrFormat("  seed=0x%llX %s events=%zu max_managers=%d epoch=%llu\n",
                     static_cast<unsigned long long>(run.schedule.seed),
                     run.passed() ? "PASS" : "FAIL", run.schedule.events.size(),
                     run.max_concurrent_managers,
                     static_cast<unsigned long long>(run.final_manager_epoch));
  }
  return out;
}

CampaignResult RunCampaign(uint64_t base_seed, int schedule_count,
                           const CampaignConfig& config) {
  CampaignResult result;
  for (int i = 0; i < schedule_count; ++i) {
    FaultSchedule schedule = GenerateSchedule(base_seed + static_cast<uint64_t>(i),
                                              config.gen);
    ChaosRunResult run = RunSchedule(schedule, config);
    if (!run.passed()) {
      ++result.failed;
    }
    result.runs.push_back(std::move(run));
  }
  return result;
}

}  // namespace sns
