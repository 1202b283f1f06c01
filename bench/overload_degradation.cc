// Overload degradation with end-to-end deadlines (paper §3.1.8, "starvation-based
// denial of service is graceful degradation").
//
// Method:
//   1. Pin the service to one distiller node (~23 req/s of JPEG distillation) with
//      distilled-variant caching off, so every request pays the distiller; a small
//      FE thread pool pushes overload backlog into the accept queue.
//   2. Measure the 1x plateau: goodput and latency at ~20 req/s (below saturation).
//   3. Offer 2x saturation WITHOUT deadlines: throughput pins at capacity while the
//      accept queue — and client-observed latency — grow without bound.
//   4. Offer 2x saturation WITH 4 s deadlines: deadline-aware admission at the
//      distiller refuses tasks whose backlog cannot meet their budget, so the
//      excess degrades EARLY into approximate answers (original bytes) instead of
//      limping to the deadline; whatever still slips past is shed at the deadline
//      (accept queue sweep, worker expiry, FE late-completion backstop). The
//      claims under test: NO accepted request completes after its deadline, and
//      goodput stays within 20% of the 1x plateau. Run twice with the same seed to
//      confirm determinism.
//   5. Consistent-hash check: removing one of N cache partitions remaps at most
//      ~1/N of the key space (vs ~(N-1)/N under mod-N), demonstrated both on a
//      synthetic ring and live (crashing a cache node mid-run bumps the FE's
//      ring_remaps counter while the service keeps answering).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/sns/manager_stub.h"
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

struct RunResult {
  double goodput = 0;       // On-time OK completions per second over the window.
  int64_t completed = 0;
  int64_t errors = 0;
  int64_t late = 0;         // OK answers delivered after their deadline.
  int64_t approximate = 0;  // BASE degradation: original bytes instead of distilled.
  int64_t deadline_expired = 0;
  int64_t ring_remaps = 0;
  double p50 = 0;
  double p99 = 0;
};

RunResult RunPhase(double rate, SimDuration deadline, SimDuration measure,
                   bool crash_cache_mid_run, uint64_t seed, bool emit_artifact = false) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(30);
  options.logic.cache_distilled = false;  // Every request re-distills (§4.6).
  options.topology.worker_pool_nodes = 1;  // Capacity ~23 req/s of distillation.
  options.topology.front_ends = 1;
  options.topology.cache_nodes = 4;
  options.sns.fe_thread_pool_size = 40;  // Backlog lands in the accept queue.
  TranSendService service(options);
  service.Start();

  // Warm the cache with a deadline-free client: aborted fetches cache nothing.
  PlaybackEngine* warmer = service.AddPlaybackEngine(seed ^ 0xAA);
  PlaybackConfig client_config;
  client_config.seed = seed;
  client_config.request_deadline = deadline;
  PlaybackEngine* client = service.AddPlaybackEngine(client_config);
  service.sim()->RunFor(Seconds(3));
  benchutil::PrewarmCache(&service, warmer);

  Rng rng(seed ^ 0x10adULL);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(rate, [&rng, universe] {
    TraceRecord record;
    record.user_id = "loadgen";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(10));  // Ramp: distiller spawned, queues settled.
  client->ResetStats();
  if (crash_cache_mid_run) {
    service.sim()->RunFor(measure / 2);
    auto caches = service.system()->cache_node_processes();
    if (!caches.empty()) {
      service.system()->cluster()->Crash(caches.back()->pid());
    }
    service.sim()->RunFor(measure / 2);
  } else {
    service.sim()->RunFor(measure);
  }
  client->StopLoad();

  RunResult result;
  result.completed = client->completed();
  result.errors = client->errors();
  result.late = client->late_completions();
  auto source_it = client->responses_by_source().find("approximate");
  if (source_it != client->responses_by_source().end()) {
    result.approximate = source_it->second;
  }
  result.goodput = static_cast<double>(result.completed - result.errors - result.late) /
                   ToSeconds(measure);
  result.p50 = client->latency_histogram().Percentile(0.5);
  result.p99 = client->latency_histogram().Percentile(0.99);
  FrontEndProcess* fe = service.system()->front_end(0);
  if (fe != nullptr) {
    result.deadline_expired = fe->deadline_expired();
    result.ring_remaps = fe->ring_remaps();
  }
  if (emit_artifact) {
    // Acceptance criterion: every sampled request's per-stage decomposition must
    // sum to its end-to-end latency within 1%.
    int64_t checked = benchutil::CheckStageSums(service.system());
    Check(checked > 0, StrFormat("stage sums match end-to-end latency within 1%% "
                                 "(%lld requests checked)",
                                 static_cast<long long>(checked)));
    std::printf("%s", CriticalPathSummary::FromCollector(*service.system()->tracer())
                          .RenderTable()
                          .c_str());
    Check(benchutil::DumpBenchArtifact(service.system(), "overload_degradation"),
          "BENCH_overload_degradation.json artifact written");
  }
  return result;
}

void PrintRun(const std::string& label, const RunResult& r) {
  std::printf("%-26s %8.1f %10lld %8lld %6lld %8lld %9lld %8.2f %8.2f\n", label.c_str(),
              r.goodput, static_cast<long long>(r.completed),
              static_cast<long long>(r.errors), static_cast<long long>(r.late),
              static_cast<long long>(r.approximate),
              static_cast<long long>(r.deadline_expired), r.p50, r.p99);
}

// Synthetic consistent-hash check: losing one of N partitions remaps only the
// departed node's share of the key space.
void RingRemapCheck() {
  std::printf("\n-- consistent-hash ring: one partition of 5 removed --\n");
  SnsConfig config;
  Rng rng(7);
  ManagerStub stub(config, &rng);
  ManagerBeaconPayload beacon;
  beacon.manager = Endpoint{0, 1};
  const int kNodes = 5;
  for (int i = 0; i < kNodes; ++i) {
    beacon.cache_nodes.push_back(Endpoint{10 + i, 100});
  }
  stub.OnBeacon(beacon, Seconds(1));

  const int kKeys = 3000;
  std::vector<Endpoint> before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    before[static_cast<size_t>(k)] =
        *stub.CacheNodeForKey("http://bench.example.edu/img" + std::to_string(k));
  }
  Endpoint departed = beacon.cache_nodes.back();
  beacon.cache_nodes.pop_back();
  stub.OnBeacon(beacon, Seconds(2));
  int remapped = 0;
  bool only_departed = true;
  for (int k = 0; k < kKeys; ++k) {
    auto owner = *stub.CacheNodeForKey("http://bench.example.edu/img" + std::to_string(k));
    if (owner != before[static_cast<size_t>(k)]) {
      ++remapped;
      only_departed = only_departed && before[static_cast<size_t>(k)] == departed;
    }
  }
  std::printf("  %d/%d keys remapped (ideal 1/N = %d, mod-N would remap ~%d)\n",
              remapped, kKeys, kKeys / kNodes, kKeys * (kNodes - 1) / kNodes);
  Check(remapped > 0 && remapped <= 2 * kKeys / kNodes,
        "remapped fraction <= 2/N on partition loss");
  Check(only_departed, "only the departed partition's keys moved");
}

// `short_mode` (--short): plateau + bounded-overload phases only, with a brief
// measurement window — enough to validate the harness, the stage-sum acceptance
// criterion, and the emitted artifact in CI without the full 5-phase sweep.
void Run(bool short_mode) {
  Logger::Get().set_min_level(LogLevel::kError);
  benchutil::Header("Overload degradation: deadlines vs unbounded queueing",
                    "paper Section 3.1.8 graceful degradation");

  const double kPlateauRate = 20;   // ~1x: just under one distiller's ~23 req/s.
  const double kOverloadRate = 40;  // 2x saturation.
  const SimDuration kDeadline = Seconds(4);
  const SimDuration kMeasure = short_mode ? Seconds(15) : Seconds(60);

  std::printf("\n%-26s %8s %10s %8s %6s %8s %9s %8s %8s\n", "phase", "goodput",
              "completed", "errors", "late", "approx", "expired", "p50(s)", "p99(s)");

  RunResult plateau = RunPhase(kPlateauRate, 0, kMeasure, false, 0xBEEF);
  PrintRun("1x, no deadlines", plateau);
  if (short_mode) {
    RunResult bounded = RunPhase(kOverloadRate, kDeadline, kMeasure, false, 0xBEEF,
                                 /*emit_artifact=*/true);
    PrintRun("2x, 4s deadlines", bounded);
    std::printf("\n-- claims (short mode) --\n");
    Check(plateau.goodput > 0.9 * kPlateauRate, "1x plateau sustains the offered load");
    Check(bounded.late == 0, "with deadlines, no request completes after its deadline");
    RingRemapCheck();
    return;
  }
  RunResult swamped = RunPhase(kOverloadRate, 0, kMeasure, false, 0xBEEF);
  PrintRun("2x, no deadlines", swamped);
  RunResult bounded = RunPhase(kOverloadRate, kDeadline, kMeasure, false, 0xBEEF,
                               /*emit_artifact=*/true);
  PrintRun("2x, 4s deadlines", bounded);
  RunResult repeat = RunPhase(kOverloadRate, kDeadline, kMeasure, false, 0xBEEF);
  PrintRun("2x, 4s deadlines (rerun)", repeat);
  RunResult node_loss = RunPhase(kOverloadRate, kDeadline, kMeasure, true, 0xBEEF);
  PrintRun("2x, deadlines, -1 cache", node_loss);

  std::printf("\n-- claims --\n");
  Check(plateau.goodput > 0.9 * kPlateauRate, "1x plateau sustains the offered load");
  Check(swamped.p99 > 2.0 * plateau.p99,
        "without deadlines, overload latency grows unboundedly");
  Check(bounded.late == 0, "with deadlines, no request completes after its deadline");
  Check(bounded.goodput >= 0.8 * plateau.goodput,
        "overload goodput within 20% of the 1x plateau");
  Check(bounded.approximate > 0 && bounded.approximate < bounded.completed,
        "excess load degrades early into approximate answers (BASE)");
  Check(bounded.p99 <= ToSeconds(kDeadline) + 0.5,
        "client-observed latency bounded by the deadline");
  Check(bounded.completed == repeat.completed && bounded.errors == repeat.errors &&
            bounded.deadline_expired == repeat.deadline_expired,
        "run is deterministic under a fixed seed");
  Check(node_loss.ring_remaps > bounded.ring_remaps,
        "cache-node loss surfaces as a ring remap at the front end");
  Check(node_loss.late == 0, "deadline guarantee holds through partition loss");

  RingRemapCheck();
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
