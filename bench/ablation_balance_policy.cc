// Ablation: centralized load-aware lottery balancing vs load-oblivious policies.
//
// The paper argues (§2.2.2, §3.1.2) for centralized collection of load data turned
// into lottery-scheduling hints at the stubs. This ablation holds the system fixed
// (2 fast + 2 slow distillers, steady 44 req/s) and swaps only the stub's selection policy:
//   - lottery:     tickets ∝ 1/(1+predicted queue)  (the paper's design)
//   - round-robin: static rotation, load-ignorant
//   - random:      uniform choice, load-ignorant
// The pool is deliberately heterogeneous — two distillers run on third-speed
// (overflow-grade) nodes, as happens whenever the overflow pool of desktop
// machines is recruited (§2.2.3). Load-oblivious policies overload the slow
// instances; the load-aware lottery shifts traffic away from them.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

struct PolicyResult {
  double mean_latency = 0;
  double p95_latency = 0;
  double p99_latency = 0;
  double avg_imbalance = 0;
};

PolicyResult RunPolicy(BalancePolicy policy) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(40);
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = 6;
  options.sns.balance_policy = policy;
  options.sns.spawn_threshold_h = 1e9;  // Freeze the population: balance-only test.
  options.sns.reap_threshold = -1;      // ...and keep the overflow workers alive.
  TranSendService service(options);
  service.Start();
  // Two full-speed distillers on pool nodes...
  for (int i = 0; i < 2; ++i) {
    service.system()->StartWorker(kJpegDistillerType);
  }
  // ...and two on third-speed "recruited desktop" nodes.
  for (int i = 0; i < 2; ++i) {
    NodeConfig slow;
    slow.speed = 0.33;
    slow.overflow_pool = true;
    NodeId node = service.system()->cluster()->AddNode(slow);
    service.system()->LaunchWorker(kJpegDistillerType, node);
  }
  PlaybackEngine* client = service.AddPlaybackEngine(0xBA1);
  service.sim()->RunFor(Seconds(3));
  benchutil::PrewarmCache(&service, client);

  Rng rng(0xBA1);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(44, [&rng, universe] {
    TraceRecord record;
    record.user_id = "policy";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });

  RunningStats imbalance;
  SimTime t0 = service.sim()->now();
  for (int second = 1; second <= 180; ++second) {
    service.sim()->RunUntil(t0 + Seconds(second));
    auto workers = service.system()->live_workers(kJpegDistillerType);
    if (workers.size() >= 2) {
      double lo = workers[0]->QueueLength();
      double hi = lo;
      for (WorkerProcess* worker : workers) {
        lo = std::min(lo, worker->QueueLength());
        hi = std::max(hi, worker->QueueLength());
      }
      imbalance.Add(hi - lo);
    }
  }
  client->StopLoad();
  benchutil::DumpBenchArtifact(service.system(), "ablation_balance_policy");

  PolicyResult result;
  result.mean_latency = client->latency_stats().mean();
  result.p95_latency = client->latency_histogram().Percentile(0.95);
  result.p99_latency = client->latency_histogram().Percentile(0.99);
  result.avg_imbalance = imbalance.mean();
  return result;
}

void Run() {
  Logger::Get().set_min_level(LogLevel::kNone);
  benchutil::Header("Ablation: stub balancing policy (lottery vs load-oblivious)",
                    "paper Sections 2.2.2 / 3.1.2 design rationale");

  PolicyResult lottery = RunPolicy(BalancePolicy::kLottery);
  PolicyResult rr = RunPolicy(BalancePolicy::kRoundRobin);
  PolicyResult random = RunPolicy(BalancePolicy::kRandom);

  std::printf("\n%-30s %-14s %-14s %-14s\n", "", "lottery", "round-robin", "random");
  std::printf("%-30s %-14.3f %-14.3f %-14.3f\n", "mean latency (s)", lottery.mean_latency,
              rr.mean_latency, random.mean_latency);
  std::printf("%-30s %-14.3f %-14.3f %-14.3f\n", "p95 latency (s)", lottery.p95_latency,
              rr.p95_latency, random.p95_latency);
  std::printf("%-30s %-14.3f %-14.3f %-14.3f\n", "p99 latency (s)", lottery.p99_latency,
              rr.p99_latency, random.p99_latency);
  std::printf("%-30s %-14.2f %-14.2f %-14.2f\n", "avg queue imbalance", lottery.avg_imbalance,
              rr.avg_imbalance, random.avg_imbalance);
  std::printf("\nExpected: load-aware lottery keeps queues tighter and trims the latency tail\n"
              "relative to load-oblivious selection, at identical throughput.\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}
