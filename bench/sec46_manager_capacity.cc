// Section 4.6: manager load-announcement capacity.
//
// "Nine hundred distillers were created on four machines. Each of these distillers
// generated a load announcement packet for the manager every half a second. The
// manager was easily able to handle this aggregate load of 1800 announcements per
// second. With each distiller capable of processing over 20 front end requests per
// second, the manager is computationally capable of sustaining a total number of
// distillers equivalent to 18000 requests per second."

#include <cstdio>

#include "bench/bench_common.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

void Run() {
  Logger::Get().set_min_level(LogLevel::kError);
  benchutil::Header("Section 4.6: manager load-announcement capacity",
                    "paper Section 4.6 (900 distillers on 4 machines)");

  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  options.topology.cache_nodes = 1;
  options.topology.with_origin = false;
  // 900 worker processes share 4 nodes: lift the one-per-node placement rule.
  options.sns.max_workers_per_node = 250;
  TranSendService service(options);
  service.Start();
  service.sim()->RunFor(Seconds(2));

  constexpr int kDistillers = 900;
  for (int i = 0; i < kDistillers; ++i) {
    NodeId node = service.system()->worker_pool()[static_cast<size_t>(i % 4)];
    service.system()->LaunchWorker(kJpegDistillerType, node);
  }
  service.sim()->RunFor(Seconds(3));  // Let everyone hear a beacon and register.

  ManagerProcess* manager = service.system()->manager();
  int64_t reports_before = manager->reports_received();
  SimTime t0 = service.sim()->now();
  constexpr double kWindowS = 60.0;
  service.sim()->RunFor(Seconds(kWindowS));
  int64_t reports = manager->reports_received() - reports_before;
  double per_second = static_cast<double>(reports) / kWindowS;

  NodeId manager_node = service.system()->manager_node();
  double cpu = service.system()->cluster()->CpuUtilization(manager_node);
  double nic = service.system()->san()->ingress(manager_node)->Utilization(service.sim()->now());
  (void)t0;

  std::printf("\n  live distillers:            %zu\n",
              service.system()->live_workers(kJpegDistillerType).size());
  std::printf("  announcements received:     %lld over %.0f s -> %.0f/s (paper: 1800/s)\n",
              static_cast<long long>(reports), kWindowS, per_second);
  std::printf("  manager node CPU:           %.1f%% busy\n", cpu * 100);
  std::printf("  manager NIC (ingress):      %.1f%% busy\n", nic * 100);
  std::printf("  beacons sent:               %lld (hint table of %zu workers each)\n",
              static_cast<long long>(manager->beacons_sent()),
              service.system()->live_workers().size());

  std::printf("\n  The manager sustains %d distillers' announcements at %.1f%% CPU; with each\n"
              "  distiller worth >20 front-end req/s, that is the paper's \"total number of\n"
              "  distillers equivalent to 18000 requests per second\" — nearly three orders\n"
              "  of magnitude above the modem pool's peak (~20 req/s).\n",
              kDistillers, cpu * 100);
  if (cpu > 0) {
    std::printf("  CPU headroom suggests ~%.0f announcements/s before the manager itself\n"
                "  saturates.\n",
                per_second / cpu);
  }
  // The bench traces no request, so it writes the run artifact and no timeline.
  if (WriteRunArtifact("BENCH_sec46_manager_capacity.json",
                       CollectRunArtifact(service.system(), "sec46_manager_capacity"))) {
    std::printf("\nartifact: BENCH_sec46_manager_capacity.json\n");
  }
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}
