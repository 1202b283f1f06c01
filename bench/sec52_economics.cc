// Section 5.2: economic feasibility.
//
// The paper's arithmetic: "a US$5000 Pentium Pro server should be able to support
// about 750 modems, or about 15,000 subscribers (assuming a 20:1 subscriber to
// modem ratio). Amortized over 1 year, the marginal cost per user is an amazing 25
// cents/month. If we include the savings to the ISP due to a cache hit rate of 50%
// or more... we can eliminate the equivalent of 1-2 T1 lines per TranSend
// installation, which reduces operating costs by about US$3000 per month. Thus, we
// expect that the server would pay for itself in only two months."
//
// This bench measures the per-server sustainable request rate on the simulated
// cluster and re-derives the economics from measured numbers.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

void Run() {
  Logger::Get().set_min_level(LogLevel::kNone);
  benchutil::Header("Section 5.2: economic feasibility", "paper Section 5.2");

  // Measure the sustainable throughput of ONE worker node (the unit of incremental
  // scaling — the paper's "$5000 Pentium Pro server" runs the distillation work
  // for a modem bank).
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(40);
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = 1;   // A single distiller node.
  options.sns.spawn_threshold_h = 1e9;      // No growth: measure the unit.
  TranSendService service(options);
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  PlaybackEngine* client = service.AddPlaybackEngine(0xEC0);
  service.sim()->RunFor(Seconds(3));
  benchutil::PrewarmCache(&service, client);

  Rng rng(0xEC0);
  ContentUniverse* universe = service.universe();
  auto next = [&rng, universe] {
    TraceRecord record;
    record.user_id = "econ";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  };
  double sustainable = 0;
  int64_t approx_before = 0;
  client->StartConstantRate(4, next);
  for (double rate = 4; rate <= 40; rate += 2) {
    client->SetRate(rate);
    service.sim()->RunFor(Seconds(25));
    double achieved = client->RecentThroughput(Seconds(15));
    // Under overload the BASE fallback serves originals ("approximate answers");
    // those keep users happy but don't count as sustained distillation capacity.
    auto it = client->responses_by_source().find("approximate");
    int64_t approx_now = it != client->responses_by_source().end() ? it->second : 0;
    int64_t approx_this_step = approx_now - approx_before;
    approx_before = approx_now;
    if (achieved >= 0.97 * rate && approx_this_step < static_cast<int64_t>(rate)) {
      sustainable = achieved;
    }
  }
  client->StopLoad();
  benchutil::DumpBenchArtifact(service.system(), "sec52_economics");

  // Trace-derived facts (paper §4.1/§4.6): the 600-modem pool peaked at ~20 req/s.
  constexpr double kModems = 600;
  constexpr double kPeakReqPerSec = 20.0;
  constexpr double kServerCostUsd = 5000.0;
  constexpr double kT1SavingsPerMonthUsd = 3000.0;

  double modems_supported = kModems * (sustainable / kPeakReqPerSec);
  double subscribers = modems_supported * 20.0;  // Paper's 20:1 subscriber:modem.
  double cents_per_user_month = kServerCostUsd / (subscribers * 12.0) * 100.0;
  double payback_months = kServerCostUsd / kT1SavingsPerMonthUsd;

  std::printf("\n  measured per-server (distiller-node) rate: %.0f req/s\n", sustainable);
  std::printf("  modem-pool peak demand (trace):            %.0f req/s from %.0f modems\n",
              kPeakReqPerSec, kModems);
  std::printf("  -> modems one server supports:             %.0f (paper: ~750)\n",
              modems_supported);
  std::printf("  -> subscribers at 20:1 per modem:          %.0f (paper: ~15,000)\n",
              subscribers);
  std::printf("  -> server cost per user, amortized 1 yr:   %.1f cents/month "
              "(paper quotes 25 cents/month)\n",
              cents_per_user_month);
  std::printf("  cache-hit bandwidth savings:               50%%+ hit rate -> 1-2 T1 lines -> "
              "$%.0f/month\n",
              kT1SavingsPerMonthUsd);
  std::printf("  -> server pays for itself in:              %.1f months (paper: ~2 months)\n",
              payback_months);
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}
