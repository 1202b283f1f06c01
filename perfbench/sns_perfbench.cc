// Host-cost benchmark episodes for the simulated SNS cluster.
//
// One episode builds a fresh cluster for one workload and one seed, warms it
// up, drives the workload's measured load window through the public service
// APIs, drains, settles, checks the quiesce invariants and the critical-path
// stage sums, serializes the run artifact sections through the program's own
// serializers, and tears the cluster down. Host time is taken around each of
// those steps; simulated results come from the playback engine, the
// availability ledger and the metrics registry.
//
// Usage:
//   sns_perfbench --workload <transend_replay|transend_flash_faults|hotbot_scatter>
//                 --seed <n> [--seconds T] [--min-episodes N] [--trace 0|1]
//
// Episodes of the same seed repeat until T wall-clock seconds have elapsed and
// at least N episodes ran; every episode prints one JSON object on its own line.
// perfbench/run.py aggregates these lines. With --trace 1 the zone profiler
// runs over each episode and the episode line carries the zone table.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/chaos/invariants.h"
#include "src/chaos/schedule.h"
#include "src/cluster/failure_injector.h"
#include "src/obs/critical_path.h"
#include "src/obs/perfetto.h"
#include "src/obs/profiler.h"
#include "src/services/hotbot/hotbot.h"
#include "src/services/transend/transend.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workload/origin_server.h"
#include "src/workload/trace.h"

namespace sns {
namespace {

// Host time is the CPU time of this single-threaded, I/O-free process: wall
// time less the time it was not scheduled.
struct Clock {
  using rep = int64_t;
  using period = std::nano;
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec));
  }
};

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Host speed drifts by tens of percent over minutes on a shared machine. To
// let perfbench/run.py express host times at a fixed reference speed, a fixed
// piece of reference work is timed every kCalibrationEvery of host time
// between RunFor segments: a sort, a hash-table build and probe, and number
// formatting over a seeded array. It uses only the standard library, so no
// change to the program alters it.
constexpr double kCalibrationEvery = 0.05;
volatile size_t g_calibration_sink;  // Keeps the calibration work observable.

double CalibrationRun() {
  const Clock::time_point t = Clock::now();
  std::vector<uint64_t> v(3000);
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (uint64_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < v.size(); i += 2) table[v[i]] = i;
  uint64_t acc = 0;
  for (uint64_t e : v) {
    auto it = table.find(e);
    if (it != table.end()) acc += it->second;
  }
  std::string out;
  char buf[24];
  for (uint64_t e : v) {
    auto r = std::to_chars(buf, buf + sizeof(buf), e + acc);
    out.append(buf, r.ptr);
    out += ',';
  }
  g_calibration_sink = out.size() + acc;
  return SecondsSince(t);
}

enum class Workload { kReplay, kFlashFaults, kHotBot };

// Simulated-time shape of one episode. The load window is open loop: the
// playback engine sends on its schedule whatever the cluster does.
struct Shape {
  SimDuration warmup;
  SimDuration window;
  SimDuration deadline;
  SimDuration timeout;
  SimDuration settle;
};

Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kReplay:
      return {Seconds(3), Minutes(30), Seconds(10), Seconds(20), Seconds(30)};
    case Workload::kFlashFaults:
      return {Seconds(8), Seconds(360), Seconds(4), Seconds(8), Seconds(30)};
    case Workload::kHotBot:
      return {Seconds(2), Seconds(60), Seconds(2), Seconds(4), Seconds(30)};
  }
  return {};
}

// transend_replay: trace rate (req/s) and the share of requests that carry a
// preference write.
constexpr double kReplayRate = 16.0;
constexpr double kReplayWriteShare = 0.03;
constexpr int64_t kReplayUrls = 4000;
// Four cache nodes of 2 MB each: well below the replay's working set, so the
// cache tier evicts.
constexpr int64_t kReplayCacheBytesPerNode = 2LL * 1000 * 1000;
// transend_flash_faults: base rate before the 10x step (~1.5x of the cluster's
// ~69 req/s distiller capacity during the step). The window repeats a 60 s
// cycle whose crowd arrives 30% into the cycle and leaves at 55%.
constexpr double kFlashBaseRate = 10.35;
constexpr int64_t kFlashUrls = 40;
constexpr SimDuration kFlashCycle = Seconds(60);
// hotbot_scatter: constant query rate and corpus size.
constexpr double kHotBotRate = 100.0;
constexpr int64_t kHotBotDocs = 8000;

// Seeds for the parts of one episode's inputs, all derived from the episode
// seed so that one seed fixes every input.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Zones {
  int build, inputs, start, warmup, load, drain, settle, fault, invariants, harvest, collect;
  int ser_snapshot, ser_timeseries, ser_critical_path, ser_availability, ser_traces,
      ser_chrome_trace, teardown;
};

Zones RegisterZones() {
  Profiler& p = Profiler::Get();
  Zones z;
  z.build = p.RegisterZone("bench.setup.build");
  z.inputs = p.RegisterZone("bench.inputs");
  z.start = p.RegisterZone("bench.setup.start");
  z.warmup = p.RegisterZone("bench.setup.warmup");
  z.load = p.RegisterZone("bench.run.load");
  z.drain = p.RegisterZone("bench.run.drain");
  z.settle = p.RegisterZone("bench.run.settle");
  z.fault = p.RegisterZone("bench.fault.apply");
  z.invariants = p.RegisterZone("bench.check.invariants");
  z.harvest = p.RegisterZone("bench.check.traces");
  z.collect = p.RegisterZone("bench.collect");
  z.ser_snapshot = p.RegisterZone("bench.serialize.snapshot");
  z.ser_timeseries = p.RegisterZone("bench.serialize.timeseries");
  z.ser_critical_path = p.RegisterZone("bench.serialize.critical_path");
  z.ser_availability = p.RegisterZone("bench.serialize.availability");
  z.ser_traces = p.RegisterZone("bench.serialize.traces");
  z.ser_chrome_trace = p.RegisterZone("bench.serialize.chrome_trace");
  z.teardown = p.RegisterZone("bench.teardown");
  return z;
}

// A JSON object built by appending "key":value members.
class Json {
 public:
  Json& Num(const char* key, double v) {
    Key(key);
    out_ += std::isfinite(v) ? StrFormat("%.17g", v) : std::string("null");
    return *this;
  }
  Json& Int(const char* key, int64_t v) {
    Key(key);
    out_ += StrFormat("%lld", static_cast<long long>(v));
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += "\"" + JsonEscape(v) + "\"";
    return *this;
  }
  Json& Raw(const char* key, const std::string& v) {
    Key(key);
    out_ += v;
    return *this;
  }
  std::string Done() const { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) out_ += ",";
    out_ += "\"" + JsonEscape(key) + "\":";
  }
  std::string out_;
};

// Sum of the registry instruments named <prefix>*<suffix>, e.g. the per-worker
// "worker.<type>.p<pid>.completed_tasks" counters, which outlive their process.
template <typename ForEach>
double SumMatching(ForEach for_each, const std::string& prefix, const std::string& suffix) {
  double sum = 0;
  for_each([&](const std::string& name, const auto& instrument) {
    if (name.size() >= prefix.size() + suffix.size() && name.rfind(prefix, 0) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += static_cast<double>(instrument.value());
    }
  });
  return sum;
}

double SumCounters(const MetricsRegistry& metrics, const std::string& prefix,
                   const std::string& suffix) {
  return SumMatching([&](auto fn) { metrics.ForEachCounter(fn); }, prefix, suffix);
}

double SumGauges(const MetricsRegistry& metrics, const std::string& prefix,
                 const std::string& suffix) {
  return SumMatching([&](auto fn) { metrics.ForEachGauge(fn); }, prefix, suffix);
}

TranSendOptions ReplayOptions(uint64_t seed) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe.url_count = kReplayUrls;
  options.universe.seed = Mix(seed, 1);
  options.origin.seed = Mix(seed, 2);
  options.topology.seed = Mix(seed, 3);
  options.topology.worker_pool_nodes = 6;
  options.topology.overflow_nodes = 2;
  options.topology.cache.capacity_bytes = kReplayCacheBytesPerNode;
  return options;
}

TranSendOptions FlashOptions(uint64_t seed) {
  TranSendOptions options = DefaultTranSendOptions();
  // All-JPEG ~10 KB objects with distilled results uncached: every request
  // re-distills, so the worker pool and the control plane carry the load.
  options.universe.url_count = kFlashUrls;
  options.universe.seed = Mix(seed, 1);
  options.universe.sizes.gif_fraction = 0.0;
  options.universe.sizes.html_fraction = 0.0;
  options.universe.sizes.jpeg_fraction = 1.0;
  options.universe.sizes.jpeg_mu = 9.2335;
  options.universe.sizes.jpeg_sigma = 0.05;
  options.universe.sizes.error_page_fraction = 0.0;
  options.logic.cache_distilled = false;
  options.origin.seed = Mix(seed, 2);
  options.topology.seed = Mix(seed, 3);
  options.topology.worker_pool_nodes = 3;
  options.topology.front_ends = 2;
  options.topology.cache_nodes = 2;
  options.sns.cache_replication = 2;
  return options;
}

HotBotOptions HotBotOpts(uint64_t seed) {
  HotBotOptions options = DefaultHotBotOptions();
  options.corpus.seed = Mix(seed, 1);
  options.corpus.doc_count = kHotBotDocs;
  options.topology.seed = Mix(seed, 3);
  return options;
}

// The replay's requests: a Fig. 5/6 burst trace at kReplayRate, with a
// kReplayWriteShare of them carrying a preference write. The burst process's
// minute-scale modulation moves the mean rate of a 30-minute slice by up to
// ~20% between seeds, and with it the host cost per request. So a twice-as-long
// trace is generated, cut to exactly kReplayRate x window records, and its
// times scaled onto the window: every seed offers the same load, with its own
// bursts.
std::vector<TraceRecord> ReplayTrace(uint64_t seed, SimDuration window,
                                     const ContentUniverse* universe, Rng* rng) {
  TraceGenConfig gen;
  gen.seed = Mix(seed, 5);
  gen.duration = 2 * window;
  gen.mean_rate = kReplayRate;
  gen.diurnal_amplitude = 0.0;  // Flat slice; the burst structure remains.
  const auto records = static_cast<size_t>(kReplayRate * ToSeconds(window));
  std::vector<TraceRecord> trace;
  trace.reserve(records);
  TraceGenerator(gen, universe).Generate([&](const TraceRecord& record) {
    if (trace.size() < records) trace.push_back(record);
  });
  // Times are random within each second of the stream; playback wants them in
  // order.
  std::sort(trace.begin(), trace.end(),
            [](const TraceRecord& x, const TraceRecord& y) { return x.time < y.time; });
  const double scale = trace.empty() || trace.back().time <= 0
                           ? 1.0
                           : static_cast<double>(window) / static_cast<double>(trace.back().time);
  const char* kQualities[] = {"low", "med", "high"};
  for (TraceRecord& record : trace) {
    record.time = static_cast<SimTime>(static_cast<double>(record.time) * scale);
    if (rng->Bernoulli(kReplayWriteShare)) {
      record.params["set_quality"] = kQualities[rng->UniformInt(0, 2)];
    }
  }
  return trace;
}

// The flash workload's fault schedule. Every 60 s cycle of the window gets
// two faults of fixed kinds, one before the crowd arrives and one inside it,
// so that every seed drives the same control-plane paths: worker respawn,
// manager failover with fencing, cache rebalance, beacon loss, quorum regroup
// and front-end restart. The seed picks each victim, shifts each fault by up
// to 2 s and sets each outage to 5-8 s; all heal before the window ends.
FaultSchedule FlashFaults(uint64_t seed, SimDuration window) {
  static constexpr FaultKind kKinds[][2] = {
      {FaultKind::kCrashWorker, FaultKind::kPartitionManager},
      {FaultKind::kCrashCacheNode, FaultKind::kBeaconLoss},
      {FaultKind::kPartitionWorkers, FaultKind::kCrashFrontEnd},
  };
  FaultSchedule schedule;
  schedule.seed = seed;
  Rng rng(seed);
  int cycle = 0;
  for (SimDuration at = 0; at + kFlashCycle <= window; at += kFlashCycle, ++cycle) {
    const FaultKind* kinds = kKinds[cycle % 3];
    for (int i = 0; i < 2; ++i) {
      FaultEvent ev;
      ev.kind = kinds[i];
      ev.at = at + Seconds(i == 0 ? 10 : 25) + Milliseconds(rng.UniformInt(-2000, 2000));
      ev.index = static_cast<int>(rng.UniformInt(0, 7));
      ev.count = 1;
      ev.duration = Milliseconds(rng.UniformInt(5000, 8000));
      schedule.events.push_back(ev);
    }
  }
  return schedule;
}

// One episode's service with its clients. Exactly one of transend/hotbot is set.
struct Deployment {
  std::unique_ptr<TranSendService> transend;
  std::unique_ptr<HotBotService> hotbot;
  SnsSystem* system = nullptr;
  PlaybackEngine* client = nullptr;       // Measured load.
  PlaybackEngine* warm_client = nullptr;  // Warm-up load (flash workload only).
  std::vector<TraceRecord> trace;         // Replay input.
  FaultSchedule faults;                   // Flash input.
  std::unique_ptr<FailureInjector> injector;
};

PlaybackConfig ClientConfig(uint64_t seed, const Shape& shape) {
  PlaybackConfig config;
  config.seed = seed;
  config.request_deadline = shape.deadline;
  config.request_timeout = shape.timeout;
  return config;
}

// HotBotService::AddPlaybackEngine takes no deadline, so the measured client is
// spawned here through the same public calls it makes.
PlaybackEngine* AddHotBotClient(HotBotService* service, PlaybackConfig config) {
  NodeConfig node_config;
  node_config.workers_allowed = false;
  NodeId node = service->system()->cluster()->AddNode(node_config);
  config.front_ends = [service] { return service->LiveFrontEnds(); };
  config.availability = service->system()->availability();
  auto engine = std::make_unique<PlaybackEngine>(config);
  PlaybackEngine* raw = engine.get();
  if (service->system()->cluster()->Spawn(node, std::move(engine)) == kInvalidProcess) {
    return nullptr;
  }
  return raw;
}

// Reads every finished request trace before the collector's bounded retention
// can evict it: checks that its critical-path stages sum exactly to its
// latency, adds it to the stage table, and keeps the measured client's
// latencies. Collect() runs between RunFor segments short enough that fewer
// than half the retention cap of traces start within one segment.
class TraceHarvest {
 public:
  TraceHarvest(uint64_t first_measured_trace, SimDuration deadline)
      : first_measured_trace_(first_measured_trace), deadline_(deadline) {}

  void Collect(const TraceCollector& tracer) {
    for (uint64_t id : tracer.TraceIds()) {
      if (done_.count(id) != 0) continue;
      std::optional<CriticalPath> path = AnalyzeTrace(tracer.Trace(id));
      if (!path.has_value()) continue;  // Still in flight.
      done_.insert(id);
      if (path->total > 0) {
        ++checked_;
        if (path->StageSum() != path->total) ++bad_;
        paths_.Add(*path);
      }
      // Requests of the measured client answered Ok within their deadline,
      // timed from their scheduled send.
      if (id > first_measured_trace_ && path->root_outcome == "ok" &&
          path->total <= deadline_) {
        latencies_ns_.push_back(path->total);
      }
    }
  }

  int64_t checked() const { return checked_; }
  int64_t bad() const { return bad_; }
  const CriticalPathSummary& paths() const { return paths_; }
  const std::vector<SimDuration>& latencies_ns() const { return latencies_ns_; }

 private:
  uint64_t first_measured_trace_;
  SimDuration deadline_;
  std::unordered_set<uint64_t> done_;
  int64_t checked_ = 0;
  int64_t bad_ = 0;
  CriticalPathSummary paths_;
  std::vector<SimDuration> latencies_ns_;
};

// Sim-time length of one RunFor segment between trace harvests: at the peak
// offered rate (~104 req/s during a flash crowd) a segment starts ~1000 traces,
// a quarter of TraceCollector's 4096-trace retention.
constexpr SimDuration kSegment = Seconds(10);

struct EpisodeResult {
  std::string line;  // The episode's JSON object.
  bool ok = true;
};

std::string StageTable(const CriticalPathSummary& paths) {
  Json stages;
  for (const std::string& stage : paths.StageNames()) {
    const LogHistogram* h = paths.StageHistogram(stage);
    if (h == nullptr) continue;
    stages.Raw(stage.c_str(), Json()
                                  .Int("n", h->TotalCount())
                                  .Num("p50_s", h->Percentile(0.50))
                                  .Num("p99_s", h->Percentile(0.99))
                                  .Done());
  }
  return stages.Done();
}

EpisodeResult RunEpisode(Workload workload, const Zones& zones, uint64_t seed, int episode,
                         bool traced) {
  EpisodeResult result;
  const Shape shape = ShapeOf(workload);
  Profiler& prof = Profiler::Get();
  if (traced) {
    prof.Reset();
    prof.BeginMeasurement();
  }
  const Clock::time_point t0 = Clock::now();
  Deployment c;
  Rng load_rng(Mix(seed, 4));

  // --- Setup: construction (universe / corpus and index build). ------------------
  {
    ProfileZone z(zones.build);
    switch (workload) {
      case Workload::kReplay:
        c.transend = std::make_unique<TranSendService>(ReplayOptions(seed));
        break;
      case Workload::kFlashFaults:
        c.transend = std::make_unique<TranSendService>(FlashOptions(seed));
        break;
      case Workload::kHotBot:
        c.hotbot = std::make_unique<HotBotService>(HotBotOpts(seed));
        break;
    }
  }

  // --- The workload's precomputed inputs. ------------------------------------------
  // Host time of the benchmark's own work (inputs, trace reads, calibration,
  // result collection), which setup_s, window_s and total_s leave out.
  double bench_s = 0;
  {
    const Clock::time_point ti = Clock::now();
    ProfileZone z(zones.inputs);
    if (workload == Workload::kReplay) {
      c.trace = ReplayTrace(seed, shape.window, c.transend->universe(), &load_rng);
    } else if (workload == Workload::kFlashFaults) {
      c.faults = FlashFaults(Mix(seed, 6), shape.window);
    }
    bench_s += SecondsSince(ti);
  }

  // --- Setup: Start() and the clients. -------------------------------------------
  {
    ProfileZone z(zones.start);
    if (c.transend != nullptr) {
      c.transend->Start();
      c.system = c.transend->system();
      c.client = c.transend->AddPlaybackEngine(ClientConfig(Mix(seed, 7), shape));
      if (workload == Workload::kFlashFaults) {
        c.warm_client = c.transend->AddPlaybackEngine(ClientConfig(Mix(seed, 8), shape));
      }
    } else {
      c.hotbot->Start();
      c.system = c.hotbot->system();
      c.client = AddHotBotClient(c.hotbot.get(), ClientConfig(Mix(seed, 7), shape));
    }
  }
  if (c.client == nullptr || (workload == Workload::kFlashFaults && c.warm_client == nullptr)) {
    std::fprintf(stderr, "sns_perfbench: could not spawn a playback engine\n");
    std::exit(1);
  }
  Simulator* sim = c.system->sim();

  // --- Setup: warm-up. Only the flash workload sends warm-up requests; the
  // other two start their window with empty caches. -------------------------------
  {
    ProfileZone z(zones.warmup);
    if (c.warm_client != nullptr) {
      ContentUniverse* universe = c.transend->universe();
      c.warm_client->StartConstantRate(6.0, [&load_rng, universe] {
        TraceRecord record;
        record.user_id = "warmup";
        record.url = universe->UrlAt(load_rng.UniformInt(0, universe->url_count() - 1));
        return record;
      });
    }
    sim->RunFor(shape.warmup);
    if (c.warm_client != nullptr) c.warm_client->StopLoad();
  }
  const double setup_s = SecondsSince(t0) - bench_s;

  // --- Measured window: load, faults, drain. ---------------------------------------
  std::vector<double> calibration_s;
  Clock::time_point last_calibration = Clock::now();
  auto calibrate = [&] {
    Clock::time_point t = Clock::now();
    calibration_s.push_back(CalibrationRun());
    last_calibration = Clock::now();
    bench_s += SecondsSince(t);
  };
  TraceHarvest harvest(c.system->tracer()->traces_started(), shape.deadline);
  auto collect_traces = [&] {
    Clock::time_point t = Clock::now();
    {
      ProfileZone z(zones.harvest);
      harvest.Collect(*c.system->tracer());
    }
    bench_s += SecondsSince(t);
  };
  // Runs `d` of sim time in harvested segments; returns the host seconds the
  // simulator itself took.
  auto run_segments = [&](int zone, SimDuration d) {
    double run_s = 0;
    for (SimDuration done = 0; done < d; done += kSegment) {
      Clock::time_point t = Clock::now();
      {
        ProfileZone z(zone);
        sim->RunFor(std::min(kSegment, d - done));
      }
      run_s += SecondsSince(t);
      collect_traces();
      if (SecondsSince(last_calibration) >= kCalibrationEvery) calibrate();
    }
    return run_s;
  };
  collect_traces();
  calibrate();

  const Clock::time_point tw = Clock::now();
  const uint64_t events_before_window = sim->executed_events();
  {
    ProfileZone z(zones.load);
    switch (workload) {
      case Workload::kReplay:
        c.client->PlayTrace(std::move(c.trace), 0);
        break;
      case Workload::kFlashFaults: {
        ContentUniverse* universe = c.transend->universe();
        PlaybackEngine* client = c.client;
        client->StartConstantRate(kFlashBaseRate, [&load_rng, universe] {
          TraceRecord record;
          record.user_id =
              StrFormat("u%lld", static_cast<long long>(load_rng.Zipf(256, 0.7)));
          record.url = universe->UrlAt(load_rng.Zipf(universe->url_count(), 0.9));
          return record;
        });
        for (SimDuration cycle = 0; cycle < shape.window; cycle += kFlashCycle) {
          sim->Schedule(cycle + kFlashCycle * 3 / 10,
                        [client] { client->SetRate(10.0 * kFlashBaseRate); });
          sim->Schedule(cycle + kFlashCycle * 11 / 20,
                        [client] { client->SetRate(kFlashBaseRate); });
        }
        c.injector = std::make_unique<FailureInjector>(c.system->cluster(), c.system->san());
        c.system->AttachFailureInjector(c.injector.get());
        SnsSystem* system = c.system;
        FailureInjector* injector = c.injector.get();
        for (const FaultEvent& ev : c.faults.events) {
          const FaultEvent* event = &ev;
          int zone = zones.fault;
          sim->Schedule(ev.at, [event, system, injector, zone] {
            ProfileZone fz(zone);
            ApplyScheduledFault(*event, system, injector);
          });
        }
        break;
      }
      case Workload::kHotBot: {
        HotBotService* service = c.hotbot.get();
        const CorpusConfig corpus = service->options().corpus;
        c.client->StartConstantRate(kHotBotRate, [&load_rng, service, corpus] {
          int terms = static_cast<int>(load_rng.UniformInt(1, 3));
          std::vector<std::string> words = SampleQueryTerms(corpus, &load_rng, terms);
          std::string query;
          for (const std::string& w : words) {
            if (!query.empty()) query += "+";
            query += w;
          }
          return service->MakeQuery(
              StrFormat("u%lld", static_cast<long long>(load_rng.Zipf(512, 0.7))), query);
        });
        break;
      }
    }
  }
  double window_s = SecondsSince(tw);
  window_s += run_segments(zones.load, shape.window);
  c.client->StopLoad();
  window_s += run_segments(zones.drain, shape.timeout + Seconds(2));
  const uint64_t window_events = sim->executed_events() - events_before_window;

  // --- Settle, then the correctness checks. -----------------------------------------
  run_segments(zones.settle, shape.settle);
  std::vector<PlaybackEngine*> clients = {c.client};
  if (c.warm_client != nullptr) clients.push_back(c.warm_client);
  InvariantReport invariants;
  {
    ProfileZone z(zones.invariants);
    invariants = CheckInvariantsAtQuiesce(c.system, clients);
  }
  // Requests neither completed, timed out nor failed to send (outstanding ones
  // included): zero when every request was accounted for.
  int64_t lost_requests = 0;
  for (PlaybackEngine* p : clients) {
    lost_requests += p->sent() - p->completed() - p->timeouts() - p->send_failures();
  }
  // --- Simulated results. --------------------------------------------------------------
  Json simj;
  const Clock::time_point tc = Clock::now();
  {
    ProfileZone z(zones.collect);
    SnsSystem* system = c.system;
    MetricsRegistry* metrics = system->metrics();
    PlaybackEngine* p = c.client;
    const AvailabilityLedger* ledger = system->availability();
    double max_window_yield = 0;
    for (const AvailabilityLedger::WindowRow& row : ledger->Windows()) {
      if (row.offered > 0) {
        max_window_yield = std::max(
            max_window_yield, static_cast<double>(row.answered) / static_cast<double>(row.offered));
      }
    }
    double recovery_gap_s = 0;
    for (const AvailabilityLedger::RecoveryGap& gap :
         ledger->DeriveRecoveryGaps(system->event_log())) {
      recovery_gap_s += gap.duration_s;
    }
    int64_t cache_evictions = 0;
    int64_t cache_used = 0;
    for (CacheNodeProcess* cache : system->cache_node_processes()) {
      cache_evictions += cache->evictions();
      cache_used += cache->used_bytes();
    }
    int64_t origin_fetches = 0;
    int64_t origin_bytes = 0;
    if (auto* origin = dynamic_cast<OriginServerProcess*>(system->origin_process())) {
      origin_fetches = origin->fetches_served();
      origin_bytes = origin->bytes_served();
    }
    ProfileDbProcess* db = system->profile_db();
    int64_t partial = 0;
    if (workload == Workload::kHotBot) {
      auto it = p->responses_by_source().find("approximate");
      partial = it != p->responses_by_source().end() ? it->second : 0;
    }
    std::string latencies;
    for (SimDuration ns : harvest.latencies_ns()) {
      if (!latencies.empty()) latencies += ",";
      latencies += StrFormat("%lld", static_cast<long long>(ns));
    }
    simj.Int("offered", p->sent())
        .Int("completed", p->completed())
        .Int("errors", p->errors())
        .Int("timeouts", p->timeouts())
        .Int("send_failures", p->send_failures())
        .Int("late", p->late_completions())
        .Int("good", p->completed() - p->errors() - p->late_completions())
        .Int("ledger_offered", ledger->offered())
        .Int("ledger_answered", ledger->answered())
        .Num("ledger_harvest_sum", ledger->RunHarvest() * static_cast<double>(ledger->answered()))
        .Num("max_window_yield", max_window_yield)
        .Num("recovery_gap_s", recovery_gap_s)
        .Raw("latencies_ns", "[" + latencies + "]")
        .Int("events", static_cast<int64_t>(sim->executed_events()))
        .Int("window_events", static_cast<int64_t>(window_events))
        .Int("san_delivered", metrics->CounterValue("san.messages_delivered"))
        .Int("san_dropped", metrics->CounterValue("san.datagrams_dropped"))
        .Int("manager_reports", metrics->CounterValue("manager.reports_received"))
        .Int("manager_spawns", metrics->CounterValue("manager.spawns_initiated"))
        .Int("manager_reaps", metrics->CounterValue("manager.reaps_initiated"))
        .Int("manager_fe_restarts", metrics->CounterValue("manager.fe_restarts"))
        .Int("manager_quorum_losses", metrics->CounterValue("manager.quorum_losses"))
        .Int("fencing_kills", metrics->CounterValue("fencing.kills"))
        .Num("cache_hits", SumGauges(*metrics, "cache.n", ".hits"))
        .Num("cache_misses", SumGauges(*metrics, "cache.n", ".misses"))
        .Int("cache_evictions", cache_evictions)
        .Int("cache_used_bytes", cache_used)
        .Int("profiledb_writes", db != nullptr ? db->writes() : 0)
        .Int("profiledb_writes_rejected", metrics->CounterValue("profiledb.writes_rejected"))
        .Int("origin_fetches", origin_fetches)
        .Int("origin_bytes", origin_bytes)
        .Num("tacc_tasks", SumCounters(*metrics, "worker.", ".completed_tasks"))
        .Num("tacc_rejected", SumCounters(*metrics, "worker.", ".rejected_tasks"))
        .Num("tacc_expired", SumCounters(*metrics, "worker.", ".expired_tasks"))
        .Int("hotbot_partial_answers", partial)
        .Int("faults_injected", c.injector != nullptr ? c.injector->injected_count() : 0)
        .Int("spans_retained", static_cast<int64_t>(system->tracer()->span_count()))
        .Int("traces_started", static_cast<int64_t>(system->tracer()->traces_started()))
        .Int("san_events_recorded", system->event_log()->messages_recorded())
        .Int("timeseries_samples",
             system->recorder() != nullptr ? system->recorder()->samples_taken() : 0);
  }
  bench_s += SecondsSince(tc);

  // --- Artifact serialization through the program's serializers. ------------------
  Json ser;
  int64_t artifact_bytes = 0;
  auto serialize = [&](const char* name, int zone, auto&& fn) {
    Clock::time_point ts = Clock::now();
    {
      ProfileZone z(zone);
      std::string s = fn();
      artifact_bytes += static_cast<int64_t>(s.size());
    }
    ser.Num(name, SecondsSince(ts) * 1e3);
  };
  SnsSystem* system = c.system;
  serialize("snapshot", zones.ser_snapshot, [system] {
    MonitorProcess* monitor = system->monitor();
    return monitor != nullptr ? monitor->ExportJson() : system->metrics()->RenderJson();
  });
  serialize("timeseries", zones.ser_timeseries, [system] {
    return system->recorder() != nullptr ? system->recorder()->ToJson() : std::string("{}");
  });
  serialize("critical_path", zones.ser_critical_path, [system] {
    return CriticalPathSummary::FromCollector(*system->tracer()).ToJson();
  });
  serialize("availability", zones.ser_availability,
            [system] { return system->availability()->ToJson(system->event_log()); });
  serialize("traces", zones.ser_traces, [system] { return system->tracer()->ToJson(); });
  serialize("chrome_trace", zones.ser_chrome_trace,
            [system] { return ExportChromeTrace(*system->tracer(), system->event_log()); });

  {
    ProfileZone z(zones.teardown);
    c.transend.reset();
    c.hotbot.reset();
  }
  const double total_s = SecondsSince(t0) - bench_s;
  if (traced) prof.EndMeasurement();

  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);

  std::string violations;
  for (const InvariantViolation& v : invariants.violations) {
    if (!violations.empty()) violations += ",";
    violations += "\"" + JsonEscape(v.invariant + ": " + v.detail) + "\"";
  }
  result.ok = invariants.ok() && lost_requests == 0 && harvest.bad() == 0;

  std::string calibration;
  for (double sample : calibration_s) {
    if (!calibration.empty()) calibration += ",";
    calibration += StrFormat("%.9g", sample);
  }
  Json host;
  host.Num("setup_s", setup_s)
      .Num("window_s", window_s)
      .Num("total_s", total_s)
      .Int("peak_rss_kb", static_cast<int64_t>(usage.ru_maxrss))
      .Raw("calibration_s", "[" + calibration + "]");
  Json checks;
  checks.Raw("invariant_violations", "[" + violations + "]")
      .Int("lost_requests", lost_requests)
      .Int("stage_sums_checked", harvest.checked())
      .Int("stage_sums_bad", harvest.bad());
  Json line;
  line.Int("episode", episode)
      .Raw("seed", StrFormat("%llu", static_cast<unsigned long long>(seed)))
      .Raw("host", host.Done())
      .Raw("sim", simj.Done())
      .Raw("serialize_ms", ser.Done())
      .Int("artifact_bytes", artifact_bytes)
      .Raw("checks", checks.Done())
      .Raw("stages", StageTable(harvest.paths()));
  if (traced) {
    std::string zones_json;
    for (const Profiler::ZoneStats& s : prof.Snapshot()) {
      if (!zones_json.empty()) zones_json += ",";
      zones_json += Json()
                        .Str("name", s.name)
                        .Int("count", s.count)
                        .Int("self_ns", s.self_ns)
                        .Int("total_ns", s.total_ns)
                        .Int("root_ns", s.root_ns)
                        .Done();
    }
    line.Raw("zones", "[" + zones_json + "]").Int("prof_wall_ns", prof.measured_wall_ns());
  }
  result.line = line.Done();
  return result;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "sns_perfbench: %s\n", msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0;
  int min_episodes = 1;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--min-episodes") {
      min_episodes = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      traced = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  Workload workload;
  if (workload_name == "transend_replay") {
    workload = Workload::kReplay;
  } else if (workload_name == "transend_flash_faults") {
    workload = Workload::kFlashFaults;
  } else if (workload_name == "hotbot_scatter") {
    workload = Workload::kHotBot;
  } else {
    return Usage("--workload must be transend_replay, transend_flash_faults or hotbot_scatter");
  }
  if (!have_seed) return Usage("--seed is required");

  Logger::Get().set_min_level(LogLevel::kNone);
  const Zones zones = RegisterZones();
  if (traced) Profiler::Get().Enable();

  bool all_ok = true;
  // The budget is wall time.
  using Wall = std::chrono::steady_clock;
  auto wall_since = [](Wall::time_point t) {
    return std::chrono::duration<double>(Wall::now() - t).count();
  };
  const Wall::time_point start = Wall::now();
  double longest = 0;
  for (int episode = 0;; ++episode) {
    // Stop before an episode that would most likely overrun the budget.
    if (episode >= min_episodes && wall_since(start) + 0.5 * longest >= seconds) break;
    Wall::time_point t = Wall::now();
    EpisodeResult r = RunEpisode(workload, zones, seed, episode, traced);
    longest = std::max(longest, wall_since(t));
    all_ok = all_ok && r.ok;
    std::printf("%s\n", r.line.c_str());
    std::fflush(stdout);
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) { return sns::Main(argc, argv); }
