// Flight recorder tests: time-series sampling, critical-path decomposition,
// span parentage across retries, Chrome-trace export, and the monitor-snapshot
// metric audit.

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/failure_injector.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/perfetto.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/json_reader.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// All-JPEG universe with distilled-variant caching off: every request pays the
// distiller, so traces exercise the whole worker path (same idiom as the fault
// tests and the chaos harness).
TranSendOptions DistillHeavyOptions() {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(20);
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = 2;
  options.topology.front_ends = 1;
  return options;
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder
// ---------------------------------------------------------------------------

TEST(TimeSeriesRecorderTest, SamplesCountersGaugesHistogramsAndProbes) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("fe.requests");
  Gauge* queue = registry.GetGauge("fe.queue");
  Histogram* latency = registry.GetHistogram("fe.latency", 0.0, 10.0, 10);

  TimeSeriesRecorder recorder(&registry, Milliseconds(100));
  double probe_value = 0.25;
  recorder.AddProbe("node.0.cpu_util", [&probe_value] { return probe_value; });

  requests->Increment(3);
  queue->Set(7.0);
  latency->Add(2.0);
  recorder.SampleAt(Milliseconds(100));

  requests->Increment(2);
  queue->Set(4.0);
  latency->Add(4.0);
  probe_value = 0.75;
  recorder.SampleAt(Milliseconds(200));

  const TimeSeriesRecorder::Series* c = recorder.Find("fe.requests");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->v.size(), 2u);
  EXPECT_EQ(c->t[0], Milliseconds(100));
  EXPECT_DOUBLE_EQ(c->v[0], 3.0);   // Counters sample cumulative values.
  EXPECT_DOUBLE_EQ(c->v[1], 5.0);

  const TimeSeriesRecorder::Series* g = recorder.Find("fe.queue");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->v[0], 7.0);   // Gauges sample instantaneous values.
  EXPECT_DOUBLE_EQ(g->v[1], 4.0);

  const TimeSeriesRecorder::Series* hc = recorder.Find("fe.latency.count");
  const TimeSeriesRecorder::Series* hm = recorder.Find("fe.latency.mean");
  ASSERT_NE(hc, nullptr);
  ASSERT_NE(hm, nullptr);
  EXPECT_DOUBLE_EQ(hc->v[1], 2.0);
  EXPECT_DOUBLE_EQ(hm->v[1], 3.0);

  const TimeSeriesRecorder::Series* p = recorder.Find("node.0.cpu_util");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->v[0], 0.25);
  EXPECT_DOUBLE_EQ(p->v[1], 0.75);

  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"fe.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"node.0.cpu_util\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_ns\""), std::string::npos);
}

TEST(TimeSeriesRecorderTest, RingBuffersAreBounded) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10), /*max_samples=*/4);
  for (int i = 1; i <= 10; ++i) {
    c->Increment();
    recorder.SampleAt(Milliseconds(10 * i));
  }
  const TimeSeriesRecorder::Series* series = recorder.Find("c");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->v.size(), 4u);  // Oldest samples evicted.
  EXPECT_EQ(series->t.front(), Milliseconds(70));
  EXPECT_DOUBLE_EQ(series->v.front(), 7.0);
  EXPECT_DOUBLE_EQ(series->v.back(), 10.0);
  EXPECT_EQ(recorder.samples_taken(), 10);
}

TEST(TimeSeriesRecorderTest, LateSeriesAreSuffixesOfTheTickColumnAcrossWraps) {
  MetricsRegistry registry;
  Counter* early = registry.GetCounter("early");
  Counter* late = nullptr;
  double probe = 0.0;
  TimeSeriesRecorder recorder(&registry, Milliseconds(10), /*max_samples=*/4);
  // Tick i (from 1) samples at 10*i ms; `late` registers before tick 3 and the
  // probe is added before tick 8, so each starts mid-run and then wraps.
  auto check = [&recorder](const char* name, int first, int tick, auto value) {
    const TimeSeriesRecorder::Series* s = recorder.Find(name);
    ASSERT_NE(s, nullptr) << name << " @" << tick;
    size_t n = static_cast<size_t>(std::min(tick - first + 1, 4));
    ASSERT_EQ(s->t.size(), n) << name << " @" << tick;
    ASSERT_EQ(s->v.size(), n) << name << " @" << tick;
    for (size_t j = 0; j < n; ++j) {
      int at = tick - static_cast<int>(n) + 1 + static_cast<int>(j);
      EXPECT_EQ(s->t[j], Milliseconds(10 * at)) << name << " @" << tick << "[" << j << "]";
      EXPECT_DOUBLE_EQ(s->v[j], value(at)) << name << " @" << tick << "[" << j << "]";
    }
  };
  for (int i = 1; i <= 13; ++i) {
    if (i == 3) late = registry.GetCounter("late");
    if (i == 8) recorder.AddProbe("probe", [&probe] { return probe; });
    early->Increment();
    if (late != nullptr) late->Increment(10);
    probe = 0.5 * i;
    recorder.SampleAt(Milliseconds(10 * i));

    check("early", 1, i, [](int at) { return at; });
    if (i >= 3) check("late", 3, i, [](int at) { return 10.0 * (at - 2); });
    if (i >= 8) check("probe", 8, i, [](int at) { return 0.5 * at; });
  }
  EXPECT_EQ(recorder.Find("probe")->t.front(), Milliseconds(100));
  EXPECT_EQ(recorder.series_count(), 3u);
}

// The test's own reference: every retained sample formatted with %lld / %.6g.
std::string NaiveTimeSeriesJson(SimDuration interval, int64_t samples,
                                const std::map<std::string, std::vector<std::pair<SimTime, double>>>&
                                    series) {
  std::string out = StrFormat("{\"interval_ns\":%lld,\"samples\":%lld,\"series\":{",
                              static_cast<long long>(interval), static_cast<long long>(samples));
  bool first_series = true;
  for (const auto& [name, samples_of] : series) {
    out += first_series ? "" : ",";
    first_series = false;
    std::string t;
    std::string v;
    for (const auto& [at, value] : samples_of) {
      t += StrFormat(t.empty() ? "%lld" : ",%lld", static_cast<long long>(at));
      v += StrFormat(v.empty() ? "%.6g" : ",%.6g", value);
    }
    out += "\"" + name + "\":{\"t_ns\":[" + t + "],\"v\":[" + v + "]}";
  }
  return out + "}}";
}

TEST(TimeSeriesRecorderTest, ToJsonMatchesPrintfFormattingOfEveryValue) {
  const double values[] = {
      std::numeric_limits<double>::quiet_NaN(), -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),  -std::numeric_limits<double>::infinity(),
      -0.0, 0.0, 1e-300, 1e21, 0.1, 9007199254740992.0 /* 2^53 */, 9007199254740994.0,
      5e-324, 123456.5, 1234567.0, 0.000123456789, -2.5e-7, 1e6, 999999.5, 1e100,
  };
  constexpr size_t kMax = 8;
  TimeSeriesRecorder recorder(nullptr, Milliseconds(7), kMax);
  std::map<std::string, std::vector<std::pair<SimTime, double>>> expected;
  double current[3] = {0, 0, 0};
  const char* names[3] = {"a.cycle", "b.runs", "c.late"};
  int64_t ticks = 0;
  // a.cycle walks the list; b.runs holds each value for 5 ticks; c.late joins
  // late and holds each value for 11 ticks, across several ring wraps.
  auto add = [&recorder, &current, &names](int k) {
    recorder.AddProbe(names[k], [&current, k] { return current[k]; });
  };
  add(0);
  add(1);
  for (size_t i = 0; i < 3 * std::size(values) + 20; ++i) {
    if (i == 25) add(2);
    current[0] = values[i % std::size(values)];
    current[1] = values[(i / 5) % std::size(values)];
    current[2] = values[(i / 11 + 3) % std::size(values)];
    SimTime now = Milliseconds(7) * static_cast<SimTime>(i + 1);
    recorder.SampleAt(now);
    ++ticks;
    for (int k = 0; k < 3; ++k) {
      if (k == 2 && i < 25) continue;
      auto& column = expected[names[k]];
      column.emplace_back(now, current[k]);
      if (column.size() > kMax) column.erase(column.begin());
    }
    ASSERT_EQ(recorder.ToJson(), NaiveTimeSeriesJson(Milliseconds(7), ticks, expected))
        << "tick " << i;
  }
}

TEST(TimeSeriesRecorderTest, NameClaimedTwiceKeepsItsFirstSource) {
  // Counter "x.count" and histogram "x" both claim the series "x.count". The
  // first claimant owns it (counters bind before histograms), so each tick
  // still records one sample per name.
  MetricsRegistry registry;
  registry.GetCounter("x.count")->Increment(7);
  Histogram* h = registry.GetHistogram("x", 0.0, 10.0, 10);
  h->Add(2.0);
  h->Add(4.0);
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  recorder.AddProbe("p", [] { return 1.0; });
  recorder.SampleAt(Milliseconds(10));

  // A probe added on an instrument's name is not recorded; one added on a
  // probe's name replaces the probe and keeps the series; an instrument
  // registered on a probe's name is not recorded.
  recorder.AddProbe("x.mean", [] { return -1.0; });
  recorder.AddProbe("p", [] { return 2.0; });
  registry.GetGauge("p")->Set(-3.0);
  recorder.SampleAt(Milliseconds(20));

  const TimeSeriesRecorder::Series* count = recorder.Find("x.count");
  ASSERT_NE(count, nullptr);
  ASSERT_EQ(count->t.size(), 2u);
  EXPECT_EQ(count->t[0], Milliseconds(10));
  EXPECT_EQ(count->t[1], Milliseconds(20));
  EXPECT_DOUBLE_EQ(count->v[0], 7.0);
  EXPECT_DOUBLE_EQ(count->v[1], 7.0);

  const TimeSeriesRecorder::Series* mean = recorder.Find("x.mean");
  ASSERT_NE(mean, nullptr);
  ASSERT_EQ(mean->v.size(), 2u);
  EXPECT_DOUBLE_EQ(mean->v[1], 3.0);

  const TimeSeriesRecorder::Series* p = recorder.Find("p");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->v.size(), 2u);
  EXPECT_DOUBLE_EQ(p->v[0], 1.0);
  EXPECT_DOUBLE_EQ(p->v[1], 2.0);
  EXPECT_EQ(recorder.series_count(), 3u);
  EXPECT_EQ(recorder.ToJson(),
            "{\"interval_ns\":10000000,\"samples\":2,\"series\":{"
            "\"p\":{\"t_ns\":[10000000,20000000],\"v\":[1,2]},"
            "\"x.count\":{\"t_ns\":[10000000,20000000],\"v\":[7,7]},"
            "\"x.mean\":{\"t_ns\":[10000000,20000000],\"v\":[3,3]}}}");
}

// The recorder's export of a short TranSend run. A 10 ms cadence over 50
// simulated seconds takes 5000 samples, so every 4096-slot ring wraps; the
// cluster idles for 20 s, so the distillers the manager spawns on the first
// requests join the registry late, after the oldest retained tick. The digest
// was recorded before the recorder moved onto one shared tick column, whose
// export must be byte-identical.
TEST(TimeSeriesGoldenTest, TranSendRunExportIsPinned) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DistillHeavyOptions();
  options.sns.timeseries_interval = Milliseconds(10);
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0x7153);
  Rng rng(0x7153);
  ContentUniverse* universe = service.universe();
  service.sim()->RunFor(Seconds(20));
  client->StartConstantRate(10, [&rng, universe] {
    TraceRecord record;
    record.user_id = "golden";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(20));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  const TimeSeriesRecorder* recorder = service.system()->recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->samples_taken(), 5000);
  std::string json = recorder->ToJson();

  // Every series is a suffix of the retained ticks: those present from the
  // start span the whole window, the late ones begin after its first tick.
  JsonReader reader(json);
  std::string key;
  int64_t oldest = -1;
  int full = 0;
  int late = 0;
  ASSERT_TRUE(reader.BeginObject());
  while (reader.NextMember(&key)) {
    if (key != "series") {
      ASSERT_TRUE(reader.Skip());
      continue;
    }
    ASSERT_TRUE(reader.BeginObject());
    while (reader.NextMember(&key)) {
      ASSERT_TRUE(reader.BeginObject());
      std::string column;
      ASSERT_TRUE(reader.NextMember(&column));
      ASSERT_EQ(column, "t_ns");
      ASSERT_TRUE(reader.BeginArray());
      int64_t first = -1;
      int64_t t = 0;
      size_t n = 0;
      while (reader.NextElement() && reader.ReadInt(&t)) {
        if (n++ == 0) first = t;
      }
      EXPECT_LE(n, 4096u) << key;
      if (oldest < 0) oldest = first;
      (first == oldest ? full : late) += 1;
      while (reader.NextMember(&column)) ASSERT_TRUE(reader.Skip());
    }
  }
  ASSERT_TRUE(reader.ExpectEnd()) << reader.error();
  EXPECT_EQ(oldest, Milliseconds(10) * (5000 - 4096 + 1));
  EXPECT_GT(full, 0);
  EXPECT_GT(late, 0);

  EXPECT_EQ(Fnv1a(json), 0x441084fa0fb59279ULL);
}

// ---------------------------------------------------------------------------
// Critical-path analyzer (hand-built span tree, exact arithmetic)
// ---------------------------------------------------------------------------

SpanRecord MakeSpan(uint64_t span, uint64_t parent, const std::string& op,
                    SimTime start, SimTime end) {
  SpanRecord record;
  record.trace_id = 1;
  record.span_id = span;
  record.parent_span_id = parent;
  record.operation = op;
  record.start = start;
  record.end = end;
  record.outcome = "ok";
  return record;
}

TEST(CriticalPathTest, DecomposesHandBuiltTreeExactly) {
  // client.request [0,1000]
  //   fe.queue_wait [100,200]
  //   fe.request [200,900]
  //     fe.task_attempt [300,800]
  //       worker.task [400,700]
  //         worker.queue_wait [400,500]
  //         worker.service [500,700]
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 0, "client.request", 0, 1000));
  spans.push_back(MakeSpan(2, 1, "fe.queue_wait", 100, 200));
  spans.push_back(MakeSpan(3, 1, "fe.request", 200, 900));
  spans.push_back(MakeSpan(4, 3, "fe.task_attempt", 300, 800));
  spans.push_back(MakeSpan(5, 4, "worker.task", 400, 700));
  spans.push_back(MakeSpan(6, 5, "worker.queue_wait", 400, 500));
  spans.push_back(MakeSpan(7, 5, "worker.service", 500, 700));

  auto path = AnalyzeTrace(spans);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->total, 1000);
  EXPECT_EQ(path->root_outcome, "ok");
  // Gaps not covered by a child charge to the enclosing span's stage:
  //   client gaps [0,100]+[900,1000] and attempt gaps [300,400]+[700,800]
  //   are all san_transit; fe.request's own gaps [200,300]+[800,900] are
  //   fe_processing.
  EXPECT_EQ(path->stages.at("san_transit"), 400);
  EXPECT_EQ(path->stages.at("fe_accept_queue_wait"), 100);
  EXPECT_EQ(path->stages.at("fe_processing"), 200);
  EXPECT_EQ(path->stages.at("worker_queue_wait"), 100);
  EXPECT_EQ(path->stages.at("worker_service"), 200);
  EXPECT_EQ(path->StageSum(), path->total);  // Exact, not just within 1%.
}

TEST(CriticalPathTest, ChildrenClipToParentAndRootlessTracesAreSkipped) {
  // A child that overhangs its parent's window must be clipped, keeping the
  // stage sum exact.
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 0, "client.request", 0, 100));
  spans.push_back(MakeSpan(2, 1, "worker.service", 50, 250));  // Overhangs root.
  auto path = AnalyzeTrace(spans);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->stages.at("worker_service"), 50);
  EXPECT_EQ(path->StageSum(), path->total);

  // All spans parented on an unrecorded span: no root, no decomposition.
  std::vector<SpanRecord> orphans;
  orphans.push_back(MakeSpan(5, 4, "worker.service", 0, 10));
  EXPECT_FALSE(AnalyzeTrace(orphans).has_value());
}

TEST(CriticalPathTest, SummaryAccumulatesAndRenders) {
  CriticalPathSummary summary;
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 0, "client.request", 0, Milliseconds(10)));
  spans.push_back(MakeSpan(2, 1, "worker.service", 0, Milliseconds(4)));
  auto path = AnalyzeTrace(spans);
  ASSERT_TRUE(path.has_value());
  summary.Add(*path);
  EXPECT_EQ(summary.request_count(), 1);
  std::string table = summary.RenderTable();
  EXPECT_NE(table.find("worker_service"), std::string::npos);
  EXPECT_NE(table.find("san_transit"), std::string::npos);
  std::string json = summary.ToJson();
  EXPECT_NE(json.find("\"worker_service\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span parentage across retry/backoff (integration)
// ---------------------------------------------------------------------------

TEST(FlightRecorderIntegrationTest, RetriedTaskYieldsSiblingAttemptSubtrees) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xF1D0);

  Rng rng(0xF1D0);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(20, [&rng, universe] {
    TraceRecord record;
    record.user_id = "retry";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(15));

  // Crash a live distiller's node mid-run: its in-flight tasks fail or time
  // out at the FE, which backs off and retries on a surviving worker.
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  service.system()->cluster()->CrashNode(workers[0]->node());
  service.sim()->RunFor(Seconds(30));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  // Find a trace where a task was attempted at least twice with a backoff span.
  TraceCollector* tracer = service.system()->tracer();
  bool found = false;
  for (uint64_t trace_id : tracer->TraceIds()) {
    std::vector<SpanRecord> spans = tracer->Trace(trace_id);
    std::vector<const SpanRecord*> attempts;
    bool has_backoff = false;
    int roots = 0;
    for (const SpanRecord& span : spans) {
      if (span.operation == "fe.task_attempt") {
        attempts.push_back(&span);
      }
      if (span.operation == "fe.retry_backoff") {
        has_backoff = true;
      }
      if (span.parent_span_id == 0) {
        ++roots;
        EXPECT_EQ(span.operation, "client.request");
      }
    }
    if (attempts.size() < 2 || !has_backoff) {
      continue;
    }
    found = true;
    // One root: the client-observed request.
    EXPECT_EQ(roots, 1);
    // Attempts are siblings: distinct spans, one shared parent, disjoint in
    // time (the second attempt starts after the first ended).
    EXPECT_NE(attempts[0]->span_id, attempts[1]->span_id);
    EXPECT_EQ(attempts[0]->parent_span_id, attempts[1]->parent_span_id);
    std::vector<const SpanRecord*> ordered = attempts;
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord* a, const SpanRecord* b) { return a->start < b->start; });
    EXPECT_GE(ordered[1]->start, ordered[0]->end);

    // The analyzer attributes the inter-attempt gap to retry_backoff_idle and
    // the decomposition stays exact.
    auto path = AnalyzeTrace(spans);
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->stages["retry_backoff_idle"], 0);
    EXPECT_EQ(path->StageSum(), path->total);
    break;
  }
  EXPECT_TRUE(found) << "no retained trace had a retried task with backoff";
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

struct ChromeEvent {
  std::string ph;
  std::string cat;
  int64_t id = 0;
  int64_t pid = -1;
  int64_t tid = -1;
  double ts = 0;
};

// Parses a whole Chrome-trace export with the strict reader, keeping the
// fields the flow checks need.
std::vector<ChromeEvent> ParseChromeTrace(const std::string& text) {
  std::vector<ChromeEvent> events;
  JsonReader reader(text);
  std::string key;
  EXPECT_TRUE(reader.BeginObject());
  while (reader.NextMember(&key)) {
    if (key != "traceEvents") {
      EXPECT_TRUE(reader.Skip());
      continue;
    }
    EXPECT_TRUE(reader.BeginArray());
    while (reader.NextElement()) {
      ChromeEvent ev;
      EXPECT_TRUE(reader.BeginObject());
      while (reader.NextMember(&key)) {
        bool read = key == "ph"    ? reader.ReadString(&ev.ph)
                    : key == "cat" ? reader.ReadString(&ev.cat)
                    : key == "id"  ? reader.ReadInt(&ev.id)
                    : key == "pid" ? reader.ReadInt(&ev.pid)
                    : key == "tid" ? reader.ReadInt(&ev.tid)
                    : key == "ts"  ? reader.ReadNumber(&ev.ts)
                                   : reader.Skip();
        EXPECT_TRUE(read) << key;
      }
      events.push_back(ev);
    }
  }
  EXPECT_TRUE(reader.ExpectEnd()) << reader.error();
  EXPECT_TRUE(reader.ok()) << reader.error();
  return events;
}

TEST(ChromeTraceExportTest, FlowsFollowSpanParentageAcrossLanes) {
  TraceCollector collector;
  auto add = [&collector](uint64_t span, uint64_t parent, const std::string& op, int32_t node,
                          const std::string& component, SimTime start, SimTime end) {
    SpanRecord record = MakeSpan(span, parent, op, start, end);
    record.node = node;
    record.component = component;
    collector.Record(std::move(record));
  };
  // Lanes are numbered per node from 1 in order of first span start: the
  // orphan takes node 1's lane 1, so the front end's lane there is 2.
  add(1, 0, "client.request", 0, "client", 0, 1500);           // Root.
  add(5, 4, "worker.task", 1, "worker", 1000, 5000);           // Parent never recorded.
  add(2, 1, "fe.request", 1, "front-end-0", 2000, 9000);       // Crosses lanes.
  add(3, 2, "fe.task_attempt", 1, "front-end-0", 3000, 8000);  // Same lane as parent.

  std::vector<ChromeEvent> events = ParseChromeTrace(ExportChromeTrace(collector));
  std::vector<ChromeEvent> starts;
  std::vector<ChromeEvent> finishes;
  for (const ChromeEvent& ev : events) {
    if (ev.ph == "s") starts.push_back(ev);
    if (ev.ph == "f") finishes.push_back(ev);
  }
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(starts[0].id, 2);  // The child's span id.
  EXPECT_EQ(starts[0].pid, 0);
  EXPECT_EQ(starts[0].tid, 1);
  EXPECT_DOUBLE_EQ(starts[0].ts, 1.5);  // The child's start, clamped to the parent's end.
  EXPECT_EQ(finishes[0].id, 2);
  EXPECT_EQ(finishes[0].pid, 1);
  EXPECT_EQ(finishes[0].tid, 2);
  EXPECT_DOUBLE_EQ(finishes[0].ts, 2.0);
}

// Integration: a real TranSend run with an injected crash.

TEST(FlightRecorderIntegrationTest, ChromeTraceExportCarriesSpansFlowsAndFaults) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xCAFE);

  FailureInjector injector(service.system()->cluster(), service.system()->san());
  service.system()->AttachFailureInjector(&injector);

  Rng rng(0xCAFE);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(15, [&rng, universe] {
    TraceRecord record;
    record.user_id = "trace";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(10));
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  injector.CrashProcessAt(service.sim()->now() + Seconds(1), workers[0]->pid());
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  EXPECT_GT(injector.injected_count(), 0);
  EXPECT_GT(service.system()->event_log()->faults_recorded(), 0u);

  std::string trace = ExportChromeTrace(*service.system()->tracer(),
                                        service.system()->event_log());
  // The whole export parses strictly; arrows come from span parentage only (no
  // SAN mirror), and every arrow has exactly one start and one end.
  std::vector<ChromeEvent> events = ParseChromeTrace(trace);
  std::map<int64_t, std::pair<int, int>> flow_ends;  // id -> (#s, #f)
  for (const ChromeEvent& ev : events) {
    EXPECT_NE(ev.cat, "san");
    if (ev.ph == "s") ++flow_ends[ev.id].first;
    if (ev.ph == "f") ++flow_ends[ev.id].second;
  }
  EXPECT_FALSE(flow_ends.empty());
  for (const auto& [id, ends] : flow_ends) {
    EXPECT_EQ(ends.first, 1) << "flow " << id;
    EXPECT_EQ(ends.second, 1) << "flow " << id;
  }
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // Span slices.
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // Flow starts.
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // Flow ends.
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);  // Fault instants.
  EXPECT_NE(trace.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot audit: every PR2-3 counter reaches the exported monitor snapshot
// ---------------------------------------------------------------------------

TEST(SnapshotAuditTest, MonitorExportCoversFlightRecorderCounters) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DistillHeavyOptions();
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xA0D1);

  Rng rng(0xA0D1);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(10, [&rng, universe] {
    TraceRecord record;
    record.user_id = "audit";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(15));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  ASSERT_NE(service.system()->monitor(), nullptr);
  std::string snapshot = service.system()->monitor()->ExportJson();

  // The full expected key set: overload-control and partition-tolerance
  // counters introduced alongside deadlines/backoff/consistent-hashing, plus
  // the SAN delivery counters the flight recorder samples. A name silently
  // missing here means the instrument was never registered with the registry
  // the monitor exports.
  const char* required[] = {
      "fe.0.completed_requests",
      "fe.0.error_responses",
      "fe.0.task_timeouts",
      "fe.0.task_retries",
      "fe.0.retries_backoff",
      "fe.0.ring_remaps",
      "fe.0.deadline_expired",
      "expired_tasks",          // worker.<type>.p<pid>.expired_tasks
      "expired_gets",           // cache.n<node>.expired_gets
      "san.messages_delivered",
      "san.datagrams_dropped",
      "san.reliable_failed_fast",
      "san.messages_lost_unreachable",
      "san.multicast_suppressed",
      // Control-plane instruments from the quorum/fencing work: the manager's
      // current mastership epoch and the membership service's vote ledger are
      // gauges bound at startup, the fence counter registers even when no kill
      // ever fires (a zero is still evidence the instrument exists).
      "manager.epoch",
      "quorum.votes_held",
      "quorum.votes_total",
      "quorum.is_quorate",
      "fencing.kills",
      // Harvest/yield ledger gauges: bound in the SnsSystem constructor and
      // refreshed on every record, so a run with offered load must export
      // non-trivial running totals alongside the ratios.
      "availability.offered",
      "availability.answered",
      "availability.yield",
      "availability.harvest",
  };
  for (const char* key : required) {
    EXPECT_NE(snapshot.find(key), std::string::npos)
        << "metric \"" << key << "\" missing from the exported snapshot";
  }

  // The flight recorder samples the same registry on a timer while the system
  // runs, so the run must have produced time series for the node probes too.
  ASSERT_NE(service.system()->recorder(), nullptr);
  EXPECT_GT(service.system()->recorder()->samples_taken(), 0);
  std::string timeseries = service.system()->recorder()->ToJson();
  EXPECT_NE(timeseries.find("cpu_util"), std::string::npos);
  EXPECT_NE(timeseries.find("fe.0.completed_requests"), std::string::npos);
}

}  // namespace
}  // namespace sns
