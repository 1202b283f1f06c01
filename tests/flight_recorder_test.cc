// Flight recorder tests: time-series sampling, critical-path decomposition,
// span parentage across retries, Chrome-trace export, and the monitor-snapshot
// metric audit.

#include <algorithm>
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
#include "src/util/logging.h"

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
// Chrome-trace export (integration)
// ---------------------------------------------------------------------------

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
  EXPECT_GT(service.system()->event_log()->messages_recorded(), 0u);

  std::string trace = ExportChromeTrace(*service.system()->tracer(),
                                        service.system()->event_log());
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
