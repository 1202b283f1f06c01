// Tests for the harvest/yield availability ledger: window bucketing and
// zero-fill, run-total conservation, recovery-gap derivation against the event
// log, the response-provenance -> harvest mapping, and end-to-end wiring
// through a live TranSend system (full answers score exactly 1.0; degraded
// BASE answers score fractionally).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/availability.h"
#include "src/obs/events.h"
#include "src/services/transend/transend.h"
#include "src/sns/messages.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace sns {
namespace {

// Same distill-heavy idiom as the flight-recorder tests: all-JPEG universe
// well above the distill threshold with variant caching off, so every request
// that completes normally pays the distiller and comes back kDistilled.
TranSendOptions DistillHeavyOptions() {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(20);
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = 2;
  options.topology.front_ends = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Provenance -> harvest mapping
// ---------------------------------------------------------------------------

TEST(ResponseHarvestTest, MapsProvenanceToCompleteness) {
  // Full answers are exactly 1.0 — the ledger's "every stage ran" anchor.
  EXPECT_DOUBLE_EQ(ResponseHarvest(ResponseSource::kDistilled), 1.0);
  EXPECT_DOUBLE_EQ(ResponseHarvest(ResponseSource::kPassThrough), 1.0);
  // Shedding the distillation stage costs completeness; an approximate
  // variant costs more; an error answer carries nothing.
  EXPECT_DOUBLE_EQ(ResponseHarvest(ResponseSource::kCacheOriginal), 0.65);
  EXPECT_DOUBLE_EQ(ResponseHarvest(ResponseSource::kCacheApproximate), 0.5);
  EXPECT_DOUBLE_EQ(ResponseHarvest(ResponseSource::kError), 0.0);
  // Ordering sanity: degradations are monotone in severity.
  EXPECT_GT(ResponseHarvest(ResponseSource::kCacheOriginal),
            ResponseHarvest(ResponseSource::kCacheApproximate));
}

// ---------------------------------------------------------------------------
// Ledger unit tests
// ---------------------------------------------------------------------------

TEST(AvailabilityLedgerTest, EmptyRunIsVacuouslyAvailable) {
  AvailabilityLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.RunYield(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.RunHarvest(), 1.0);
  EXPECT_TRUE(ledger.Windows().empty());
  EXPECT_TRUE(ledger.DeriveRecoveryGaps(nullptr).empty());
  EXPECT_EQ(ledger.RenderTable(nullptr), "  (no requests offered)\n");
}

TEST(AvailabilityLedgerTest, BucketsWindowsZeroFillsAndConserves) {
  AvailabilityLedger ledger;  // 1 s windows.
  // Window 0: two offered, two full answers. Window 1: quiet (must zero-fill).
  // Window 2: two offered — one degraded answer, one timeout.
  ledger.RecordOffered(Milliseconds(100));
  ledger.RecordAnswered(Milliseconds(400), 1.0);
  ledger.RecordOffered(Milliseconds(200));
  ledger.RecordAnswered(Milliseconds(600), 1.0);
  ledger.RecordOffered(Seconds(2) + Milliseconds(50));
  ledger.RecordAnswered(Seconds(2) + Milliseconds(300), 0.5);
  ledger.RecordOffered(Seconds(2) + Milliseconds(100));
  ledger.RecordUnanswered(Seconds(2) + Milliseconds(900), "timeout");

  // Conservation: every offered request resolved exactly one way.
  EXPECT_EQ(ledger.offered(), 4);
  EXPECT_EQ(ledger.answered(), 3);
  EXPECT_EQ(ledger.unanswered(), 1);
  EXPECT_EQ(ledger.offered(), ledger.answered() + ledger.unanswered());
  EXPECT_DOUBLE_EQ(ledger.RunYield(), 0.75);
  EXPECT_DOUBLE_EQ(ledger.RunHarvest(), (1.0 + 1.0 + 0.5) / 3.0);
  EXPECT_EQ(ledger.unanswered_by_reason().at("timeout"), 1);

  std::vector<AvailabilityLedger::WindowRow> rows = ledger.Windows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].second, 0);
  EXPECT_EQ(rows[0].offered, 2);
  EXPECT_EQ(rows[0].answered, 2);
  EXPECT_EQ(rows[1].second, 1);  // The quiet interior window is materialized.
  EXPECT_EQ(rows[1].offered, 0);
  EXPECT_EQ(rows[1].answered, 0);
  EXPECT_EQ(rows[2].second, 2);
  EXPECT_EQ(rows[2].offered, 2);
  EXPECT_EQ(rows[2].answered, 1);
  EXPECT_EQ(rows[2].unanswered, 1);
  EXPECT_DOUBLE_EQ(rows[2].harvest_sum, 0.5);

  std::string json = ledger.ToJson(nullptr);
  EXPECT_NE(json.find("\"offered\":4"), std::string::npos);
  EXPECT_NE(json.find("\"unanswered_by_reason\":{\"timeout\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"windows\":{\"second\":[0,1,2]"), std::string::npos);
}

TEST(AvailabilityLedgerTest, HarvestFractionsAreClamped) {
  AvailabilityLedger ledger;
  ledger.RecordOffered(0);
  ledger.RecordAnswered(0, 1.7);  // Out-of-contract caller: clamp, don't inflate.
  ledger.RecordOffered(0);
  ledger.RecordAnswered(0, -0.3);
  EXPECT_DOUBLE_EQ(ledger.RunHarvest(), 0.5);  // (1.0 + 0.0) / 2.
}

TEST(AvailabilityLedgerTest, RecoveryGapsAttributeToLatestPrecedingFault) {
  AvailabilityLedger ledger;
  EventLog log;
  log.RecordFault({Milliseconds(200), "warmup blip"});
  log.RecordFault({Milliseconds(1500), "crash node 3"});
  log.RecordFault({Seconds(30), "unrelated later fault"});

  // Windows 0-1 healthy; windows 2-4 offered with zero answers (the outage);
  // window 5 healthy again.
  for (int64_t s = 0; s <= 5; ++s) {
    SimTime at = Seconds(s) + Milliseconds(10);
    ledger.RecordOffered(at);
    if (s < 2 || s == 5) {
      ledger.RecordAnswered(at + Milliseconds(100), 1.0);
    } else {
      ledger.RecordUnanswered(at + Milliseconds(100), "timeout");
    }
  }

  std::vector<AvailabilityLedger::RecoveryGap> gaps = ledger.DeriveRecoveryGaps(&log);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(gaps[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(gaps[0].end_s, 5.0);
  EXPECT_DOUBLE_EQ(gaps[0].duration_s, 3.0);
  // The latest fault at or before the gap's end wins — not the warmup blip
  // and not the fault that happened long after recovery.
  EXPECT_EQ(gaps[0].fault, "crash node 3");

  std::string json = ledger.ToJson(&log);
  EXPECT_NE(json.find("\"recovery_gaps\":[{\"start_s\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"max_recovery_gap_s\":3.000"), std::string::npos);
  EXPECT_NE(json.find("\"fault\":\"crash node 3\""), std::string::npos);

  std::string table = ledger.RenderTable(&log);
  EXPECT_NE(table.find("! outage"), std::string::npos);
  EXPECT_NE(table.find("* crash node 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end wiring through a live system
// ---------------------------------------------------------------------------

TEST(AvailabilityIntegrationTest, FullAnswersScoreExactlyOne) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xA7A1);
  Rng rng(0x11AA);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(10, [&rng, universe] {
    TraceRecord record;
    record.user_id = "avail";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(15));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));  // Drain in-flight requests.

  AvailabilityLedger* ledger = service.system()->availability();
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(ledger->offered(), 0);
  EXPECT_GT(ledger->answered(), 0);
  // Conservation after drain: nothing offered is still unresolved.
  EXPECT_EQ(ledger->offered(), ledger->answered() + ledger->unanswered());
  // Every answer in this topology is the requested representation, so run
  // harvest is exactly 1.0 — not 0.999-something.
  EXPECT_DOUBLE_EQ(ledger->RunHarvest(), 1.0);
  EXPECT_GT(ledger->RunYield(), 0.9);

  // The ledger's gauges are bound in the system constructor, so the monitor
  // registry carries the same running totals.
  EXPECT_DOUBLE_EQ(
      service.system()->metrics()->FindGauge("availability.offered")->value(),
      static_cast<double>(ledger->offered()));
  EXPECT_DOUBLE_EQ(
      service.system()->metrics()->FindGauge("availability.yield")->value(),
      ledger->RunYield());
}

TEST(AvailabilityIntegrationTest, DegradedAnswersYieldFractionalHarvest) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DistillHeavyOptions();
  // Task timeout shorter than any distillation: every attempt times out and
  // the front end falls back to the BASE approximate answer (the original
  // bytes), so the client is fully answered but every answer is degraded.
  options.sns.task_timeout = Milliseconds(1);
  options.sns.task_retries = 2;
  options.sns.task_retry_backoff_base = Milliseconds(10);
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xBB22);
  Rng rng(0xBB22);
  ContentUniverse* universe = service.universe();
  client->StartConstantRate(10, [&rng, universe] {
    TraceRecord record;
    record.user_id = "degraded";
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  AvailabilityLedger* ledger = service.system()->availability();
  EXPECT_GT(ledger->offered(), 0);
  EXPECT_EQ(ledger->offered(), ledger->answered() + ledger->unanswered());
  // Yield stays high — BASE trades harvest, not yield, under this fault.
  EXPECT_GT(ledger->RunYield(), 0.9);
  // Harvest reflects the degradation: approximate answers score 0.5 each.
  EXPECT_LT(ledger->RunHarvest(), 1.0);
  EXPECT_NEAR(ledger->RunHarvest(), 0.5, 0.05);
  EXPECT_GT(client->responses_by_source().at("approximate"), 0);
}

}  // namespace
}  // namespace sns
