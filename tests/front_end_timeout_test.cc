// Front-end facility timeouts (paper §2.2.4: timeouts are the backstop for every
// outstanding request). Each facility call — profile get, acknowledged profile
// put, origin fetch, cache probe — is aimed at a target slower than its timeout.
// The callback must fire exactly once with the kind's documented fallback, the
// call's span must close as "timeout", and the late reply must be dropped.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/sns/system.h"
#include "src/util/logging.h"
#include "src/workload/content_universe.h"
#include "src/workload/origin_server.h"
#include "src/workload/playback.h"

namespace sns {
namespace {

constexpr char kUser[] = "slow-user";
constexpr char kCacheKey[] = "never-cached";

enum class Facility { kProfileGet, kProfilePut, kFetch, kCacheGet };

struct FacilityCase {
  const char* name;
  Facility facility;
  const char* span;  // The FE span that brackets the call.
};

void PrintTo(const FacilityCase& c, std::ostream* os) { *os << c.name; }

// Everything the facility callback was handed.
struct Observed {
  RequestContext* ctx = nullptr;
  int calls = 0;
  bool found_or_hit = false;
  UserProfile profile;
  Status status;
  ContentPtr content;
};

// Issues one facility call per request and never responds on its own: the
// request stays live, so a late reply that slipped past the timeout would reach
// the callback a second time.
class FacilityLogic : public FrontEndLogic {
 public:
  FacilityLogic(Facility facility, Observed* out) : facility_(facility), out_(out) {}

  void HandleRequest(RequestContext* ctx) override {
    Observed* out = out_;
    out->ctx = ctx;
    switch (facility_) {
      case Facility::kProfileGet:
        ctx->GetProfile([out](RequestContext*, bool found, const UserProfile& profile) {
          ++out->calls;
          out->found_or_hit = found;
          out->profile = profile;
        });
        break;
      case Facility::kProfilePut: {
        UserProfile update(kUser);
        update.Set("quality", "high");
        ctx->PutProfile(update, [out](RequestContext*, Status status) {
          ++out->calls;
          out->status = std::move(status);
        });
        break;
      }
      case Facility::kFetch:
        ctx->Fetch(ctx->request().url, [out](RequestContext*, Status status, ContentPtr page) {
          ++out->calls;
          out->status = std::move(status);
          out->content = std::move(page);
        });
        break;
      case Facility::kCacheGet:
        ctx->CacheGet(kCacheKey, [out](RequestContext*, bool hit, ContentPtr content) {
          ++out->calls;
          out->found_or_hit = hit;
          out->content = std::move(content);
        });
        break;
    }
  }

 private:
  Facility facility_;
  Observed* out_;
};

class FrontEndFacilityTimeoutTest : public ::testing::TestWithParam<FacilityCase> {
 protected:
  void SetUp() override {
    Logger::Get().set_min_level(LogLevel::kNone);
    SnsConfig config;
    config.profile_write_acks = true;
    config.fetch_timeout = Seconds(2);
    SystemTopology topology;
    topology.worker_pool_nodes = 1;
    topology.cache_nodes = 1;
    topology.with_origin = true;
    // Every target answers, but only after its caller gave up.
    topology.profile_db.read_latency = config.profile_timeout * 2;
    topology.profile_db.commit_latency = config.profile_timeout * 2;
    topology.cache.cpu_per_get = config.cache_timeout + Seconds(3);
    system_ = std::make_unique<SnsSystem>(config, topology);
    Facility facility = GetParam().facility;
    system_->set_logic_factory(
        [this, facility](int) { return std::make_shared<FacilityLogic>(facility, &observed_); });
    ContentUniverseConfig universe_config;
    universe_config.url_count = 10;
    universe_ = std::make_unique<ContentUniverse>(universe_config);
    OriginConfig origin;
    origin.min_latency = config.fetch_timeout * 2;
    origin.max_latency = config.fetch_timeout * 2;
    system_->set_origin_factory(
        [this, origin] { return std::make_unique<OriginServerProcess>(origin, universe_.get()); });
    // A stored profile: a reply that got through would report found=true.
    UserProfile stored(kUser);
    stored.Set("quality", "low");
    system_->SeedProfile(stored);
    system_->Start();

    NodeConfig client_node;
    client_node.workers_allowed = false;
    NodeId node = system_->cluster()->AddNode(client_node);
    PlaybackConfig playback;
    playback.front_ends = [this] {
      std::vector<Endpoint> fes;
      for (FrontEndProcess* fe : system_->front_ends()) {
        fes.push_back(fe->endpoint());
      }
      return fes;
    };
    auto engine = std::make_unique<PlaybackEngine>(playback);
    client_ = engine.get();
    system_->cluster()->Spawn(node, std::move(engine));
    // Beacons teach the FE the profile DB and the cache ring.
    system_->sim()->RunFor(Seconds(3));
  }

  // Outcomes of every span named `operation`, across all traces.
  std::vector<std::string> SpanOutcomes(const std::string& operation) const {
    std::vector<std::string> outcomes;
    for (uint64_t trace_id : system_->tracer()->TraceIds()) {
      for (const SpanRecord& span : system_->tracer()->Trace(trace_id)) {
        if (span.operation == operation) {
          outcomes.push_back(span.outcome);
        }
      }
    }
    return outcomes;
  }

  std::unique_ptr<SnsSystem> system_;
  std::unique_ptr<ContentUniverse> universe_;
  PlaybackEngine* client_ = nullptr;
  Observed observed_;
};

TEST_P(FrontEndFacilityTimeoutTest, FallbackFiresOnceAndLateReplyIsDropped) {
  const FacilityCase& c = GetParam();
  TraceRecord record;
  record.user_id = kUser;
  record.url = universe_->UrlAt(0);
  client_->SendRequest(record);
  // Past every timeout and every late reply (the slowest, the cache's, lands
  // ~8 s after the probe).
  system_->sim()->RunFor(Seconds(12));

  ASSERT_NE(observed_.ctx, nullptr) << "the logic never ran";
  EXPECT_EQ(observed_.calls, 1);
  switch (c.facility) {
    case Facility::kProfileGet:
      // BASE fallback: an empty profile for the requesting user.
      EXPECT_FALSE(observed_.found_or_hit);
      EXPECT_EQ(observed_.profile.user_id(), kUser);
      EXPECT_TRUE(observed_.profile.pairs().empty());
      break;
    case Facility::kProfilePut:
    case Facility::kFetch:
      EXPECT_EQ(observed_.status.code(), StatusCode::kTimeout);
      EXPECT_EQ(observed_.content, nullptr);
      break;
    case Facility::kCacheGet:
      EXPECT_FALSE(observed_.found_or_hit);
      EXPECT_EQ(observed_.content, nullptr);
      break;
  }
  EXPECT_EQ(SpanOutcomes(c.span), std::vector<std::string>{"timeout"});

  // The request was live all along; finishing it now completes it normally.
  observed_.ctx->Respond(Status::Ok(), nullptr, ResponseSource::kError, false);
  system_->sim()->RunFor(Seconds(2));
  EXPECT_EQ(client_->completed(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FrontEndFacilityTimeoutTest,
    ::testing::Values(FacilityCase{"ProfileGet", Facility::kProfileGet, "fe.profile_get"},
                      FacilityCase{"ProfilePut", Facility::kProfilePut, "fe.profile_put"},
                      FacilityCase{"Fetch", Facility::kFetch, "fe.fetch"},
                      FacilityCase{"CacheGet", Facility::kCacheGet, "fe.cache_get"}));

}  // namespace
}  // namespace sns
