// The component side of the soft-state protocol, checked once per component:
// every SNS component (front end via its stub, worker, cache node, profile DB,
// monitor) follows the manager by the same rule and stamps what it sends the
// same way. Two scripted "managers" beacon with chosen epochs and record every
// registration and load report they receive.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sns/cache_node.h"
#include "src/sns/front_end.h"
#include "src/sns/manager_follower.h"
#include "src/sns/monitor.h"
#include "src/sns/profile_db.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

// Beacons naming itself with whatever epoch the test picks; records what the
// followers send back.
class ScriptedManager : public Process {
 public:
  ScriptedManager() : Process("scripted-manager") {}

  void OnMessage(const Message& msg) override {
    if (msg.type == kMsgRegisterComponent) {
      registrations.push_back(msg);
    } else if (msg.type == kMsgLoadReport) {
      reports.push_back(msg);
    }
  }

  void Beacon(uint64_t epoch) {
    auto payload = std::make_shared<ManagerBeaconPayload>();
    payload->manager = endpoint();
    payload->epoch = epoch;
    Message msg;
    msg.type = kMsgManagerBeacon;
    msg.transport = Transport::kDatagram;
    msg.size_bytes = WireSizeOf(*payload);
    msg.payload = payload;
    SendMulticast(kGroupManagerBeacon, std::move(msg));
  }

  std::vector<Message> registrations;
  std::vector<Message> reports;
};

class NullLauncher : public ComponentLauncher {
 public:
  ProcessId LaunchWorker(const std::string&, NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchManager(NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchFrontEnd(int, NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchProfileDb(NodeId) override { return kInvalidProcess; }
};

class IdleLogic : public FrontEndLogic {
 public:
  void HandleRequest(RequestContext*) override {}
};

class EchoWorker : public TaccWorker {
 public:
  std::string type() const override { return "echo"; }
  TaccResult Process(const TaccRequest& request) override {
    return TaccResult::Ok(request.inputs.empty() ? nullptr : request.input());
  }
};

// What a component needs that outlives it.
struct Deps {
  NullLauncher launcher;
  KvStore store;
};

struct FollowerRow {
  const char* name;
  ComponentKind kind;
  std::function<std::unique_ptr<Process>(const SnsConfig&, Deps*)> make;
  std::function<const ManagerFollower&(const Process&)> follower;
  // The component's own count of fenced beacons, where it exports one.
  std::function<int64_t(const Process&)> fenced_count;
  int64_t register_bytes = 0;  // 0: the component sends nothing to the manager.
  int64_t report_bytes = 0;
};

void PrintTo(const FollowerRow& row, std::ostream* os) { *os << row.name; }

template <typename P>
const P& As(const Process& p) {
  return static_cast<const P&>(p);
}

std::vector<FollowerRow> Rows() {
  return {
      {"front_end", ComponentKind::kFrontEnd,
       [](const SnsConfig& config, Deps* deps) -> std::unique_ptr<Process> {
         return std::make_unique<FrontEndProcess>(config, FrontEndOptions{},
                                                  std::make_shared<IdleLogic>(),
                                                  &deps->launcher);
       },
       [](const Process& p) -> const ManagerFollower& {
         return As<FrontEndProcess>(p).stub().follower();
       },
       [](const Process& p) {
         return static_cast<int64_t>(As<FrontEndProcess>(p).stub().fenced_beacons());
       },
       96, 80},
      {"worker", ComponentKind::kWorker,
       [](const SnsConfig& config, Deps*) -> std::unique_ptr<Process> {
         return std::make_unique<WorkerProcess>(config, std::make_unique<EchoWorker>());
       },
       [](const Process& p) -> const ManagerFollower& {
         return As<WorkerProcess>(p).follower();
       },
       nullptr, 96 + 4, 80 + 4},  // Plus the worker type, "echo".
      {"cache_node", ComponentKind::kCacheNode,
       [](const SnsConfig& config, Deps*) -> std::unique_ptr<Process> {
         return std::make_unique<CacheNodeProcess>(config, CacheNodeConfig{});
       },
       [](const Process& p) -> const ManagerFollower& {
         return As<CacheNodeProcess>(p).follower();
       },
       nullptr, 96, 80},
      {"profile_db", ComponentKind::kProfileDb,
       [](const SnsConfig& config, Deps* deps) -> std::unique_ptr<Process> {
         return std::make_unique<ProfileDbProcess>(config, ProfileDbConfig{}, &deps->store);
       },
       [](const Process& p) -> const ManagerFollower& {
         return As<ProfileDbProcess>(p).follower();
       },
       nullptr, 96, 80},
      {"monitor", ComponentKind::kMonitor,
       [](const SnsConfig& config, Deps*) -> std::unique_ptr<Process> {
         return std::make_unique<MonitorProcess>(config);
       },
       [](const Process& p) -> const ManagerFollower& {
         return As<MonitorProcess>(p).follower();
       },
       [](const Process& p) { return As<MonitorProcess>(p).stale_beacons_fenced(); }, 0, 0},
  };
}

class FollowRuleTest : public ::testing::TestWithParam<FollowerRow> {
 protected:
  // Two scripted managers and the component under test, each on its own node.
  void Build(bool fencing) {
    Logger::Get().set_min_level(LogLevel::kNone);
    SnsConfig config;
    config.manager_epoch_fencing = fencing;
    manager_a_ = Spawn(std::make_unique<ScriptedManager>());
    manager_b_ = Spawn(std::make_unique<ScriptedManager>());
    component_ = Spawn(GetParam().make(config, &deps_));
  }

  template <typename P>
  P* Spawn(std::unique_ptr<P> process) {
    P* raw = process.get();
    cluster_.Spawn(cluster_.AddNode(), std::move(process));
    return raw;
  }

  void Run(SimDuration d) { sim_.RunFor(d); }
  const ManagerFollower& follower() const { return GetParam().follower(*component_); }
  bool sends() const { return GetParam().register_bytes > 0; }
  size_t expected(size_t n) const { return sends() ? n : 0; }

  void ExpectRegistration(const Message& msg, uint64_t epoch) const {
    const auto& reg = static_cast<const RegisterComponentPayload&>(*msg.payload);
    EXPECT_EQ(reg.kind, GetParam().kind);
    EXPECT_EQ(reg.component, component_->endpoint());
    EXPECT_EQ(reg.manager_epoch, epoch);
    EXPECT_EQ(msg.transport, Transport::kReliable);
    EXPECT_EQ(msg.size_bytes, GetParam().register_bytes);
  }

  Simulator sim_;
  San san_{&sim_, SanConfig{}};
  Cluster cluster_{&sim_, &san_};
  Deps deps_;
  ScriptedManager* manager_a_ = nullptr;
  ScriptedManager* manager_b_ = nullptr;
  Process* component_ = nullptr;
};

TEST_P(FollowRuleTest, FencesStaleBeaconsAndRegistersOncePerManager) {
  Build(/*fencing=*/true);
  manager_a_->Beacon(2);
  Run(Milliseconds(50));
  EXPECT_EQ(follower().manager(), manager_a_->endpoint());
  EXPECT_EQ(follower().epoch(), 2u);
  ASSERT_EQ(manager_a_->registrations.size(), expected(1));
  if (sends()) {
    ExpectRegistration(manager_a_->registrations[0], 2);
  }

  // A lower epoch from another endpoint is a stale incarnation: nothing changes.
  manager_b_->Beacon(1);
  Run(Milliseconds(50));
  EXPECT_EQ(follower().manager(), manager_a_->endpoint());
  EXPECT_EQ(follower().epoch(), 2u);
  EXPECT_EQ(follower().fenced_beacons(), 1u);
  if (GetParam().fenced_count) {
    EXPECT_EQ(GetParam().fenced_count(*component_), 1);
  }
  EXPECT_TRUE(manager_b_->registrations.empty());
  EXPECT_EQ(manager_a_->registrations.size(), expected(1));

  // Same endpoint, higher epoch: the next load report carries the new epoch,
  // and the component does not register again.
  size_t reports_before = manager_a_->reports.size();
  manager_a_->Beacon(3);
  Run(Seconds(2));
  EXPECT_EQ(follower().epoch(), 3u);
  EXPECT_EQ(manager_a_->registrations.size(), expected(1));
  if (sends()) {
    ASSERT_GT(manager_a_->reports.size(), reports_before);
    const Message& last = manager_a_->reports.back();
    const auto& report = static_cast<const LoadReportPayload&>(*last.payload);
    EXPECT_EQ(report.kind, GetParam().kind);
    EXPECT_EQ(report.component, component_->endpoint());
    EXPECT_EQ(report.manager_epoch, 3u);
    EXPECT_EQ(last.transport, Transport::kDatagram);
    EXPECT_EQ(last.size_bytes, GetParam().report_bytes);
  } else {
    EXPECT_TRUE(manager_a_->reports.empty());
  }

  // A new manager endpoint gets exactly one registration, stamped with its epoch.
  manager_b_->Beacon(4);
  Run(Milliseconds(50));
  EXPECT_EQ(follower().manager(), manager_b_->endpoint());
  EXPECT_EQ(follower().epoch(), 4u);
  ASSERT_EQ(manager_b_->registrations.size(), expected(1));
  if (sends()) {
    ExpectRegistration(manager_b_->registrations[0], 4);
  }
}

TEST_P(FollowRuleTest, FencingOffAcceptsLowerEpochBeacon) {
  Build(/*fencing=*/false);
  manager_a_->Beacon(2);
  Run(Milliseconds(50));
  manager_b_->Beacon(1);
  Run(Milliseconds(50));
  EXPECT_EQ(follower().manager(), manager_b_->endpoint());
  EXPECT_EQ(follower().epoch(), 1u);
  EXPECT_EQ(follower().fenced_beacons(), 0u);
  if (GetParam().fenced_count) {
    EXPECT_EQ(GetParam().fenced_count(*component_), 0);
  }
  ASSERT_EQ(manager_b_->registrations.size(), expected(1));
  if (sends()) {
    ExpectRegistration(manager_b_->registrations[0], 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Components, FollowRuleTest, ::testing::ValuesIn(Rows()),
                         [](const ::testing::TestParamInfo<FollowerRow>& row) {
                           return std::string(row.param.name);
                         });

TEST(SyncCacheRingTest, CountsJoinsAndLeavesAndKeepsMembersSorted) {
  ConsistentHashRing ring(16);
  std::vector<Endpoint> members;
  EXPECT_EQ(SyncCacheRing({{5, 50}, {4, 40}}, &members, &ring), 2u);
  EXPECT_EQ(members, (std::vector<Endpoint>{{4, 40}, {5, 50}}));
  EXPECT_EQ(SyncCacheRing({{4, 40}, {5, 50}}, &members, &ring), 0u);
  // One leave plus one join.
  EXPECT_EQ(SyncCacheRing({{6, 60}, {4, 40}}, &members, &ring), 2u);
  EXPECT_EQ(members, (std::vector<Endpoint>{{4, 40}, {6, 60}}));
  EXPECT_FALSE(ring.HasMember(CacheRingMemberId(Endpoint{5, 50})));
  EXPECT_TRUE(ring.HasMember(CacheRingMemberId(Endpoint{6, 60})));
}

}  // namespace
}  // namespace sns
