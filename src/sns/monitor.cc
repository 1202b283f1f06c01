#include "src/sns/monitor.h"

#include "src/cluster/cluster.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {

MonitorProcess::MonitorProcess(const SnsConfig& config, ComponentLauncher* launcher)
    : Process("monitor"),
      config_(config),
      components_(config.monitor_component_ttl),
      launcher_(launcher),
      follower_(config.manager_epoch_fencing, {.kind = ComponentKind::kMonitor}) {}

void MonitorProcess::OnStart() {
  beacons_observed_ = metrics()->GetCounter("monitor.beacons_observed");
  reports_observed_ = metrics()->GetCounter("monitor.reports_observed");
  manager_restarts_ = metrics()->GetCounter("monitor.manager_restarts");
  stale_beacons_fenced_ = metrics()->GetCounter("monitor.stale_beacons_fenced");
  JoinGroup(kGroupManagerBeacon);
  JoinGroup(kGroupMonitor);
  Every(config_.monitor_report_period, config_.monitor_report_period, [this] { Sweep(); });
}

void MonitorProcess::OnMessage(const Message& msg) {
  SimTime now = sim()->now();
  switch (msg.type) {
    case kMsgManagerBeacon: {
      const auto& beacon = static_cast<const ManagerBeaconPayload&>(*msg.payload);
      if (follower_.Follow(beacon) == ManagerFollower::Verdict::kStale) {
        stale_beacons_fenced_->Increment();
        break;  // A superseded incarnation must not refresh liveness or views.
      }
      beacons_observed_->Increment();
      last_beacon_at_ = now;
      ComponentView manager_view;
      manager_view.kind = ComponentKind::kManager;
      manager_view.label = "manager";
      manager_view.metrics["workers"] = static_cast<double>(beacon.workers.size());
      manager_view.metrics["caches"] = static_cast<double>(beacon.cache_nodes.size());
      components_.Refresh(beacon.manager, std::move(manager_view), now);
      // The beacon carries every worker's load: fold them into the registry too.
      for (const WorkerHint& hint : beacon.workers) {
        ComponentView view;
        view.kind = ComponentKind::kWorker;
        view.label = hint.worker_type;
        view.metrics["queue"] = hint.smoothed_queue;
        components_.Refresh(hint.endpoint, std::move(view), now);
      }
      for (const Endpoint& cache : beacon.cache_nodes) {
        ComponentView view;
        view.kind = ComponentKind::kCacheNode;
        view.label = "cache";
        components_.Refresh(cache, std::move(view), now);
      }
      break;
    }
    case kMsgMonitorReport: {
      reports_observed_->Increment();
      const auto& report = static_cast<const MonitorReportPayload&>(*msg.payload);
      ComponentView view;
      view.kind = report.kind;
      view.label = report.name;
      view.metrics = report.metrics;
      components_.Refresh(report.component, std::move(view), now);
      break;
    }
    default:
      break;
  }
}

void MonitorProcess::Sweep() {
  components_.Expire(sim()->now(), [this](const Endpoint& ep, const ComponentView& view) {
    Raise(view.label, StrFormat("%s at %s stopped reporting", ComponentKindName(view.kind),
                                ep.ToString().c_str()));
  });
  // Last-resort recovery: the manager's beacons went silent AND nobody has brought
  // it back (meaning the front ends that would normally do so are dead too). The
  // monitor stands in for the paged operator and restarts it; the new manager then
  // restarts the missing front ends.
  if (launcher_ != nullptr && last_beacon_at_ >= 0 &&
      sim()->now() - last_beacon_at_ > config_.manager_silence_restart +
                                           config_.monitor_report_period) {
    Raise("manager", "manager beacons silent with no surviving peer; restarting");
    manager_restarts_->Increment();
    last_beacon_at_ = sim()->now();  // One restart attempt per window.
    launcher_->RelaunchManager(node());
  }
}

void MonitorProcess::Raise(const std::string& component, const std::string& message) {
  MonitorAlarm alarm{sim()->now(), component, message};
  SNS_LOG(kWarning, "monitor") << "ALARM: " << message;
  alarms_.push_back(alarm);
  if (alarm_handler_) {
    alarm_handler_(alarm);
  }
}

size_t MonitorProcess::LiveComponentCount() const { return components_.LiveCount(sim()->now()); }

std::string MonitorProcess::RenderSnapshot() const {
  std::string out = StrFormat("=== SNS monitor @ %s ===\n", FormatTime(sim()->now()).c_str());
  components_.ForEach(sim()->now(), [&](const Endpoint& ep, const ComponentView& view) {
    out += StrFormat("  %-10s %-18s node=%d", ComponentKindName(view.kind), view.label.c_str(),
                     ep.node);
    for (const auto& [key, value] : view.metrics) {
      out += StrFormat(" %s=%.2f", key.c_str(), value);
    }
    out += "\n";
  });
  out += StrFormat("  alarms: %zu\n", alarms_.size());
  return out;
}

std::string MonitorProcess::ExportJson() const {
  std::string out = StrFormat("{\"time_ns\":%lld,\"metrics\":",
                              static_cast<long long>(sim()->now()));
  out += cluster()->metrics()->RenderJson();
  out += ",\"components\":[";
  bool first = true;
  components_.ForEach(sim()->now(), [&](const Endpoint& ep, const ComponentView& view) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("{\"kind\":\"%s\",\"label\":\"%s\",\"node\":%d,\"port\":%d,\"metrics\":{",
                     ComponentKindName(view.kind), JsonEscape(view.label).c_str(), ep.node,
                     ep.port);
    bool first_metric = true;
    for (const auto& [key, value] : view.metrics) {
      if (!first_metric) out += ",";
      first_metric = false;
      out += StrFormat("\"%s\":%.6g", JsonEscape(key).c_str(), value);
    }
    out += "}}";
  });
  out += "],\"alarms\":[";
  first = true;
  for (const MonitorAlarm& alarm : alarms_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("{\"time_ns\":%lld,\"component\":\"%s\",\"message\":\"%s\"}",
                     static_cast<long long>(alarm.when), JsonEscape(alarm.component).c_str(),
                     JsonEscape(alarm.message).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace sns
