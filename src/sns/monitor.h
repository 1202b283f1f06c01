// The system monitor (paper §3.1.7).
//
// "Our extensible graphical monitor presents a unified view of the system as a
// single virtual entity. Components of the system report state information to the
// monitor using a multicast group... The monitor can page or email the system
// operator if a serious error occurs, for example, if it stops receiving reports
// from some component."
//
// This implementation subscribes to the manager's beacon group (each beacon
// carries every worker's load and every cache node, so the beacon is the report
// channel), keeps a soft-state registry of components, raises operator alarms (a
// callback standing in for pager/email) when a component goes silent, and renders
// a textual snapshot — the "visualization panel" — showing per-component state
// and queue depths.

#ifndef SRC_SNS_MONITOR_H_
#define SRC_SNS_MONITOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/process.h"
#include "src/obs/metrics.h"
#include "src/sns/config.h"
#include "src/sns/launcher.h"
#include "src/sns/manager_follower.h"
#include "src/sns/messages.h"
#include "src/store/soft_state.h"

namespace sns {

struct MonitorAlarm {
  SimTime when = 0;
  std::string component;
  std::string message;
};

class MonitorProcess : public Process {
 public:
  // `launcher` (optional) makes the monitor the operator-of-last-resort: if the
  // manager and every front end die inside the same detection window, the mutual
  // process-peer restart web (§3.1.3) has no surviving member — the monitor, which
  // would otherwise page a human, then restarts the manager itself.
  explicit MonitorProcess(const SnsConfig& config, ComponentLauncher* launcher = nullptr);

  void OnStart() override;
  void OnMessage(const Message& msg) override;

  // Operator notification hook (the paper's pager/email path).
  void set_alarm_handler(std::function<void(const MonitorAlarm&)> handler) {
    alarm_handler_ = std::move(handler);
  }

  const ManagerFollower& follower() const { return follower_; }
  const std::vector<MonitorAlarm>& alarms() const { return alarms_; }
  size_t LiveComponentCount() const;
  int64_t beacons_observed() const { return CounterOr0(beacons_observed_); }
  int64_t manager_restarts_triggered() const { return CounterOr0(manager_restarts_); }
  int64_t stale_beacons_fenced() const { return CounterOr0(stale_beacons_fenced_); }

  // The textual "visualization panel": one line per live component with its kind,
  // location, and most recent metrics.
  std::string RenderSnapshot() const;

  // Machine-readable snapshot: sim time, every registry instrument, the monitor's
  // per-component soft-state view, and raised alarms, as one JSON object. This is
  // the artifact the bench harness dumps once per run.
  std::string ExportJson() const;

 private:
  struct ComponentView {
    ComponentKind kind = ComponentKind::kWorker;
    std::string label;
    std::map<std::string, double> metrics;
  };

  static int64_t CounterOr0(const Counter* c) { return c != nullptr ? c->value() : 0; }

  void Sweep();
  void Raise(const std::string& component, const std::string& message);

  SnsConfig config_;
  SoftStateTable<Endpoint, ComponentView, EndpointHash> components_;
  std::function<void(const MonitorAlarm&)> alarm_handler_;
  std::vector<MonitorAlarm> alarms_;
  ComponentLauncher* launcher_;
  SimTime last_beacon_at_ = -1;
  ManagerFollower follower_;
  // Registry instruments under "monitor.*", bound in OnStart.
  Counter* beacons_observed_ = nullptr;
  Counter* manager_restarts_ = nullptr;
  Counter* stale_beacons_fenced_ = nullptr;
};

}  // namespace sns

#endif  // SRC_SNS_MONITOR_H_
