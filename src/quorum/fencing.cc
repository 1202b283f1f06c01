#include "src/quorum/fencing.h"

#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/util/time.h"

namespace sns {

FenceAgent::FenceAgent(Cluster* cluster) : cluster_(cluster) {}

void FenceAgent::BindMetrics(MetricsRegistry* metrics) {
  kills_counter_ = metrics->GetCounter("fencing.kills");
}

bool FenceAgent::Fence(ProcessId pid, const std::string& reason) {
  Process* victim = cluster_->Find(pid);
  if (victim == nullptr) {
    return false;  // Already dead: fencing is idempotent.
  }
  ++kills_;
  if (kills_counter_ != nullptr) {
    kills_counter_->Increment();
  }
  std::string line =
      StrFormat("t=%s fence kill pid=%lld node=%d (%s)",
                FormatTime(cluster_->sim()->now()).c_str(), static_cast<long long>(pid),
                victim->node(), reason.c_str());
  log_.push_back(line);
  SNS_LOG(kInfo, "fence") << line;
  if (event_log_ != nullptr) {
    event_log_->RecordFault({cluster_->sim()->now(), line});
  }
  cluster_->Crash(pid);
  return true;
}

}  // namespace sns
