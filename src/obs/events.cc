#include "src/obs/events.h"

#include <utility>

namespace sns {

void EventLog::RecordFault(FaultInstant ev) {
  ++faults_recorded_;
  faults_.push_back(std::move(ev));
  while (faults_.size() > kMaxFaults) {
    faults_.pop_front();
  }
}

}  // namespace sns
