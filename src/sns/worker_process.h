// Worker stub + TACC worker = a worker process (paper §2.2.5, §3.1.2).
//
// "The worker stub accepts and queues requests on behalf of the distiller and
// periodically reports load information to the manager." The stub hides fault
// tolerance, load balancing and queueing from the worker code, which is pure
// compute (a TaccWorker). Workers discover the manager by subscribing to its beacon
// multicast channel and (re-)register whenever a new manager incarnation appears —
// this is the entire crash-recovery protocol (§3.1.3).
//
// Fault injection: a task whose args contain "__poison" makes the worker crash
// mid-request, modeling the paper's "pathological input data occasionally causes a
// distiller to crash" (§3.1.6).

#ifndef SRC_SNS_WORKER_PROCESS_H_
#define SRC_SNS_WORKER_PROCESS_H_

#include <deque>
#include <memory>
#include <string>

#include "src/cluster/process.h"
#include "src/obs/metrics.h"
#include "src/sns/config.h"
#include "src/sns/manager_follower.h"
#include "src/sns/messages.h"
#include "src/tacc/worker.h"

namespace sns {

class WorkerProcess : public Process {
 public:
  WorkerProcess(const SnsConfig& config, TaccWorkerPtr worker);

  void OnStart() override;
  void OnMessage(const Message& msg) override;

  // --- Introspection (used by the Fig. 8 queue-length sampler and tests) -----------
  const std::string& worker_type() const { return type_; }
  const ManagerFollower& follower() const { return follower_; }
  // Instantaneous queue length including the in-service task — the paper's load
  // metric (footnote 2).
  double QueueLength() const { return static_cast<double>(queue_.size()) + (busy_ ? 1 : 0); }
  // The optionally cost-weighted variant: queued work expressed in multiples of a
  // reference item's cost (footnote 2's "weighted by the expected cost").
  double WeightedQueueLength() const;
  int64_t completed_tasks() const { return completed_ != nullptr ? completed_->value() : 0; }
  int64_t rejected_tasks() const { return rejected_ != nullptr ? rejected_->value() : 0; }
  int64_t expired_tasks() const { return expired_ != nullptr ? expired_->value() : 0; }

  // Max queued tasks before the stub sheds load with RESOURCE_EXHAUSTED.
  static constexpr size_t kQueueCapacity = 2000;

 private:
  void HandleBeacon(const ManagerBeaconPayload& beacon);
  void HandleTask(const Message& msg);
  void ExpireTask(const TaskRequestPayload& task, const TraceContext& span, SimTime start);
  void RejectTask(const TaskRequestPayload& task, const TraceContext& span,
                  const std::string& reason);
  void StartNext();
  void ReportLoad();

  SnsConfig config_;
  TaccWorkerPtr worker_;
  std::string type_;

  struct QueuedTask {
    std::shared_ptr<const TaskRequestPayload> payload;
    SimDuration estimated_cost = 0;
    TraceContext trace;        // This worker's span context for the task.
    SimTime enqueued_at = 0;   // Span start: queueing time is part of worker latency.
  };

  ManagerFollower follower_;
  std::deque<QueuedTask> queue_;
  SimDuration queued_cost_ = 0;    // Sum over queue_ + the in-service task.
  bool busy_ = false;
  // Registry instruments under "worker.<type>.p<pid>.*", bound in OnStart. Keyed by
  // pid so each incarnation gets fresh counts (worker instances are disposable).
  Counter* completed_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* expired_ = nullptr;
  Gauge* queue_gauge_ = nullptr;
};

}  // namespace sns

#endif  // SRC_SNS_WORKER_PROCESS_H_
