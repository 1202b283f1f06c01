#include "src/cluster/process.h"

#include "src/cluster/cluster.h"

namespace sns {

Simulator* Process::sim() const { return cluster_->sim(); }

San* Process::san() const { return cluster_->san(); }

MetricsRegistry* Process::metrics() const { return cluster_->metrics(); }

TraceCollector* Process::tracer() const { return cluster_->tracer(); }

TraceContext Process::StartTrace() const { return cluster_->tracer()->StartTrace(); }

TraceContext Process::ChildSpan(const TraceContext& parent) const {
  return cluster_->tracer()->ChildOf(parent);
}

void Process::RecordSpan(const TraceContext& ctx, const std::string& operation, SimTime start,
                         std::string outcome) const {
  if (!ctx.valid()) {
    return;
  }
  SpanRecord span;
  span.trace_id = ctx.trace_id;
  span.span_id = ctx.span_id;
  span.parent_span_id = ctx.parent_span_id;
  span.component = name_;
  span.operation = operation;
  span.node = endpoint_.node;
  span.start = start;
  span.end = sim()->now();
  span.outcome = std::move(outcome);
  cluster_->tracer()->Record(std::move(span));
}

void Process::Send(Message msg, San::SendOptions opts) {
  msg.src = endpoint_;
  san()->Send(std::move(msg), std::move(opts));
}

void Process::SendMulticast(McastGroup group, Message msg) {
  msg.src = endpoint_;
  san()->SendMulticast(group, std::move(msg));
}

void Process::JoinGroup(McastGroup group) { san()->JoinGroup(group, endpoint_); }

void Process::LeaveGroup(McastGroup group) { san()->LeaveGroup(group, endpoint_); }

bool Process::Alive(const Cluster* cluster, ProcessId pid) { return cluster->Alive(pid); }

SimTime Process::ReserveCpu(SimDuration cpu_time) {
  return cluster_->ReserveCpu(endpoint_.node, cpu_time);
}

}  // namespace sns
