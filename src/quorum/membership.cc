#include "src/quorum/membership.h"

#include <utility>

#include "src/util/strings.h"
#include "src/util/time.h"

namespace sns {

MembershipService::MembershipService(const San* san, QuorumDisk* disk)
    : san_(san), disk_(disk) {}

void MembershipService::SetVotes(NodeId node, int32_t votes) {
  votes_[node] = votes;
}

int32_t MembershipService::votes(NodeId node) const {
  auto it = votes_.find(node);
  return it == votes_.end() ? 0 : it->second;
}

int32_t MembershipService::votes_total() const {
  int32_t total = 0;
  for (const auto& [node, v] : votes_) {
    total += v;
  }
  return total;
}

void MembershipService::BindMetrics(MetricsRegistry* metrics) {
  votes_held_gauge_ = metrics->GetGauge("quorum.votes_held");
  votes_total_gauge_ = metrics->GetGauge("quorum.votes_total");
  quorate_gauge_ = metrics->GetGauge("quorum.is_quorate");
}

MembershipView MembershipService::Regroup(NodeId vantage, SimTime now, bool renew) {
  MembershipView view;
  for (const auto& [node, node_votes] : votes_) {
    if (node_votes <= 0) {
      continue;
    }
    view.votes_total += node_votes;
    if (san_->NodeUp(node) && san_->Reachable(vantage, node)) {
      view.members.push_back(node);
      view.votes_held += node_votes;
    }
  }
  if (2 * view.votes_held > view.votes_total) {
    view.quorate = true;
  } else if (2 * view.votes_held == view.votes_total && view.votes_held > 0) {
    view.tie = true;
    if (disk_ != nullptr) {
      if (renew) {
        // Assert ownership: renew our lease, or claim an expired/unowned one.
        view.tie_won_by_disk = disk_->TryClaim(vantage, now);
      } else {
        // Read-only arbitration: the tie goes to the side holding the lease;
        // an expired or unowned disk is claimable, so the challenger may
        // proceed (its promoted manager will claim on its first beacon).
        std::optional<NodeId> owner = disk_->Owner(now);
        view.tie_won_by_disk =
            !owner.has_value() ||
            (san_->NodeUp(*owner) && san_->Reachable(vantage, *owner));
      }
      view.quorate = view.tie_won_by_disk;
    }
  }
  if (renew && disk_ != nullptr && view.quorate && !view.tie) {
    // A majority-side leader keeps the disk warm so a later even split breaks
    // toward the side that was last in charge (qdiskd master heartbeat).
    disk_->TryClaim(vantage, now);
  }

  LastView& last = last_[vantage];
  if (!last.valid || last.members != view.members || last.quorate != view.quorate) {
    ++regroup_seq_;
    std::string line = StrFormat(
        "t=%s regroup#%llu node=%d members=%zu votes=%d/%d quorate=%d",
        FormatTime(now).c_str(), static_cast<unsigned long long>(regroup_seq_),
        vantage, view.members.size(), view.votes_held, view.votes_total,
        view.quorate ? 1 : 0);
    if (event_log_ != nullptr) {
      event_log_->RecordFault({now, line});
    }
    transitions_.push_back(std::move(line));
    last.members = view.members;
    last.quorate = view.quorate;
    last.valid = true;
  }
  view.regroup_seq = regroup_seq_;

  if (renew) {
    if (votes_held_gauge_ != nullptr) {
      votes_held_gauge_->Set(view.votes_held);
      votes_total_gauge_->Set(view.votes_total);
      quorate_gauge_->Set(view.quorate ? 1 : 0);
    }
  }
  return view;
}

void MembershipService::NoteTransition(SimTime at, std::string line) {
  if (event_log_ != nullptr) {
    event_log_->RecordFault({at, line});
  }
  transitions_.push_back(std::move(line));
}

}  // namespace sns
