#include "lb/ahmw.hpp"

#include <cmath>

#include "support/check.hpp"

namespace olb::lb {

AhmwPeer::AhmwPeer(std::shared_ptr<const overlay::TreeOverlay> tree,
                   const AhmwConfig& config, std::unique_ptr<Work> initial_work)
    : FlatPeer(config.peer, config.fault_tolerant, config.request_timeout,
               config.lease_interval),
      tree_(std::move(tree)), config_(config), initial_work_(std::move(initial_work)) {}

void AhmwPeer::on_start() {
  OLB_CHECK((initial_work_ != nullptr) == is_root());
  start_termination(is_root());
  if (is_master()) {
    const int my_level = tree_->depth(id());
    for (int p = 0; p < tree_->size(); ++p) {
      if (p != id() && !tree_->children(p).empty() && tree_->depth(p) == my_level) {
        level_peers_.push_back(p);
      }
    }
  }
  if (is_root()) {
    OLB_CHECK(acquire_work(std::move(initial_work_)));
    continue_processing();
  } else {
    became_idle();
  }
}

double AhmwPeer::grain_fraction() const {
  // A level-L master hands out absolute pieces of total/B^(L+1) work units,
  // converted here into a fraction of its current local amount.
  const double amount = work_ != nullptr ? work_->amount() : 0.0;
  if (amount <= 0.0) return 0.0;
  OLB_CHECK_MSG(config_.total_amount > 0.0, "AhmwConfig::total_amount unset");
  const double level = static_cast<double>(tree_->depth(id()));
  const double piece =
      config_.total_amount / std::pow(config_.decomposition_base, level + 1.0);
  return std::min(0.5, piece / amount);
}

void AhmwPeer::became_idle() {
  if (terminated_) return;
  emit_trace(trace::EventKind::kIdleBegin);
  maybe_detach();
  if (terminated_ || request_outstanding_) return;
  if (is_root()) return;  // the top master only waits for its subtree
  pull_from_parent();
}

void AhmwPeer::pull_from_parent() {
  if (terminated_ || request_outstanding_ || holds_work()) return;
  send_request(tree_->parent(id()), kMWRequest, kAhmwRequestTimeoutTimer);
}

void AhmwPeer::steal_from_sibling() {
  if (terminated_ || request_outstanding_ || holds_work()) return;
  if (level_peers_.empty()) {
    arm_retry();
    return;
  }
  const int target =
      level_peers_[rng().below(static_cast<std::uint64_t>(level_peers_.size()))];
  send_request(target, kSteal, kAhmwRequestTimeoutTimer);
}

void AhmwPeer::arm_retry() {
  if (retry_armed_ || terminated_) return;
  retry_armed_ = true;
  set_timer(config_.retry_delay, kAhmwRetryTimer);
}

void AhmwPeer::on_timer(std::int64_t tag) {
  switch (tag & kTimerTagMask) {
    case kAhmwRetryTimer:
      retry_armed_ = false;
      if (terminated_ || holds_work() || request_outstanding_) return;
      if (!is_root()) pull_from_parent();
      return;
    case kAhmwRequestTimeoutTimer:
      on_request_timeout(tag, kMWRequest);
      return;
    case kTermPollTimer:
      on_poll_tick();
      return;
    default:
      OLB_CHECK_MSG(false, "unexpected timer tag for AhmwPeer");
  }
}

void AhmwPeer::declare_termination() {
  stop();
  for (int c : tree_->children(id())) {
    if (!known_down(c)) send(c, make_msg(kTerminate));
  }
}

void AhmwPeer::diffuse_bound() {
  if (!is_root()) send(tree_->parent(id()), make_msg(kBound));
  for (int c : tree_->children(id())) {
    if (!known_down(c)) send(c, make_msg(kBound));
  }
}

void AhmwPeer::on_message(sim::Message m) {
  if (!admit(m)) return;
  if (terminated_) {
    OLB_CHECK(m.type != kWork);
    if (m.type == kMWRequest || m.type == kSteal) {
      // Straggler pull from a peer the broadcast has not reached yet. Under
      // faults the sender may have *missed* the broadcast entirely, so tell
      // it to stop; fault-free it just gets a plain failure.
      send(m.src, make_msg(fault_tolerant() ? kTerminate : kStealFail,
                           fault_tolerant() ? 0 : m.b));
    } else if (fault_tolerant() && m.type == kTermProbe) {
      send(m.src, make_msg(kTerminate));
    }
    return;
  }
  switch (m.type) {
    case kMWRequest:  // a child pulls a level-grain piece
      if (!serve(m, grain_fraction())) send(m.src, make_msg(kStealFail, m.b));
      break;
    case kSteal:  // an empty same-level master steals half
      if (!serve(m, 0.5)) send(m.src, make_msg(kStealFail, m.b));
      break;
    case kStealFail:
      if (fault_tolerant() && m.b != request_seq_) break;  // stale/dup
      request_outstanding_ = false;
      if (holds_work()) break;
      // Parent dry: masters try a same-level peer before backing off.
      if (is_master() && m.src == tree_->parent(id())) {
        steal_from_sibling();
      } else {
        arm_retry();
      }
      break;
    case kBound:
      // Forward improvements along the hierarchy.
      if (bound_ < diffused_bound_) {
        diffused_bound_ = bound_;
        if (!is_root() && tree_->parent(id()) != m.src) {
          send(tree_->parent(id()), make_msg(kBound));
        }
        for (int c : tree_->children(id())) {
          if (c != m.src && !known_down(c)) send(c, make_msg(kBound));
        }
      }
      break;
    case kTerminate:
      OLB_CHECK_MSG(!holds_work(), "terminate reached a peer still holding work");
      declare_termination();  // relays the broadcast down the hierarchy
      break;
    default:
      on_common_message(std::move(m));
  }
}

}  // namespace olb::lb
