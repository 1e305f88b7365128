#include "lb/rws.hpp"

#include "support/check.hpp"

namespace olb::lb {
namespace {

constexpr double kStealFraction = 0.5;  ///< steal-half

}  // namespace

RwsPeer::RwsPeer(const RwsConfig& config, std::unique_ptr<Work> initial_work)
    : FlatPeer(config.peer, config.fault_tolerant, config.request_timeout,
               config.lease_interval),
      initial_work_(std::move(initial_work)) {}

void RwsPeer::on_start() {
  const bool initiator = initial_work_ != nullptr;
  start_termination(initiator);
  if (initiator) {
    OLB_CHECK(acquire_work(std::move(initial_work_)));
    continue_processing();
  } else {
    became_idle();
  }
}

void RwsPeer::became_idle() {
  if (terminated_) return;
  emit_trace(trace::EventKind::kIdleBegin);
  maybe_detach();
  if (!terminated_) try_steal();
}

void RwsPeer::try_steal() {
  if (terminated_ || request_outstanding_ || holds_work()) return;
  const int n = num_peers();
  if (n < 2) {
    // Nothing to steal from; the singleton initiator terminates on idle.
    return;
  }
  if (known_crashes() >= n - 1) return;  // no live victim
  int victim;
  do {
    victim = static_cast<int>(rng().below(static_cast<std::uint64_t>(n)));
  } while (victim == id() || known_down(victim));
  send_request(victim, kSteal, kRwsStealTimeoutTimer);
}

void RwsPeer::declare_termination() {
  stop();
  for (int p = 0; p < num_peers(); ++p) {
    if (p != id() && !known_down(p)) send(p, make_msg(kTerminate));
  }
}

void RwsPeer::diffuse_bound() {
  // No overlay to diffuse along: bounds piggyback on steal traffic (field a
  // of every message), which in RWS is abundant.
}

void RwsPeer::on_timer(std::int64_t tag) {
  switch (tag & kTimerTagMask) {
    case kRwsStealTimeoutTimer:
      on_request_timeout(tag, kSteal);
      return;
    case kTermPollTimer:
      on_poll_tick();
      return;
    default:
      OLB_CHECK_MSG(false, "unexpected timer tag for RwsPeer");
  }
}

void RwsPeer::on_message(sim::Message m) {
  if (!admit(m)) return;
  if (terminated_) {
    OLB_CHECK(m.type != kWork);
    if (fault_tolerant() && m.type != kTerminate) {
      // The sender missed the broadcast (dropped kTerminate); answer its
      // retransmitted request so it can stop too.
      send(m.src, make_msg(kTerminate));
    }
    return;
  }
  switch (m.type) {
    case kSteal:
      if (serve(m, kStealFraction)) break;
      emit_trace(trace::EventKind::kNoServe, m.src, kSteal);
      send(m.src, make_msg(kStealFail, m.b));
      break;
    case kStealFail:
      if (fault_tolerant() && m.b != request_seq_) break;  // stale/dup
      request_outstanding_ = false;
      try_steal();  // unless engaged meanwhile via another transfer
      break;
    case kTerminate:
      OLB_CHECK_MSG(!holds_work(), "terminate reached a peer still holding work");
      stop();
      break;
    default:
      on_common_message(std::move(m));
  }
}

}  // namespace olb::lb
