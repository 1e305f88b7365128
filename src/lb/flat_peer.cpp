#include "lb/flat_peer.hpp"

#include "support/check.hpp"

namespace olb::lb {

FlatPeer::FlatPeer(PeerConfig peer, bool fault_tolerant, sim::Time request_timeout,
                   sim::Time lease_interval)
    : PeerBase(peer), fault_tolerant_(fault_tolerant),
      request_timeout_(request_timeout), lease_interval_(lease_interval) {}

void FlatPeer::start_termination(bool initiator) {
  if (fault_tolerant_) {
    peer_down_.assign(static_cast<std::size_t>(num_peers()), 0);
    if (initiator) set_timer(lease_interval_, kTermPollTimer);
  }
  if (initiator) ds_.make_initiator();
}

StateTap FlatPeer::state_tap() const {
  StateTap t = PeerBase::state_tap();
  t.transfers_sent = work_sent_;
  t.transfers_recv = work_recv_;
  t.pending_requests = request_outstanding_ ? 1 : 0;
  return t;
}

bool FlatPeer::admit(const sim::Message& m) {
  if (m.type != kTerminate) note_bound(m.a);
  return !known_down(m.src) || m.type == kWork;
}

void FlatPeer::on_common_message(sim::Message m) {
  switch (m.type) {
    case kWork:
      on_work(std::move(m));
      break;
    case kSignal:
      ds_.on_signal();
      maybe_detach();
      break;
    case kTermProbe:
      send(m.src, make_msg(kTermAck,
                           pack_term_ack_b(static_cast<std::uint64_t>(m.b), passive()),
                           pack_term_ack_c(work_sent_, work_recv_)));
      break;
    case kTermAck:
      if (poll_.on_ack(term_ack_round(m.b), m.src, term_ack_passive(m.b),
                       term_ack_sent(m.c), term_ack_recv(m.c))) {
        conclude_poll();
      }
      break;
    default:
      OLB_CHECK_MSG(false, "unexpected message type for a flat-protocol peer");
  }
}

void FlatPeer::on_work(sim::Message m) {
  request_outstanding_ = false;
  ++work_recv_;
  if (fault_tolerant_) ++request_seq_;  // void any outstanding request timeout
  emit_trace(trace::EventKind::kIdleEnd, m.src, m.type);
  if (!fault_tolerant_ && ds_.on_work_received(m.src)) {
    send(m.src, make_msg(kSignal));
  }
  auto* payload = static_cast<WorkPayload*>(m.payload.get());
  acquire_work(std::move(payload->work));
  continue_processing();
}

void FlatPeer::send_request(int target, int type, std::int64_t timeout_tag) {
  request_outstanding_ = true;
  emit_trace(trace::EventKind::kRequest, target, type);
  if (!fault_tolerant_) {
    send(target, make_msg(type));
    return;
  }
  request_target_ = target;
  send(target, make_msg(type, ++request_seq_));
  set_timer(request_timeout_, timeout_tag | (request_seq_ << kTimerTagShift));
}

void FlatPeer::on_request_timeout(std::int64_t tag, int retry_type) {
  if (terminated_ || !request_outstanding_) return;
  if ((tag >> kTimerTagShift) != request_seq_) return;  // answered
  count_retry(request_target_, retry_type, request_seq_);
  request_outstanding_ = false;
  retry_request();
}

bool FlatPeer::serve(const sim::Message& m, double fraction) {
  auto w = split_work(fraction);
  if (w == nullptr) return false;
  ds_.on_work_sent();
  ++work_sent_;
  emit_trace(trace::EventKind::kServe, m.src, m.type, trace::fraction_ppm(fraction),
             static_cast<std::int64_t>(w->amount()));
  auto reply = make_msg(kWork);
  reply.payload = std::make_unique<WorkPayload>(std::move(w));
  send(m.src, std::move(reply));
  return true;
}

void FlatPeer::maybe_detach() {
  if (fault_tolerant_ || !ds_.can_detach(passive())) return;
  const int parent = ds_.detach();
  if (parent >= 0) {
    send(parent, make_msg(kSignal));
  } else {
    done_time_ = now();
    declare_termination();
  }
}

void FlatPeer::on_poll_tick() {
  if (terminated_) return;  // no re-arm
  const int n = num_peers();
  const int live_others = n - 1 - crash_epoch_;
  const std::uint64_t round = poll_.begin_round(n, live_others);
  for (int p = 0; p < n; ++p) {
    if (p == id() || known_down(p)) continue;
    send(p, make_msg(kTermProbe, static_cast<std::int64_t>(round)));
  }
  if (live_others == 0) conclude_poll();  // sole survivor
  if (!terminated_) set_timer(lease_interval_, kTermPollTimer);
}

void FlatPeer::conclude_poll() {
  const CounterReading reading = poll_.reading(work_sent_, work_recv_, crash_epoch_);
  if (poll_rule_.settle(poll_.all_passive() && passive(), reading) == Settle::kStable) {
    done_time_ = now();
    declare_termination();
  }
}

void FlatPeer::on_peer_down(int peer) {
  OLB_CHECK(fault_tolerant_);
  const auto idx = static_cast<std::size_t>(peer);
  if (idx >= peer_down_.size() || peer_down_[idx] != 0) return;
  peer_down_[idx] = 1;
  ++crash_epoch_;
  if (terminated_) return;
  poll_rule_.invalidate();  // readings across a crash boundary don't compare
  if (request_outstanding_ && request_target_ == peer) {
    // The request died with its target; ask again at once.
    request_outstanding_ = false;
    ++request_seq_;
    retry_request();
  }
}

}  // namespace olb::lb
