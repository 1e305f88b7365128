// What the flat protocols (RWS and AHMW) share: termination detection,
// crash bookkeeping and the request/transfer plumbing around it.
//
// Fault-free, termination is Dijkstra–Scholten over the work-transfer graph
// (ds_termination.hpp), rooted at the initiator — the peer the problem is
// first pushed to. DS is not fault-tolerant: a lost kSignal hangs the
// diffusing computation and a duplicated one underflows a deficit. Under
// fault injection the initiator instead polls every live peer once per
// lease interval (counter_wave.hpp's TermPoll) and declares termination when
// StableCounters finds two completed, all-passive rounds that agree on the
// summed transfer counters and the crash count.
//
// Under faults every request also carries a sequence number, echoed by its
// kStealFail, that voids stale failure replies and stale timeout timers; an
// unanswered request is retried after the request timeout, and one whose
// target crashed is retried at once.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/counter_wave.hpp"
#include "lb/ds_termination.hpp"
#include "lb/peer_base.hpp"

namespace olb::lb {

class FlatPeer : public PeerBase {
 public:
  /// Number of crashed peers this peer has been notified about.
  int known_crashes() const { return crash_epoch_; }

  StateTap state_tap() const override;

 protected:
  FlatPeer(PeerConfig peer, bool fault_tolerant, sim::Time request_timeout,
           sim::Time lease_interval);

  /// Call from on_start: the initiator roots the DS tree and, under faults,
  /// starts the lease poll.
  void start_termination(bool initiator);

  bool fault_tolerant() const { return fault_tolerant_; }
  bool passive() const { return !holds_work() && !computing(); }
  bool known_down(int peer) const {
    return peer >= 0 && static_cast<std::size_t>(peer) < peer_down_.size() &&
           peer_down_[static_cast<std::size_t>(peer)] != 0;
  }

  /// Entry filter of on_message: notes the piggybacked bound, then returns
  /// false for an in-flight control message of a crashed peer (its work
  /// still bounces back and is kept).
  bool admit(const sim::Message& m);
  /// Handles the message types both protocols share: kWork, kSignal,
  /// kTermProbe and kTermAck.
  void on_common_message(sim::Message m);

  /// Sends a work request of `type` to `target`; under faults it is
  /// sequence-numbered and times out through timer `timeout_tag`.
  void send_request(int target, int type, std::int64_t timeout_tag);
  /// The request timer `tag` fired: unless the request was answered
  /// meanwhile, counts a retry (traced as `retry_type`) and asks again.
  void on_request_timeout(std::int64_t tag, int retry_type);
  /// Asks for work again after a request timed out or its target crashed.
  virtual void retry_request() = 0;

  /// Serves the requester of `m` a `fraction` split of the local work;
  /// false when there was nothing to split.
  bool serve(const sim::Message& m, double fraction);

  /// DS: detaches once passive with a zero deficit, signalling the parent
  /// or, at the initiator, declaring termination. A no-op under faults,
  /// where the initiator's poll decides.
  void maybe_detach();
  /// One lease tick of the initiator's poll (timer kTermPollTimer).
  void on_poll_tick();

  /// Stops here and broadcasts kTerminate to the protocol's audience. The
  /// initiator stamps done_time_ before it calls this.
  virtual void declare_termination() = 0;

  void on_peer_down(int peer) override;

  sim::Message make_msg(int type, std::int64_t b = 0, std::int64_t c = 0) const {
    return sim::Message(type, bound_, b, c);
  }

  bool request_outstanding_ = false;
  std::int64_t request_seq_ = 0;  ///< generation of the request timeout timer

 private:
  void on_work(sim::Message m);
  /// A poll round completed: applies the counter rule to it.
  void conclude_poll();

  bool fault_tolerant_;
  sim::Time request_timeout_;
  sim::Time lease_interval_;
  DsTermination ds_;
  int request_target_ = -1;
  int crash_epoch_ = 0;
  std::vector<char> peer_down_;
  // Work transfers sent and received: pure counters, read by the poll and
  // by the state tap.
  std::uint64_t work_sent_ = 0;
  std::uint64_t work_recv_ = 0;
  TermPoll poll_;               ///< initiator only
  StableCounters poll_rule_;    ///< initiator only
};

}  // namespace olb::lb
