// One actor hosted in real time: what the thread and socket backends do
// alike for each actor they run, as sim::Engine does for a simulated one.
// A Host binds the actor (sim::Actor::bind), stamps, counts (in a
// sim::Tally) and traces its sends, keeps its timers, delivers its
// messages, and runs its poll-between-chunks pass. How messages reach a
// batch (a mailbox, TCP frames), when to poll or sleep and when the run
// ends stay with the backend (runtime::ThreadNet, runtime::SocketNet).
// Every Host method runs on the actor's own thread of control.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "metrics/metrics.hpp"
#include "simnet/engine.hpp"
#include "simnet/tally.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace olb::runtime {

/// A real-time run ends once this holds for every actor it hosts (checked
/// between passes, on the actor's own thread).
using ExitPredicate = std::function<bool(const sim::Actor&)>;

/// What a real-time backend's run() reports.
struct RunResult {
  double wall_seconds = 0.0;  ///< from the run's epoch to its end
  bool completed = false;     ///< exited via the predicate, not the watchdog
};

class Host {
 public:
  /// Takes ownership of `actor` and binds it to `transport` as peer `id`.
  Host(std::unique_ptr<sim::Actor> actor, sim::Transport& transport, int id,
       std::uint64_t seed)
      : actor_(std::move(actor)) {
    actor_->bind(transport, id, seed);
  }

  const sim::Actor& actor() const { return *actor_; }

  /// Runs on_start; once, before the first step().
  void start() {
    actor_->started_ = true;
    actor_->on_start();
  }

  /// Send-side bookkeeping for one message of this actor to `dst`: fills in
  /// src, dst and an id unique in the cluster — the sender's send count
  /// interleaved over the n peer ids, so senders share no counter — counts
  /// the send, and traces it. Call before handing the message on, so that a
  /// trace records every send ahead of its delivery.
  void count_send(sim::Message& m, int dst) {
    sim::Actor& a = *actor_;
    const auto n = static_cast<std::uint64_t>(a.num_peers());
    OLB_CHECK(dst >= 0 && static_cast<std::uint64_t>(dst) < n);
    OLB_CHECK_MSG(m.type >= 0, "application message types must be >= 0");
    m.src = a.id_;
    m.dst = dst;
    // 30 bits, like every Message id: they recycle after 2^30 / n sends.
    m.id = static_cast<std::uint32_t>(
        (tally_.messages * n + static_cast<std::uint64_t>(a.id_) + 1) &
        sim::kMsgIdMask);
    tally_.count_send(m.type);
    if (trace::TraceSink* sink = a.transport_->transport_tracer();
        sink != nullptr) [[unlikely]] {
      // Latency (b) is 0: there is no modelled network here.
      trace::emit(sink, a.now(), trace::EventKind::kMsgSend, a.id_, dst,
                  m.type, static_cast<std::int64_t>(m.id), 0);
    }
  }

  /// Arms on_timer(tag) `delay` from now. Timers are always self-addressed,
  /// so the heap belongs to the actor's own thread.
  void set_timer(sim::Time delay, std::int64_t tag) {
    timers_.push_back(Timer{actor_->now() + delay, tag});
    std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
  }

  /// The earliest armed timer's deadline; kTimeMax when none is armed.
  sim::Time next_timer() const {
    return timers_.empty() ? sim::kTimeMax : timers_.front().deadline;
  }

  /// Hands `m` to on_message. The kMsgDeliver event's b is the inbox wait
  /// when the backend stamped the arrival (sockets do, when tracing) and 0
  /// otherwise. Threads never stamp: concurrent senders would take their
  /// stamps in another order than they push into the mailbox, and the
  /// inbox would read as served out of arrival order.
  void deliver(sim::Message m) {
    sim::Actor& a = *actor_;
    // Timers stay in the Host and faults exist only in the simulator, so
    // the reserved negative types never arrive here.
    OLB_CHECK(m.type >= 0);
    if (trace::TraceSink* sink = a.transport_->transport_tracer();
        sink != nullptr) [[unlikely]] {
      const sim::Time now = a.now();
      trace::emit(sink, now, trace::EventKind::kMsgDeliver, a.id_, m.src,
                  m.type, static_cast<std::int64_t>(m.id),
                  m.arrived_at < 0 ? 0 : now - m.arrived_at);
    }
    a.on_message(std::move(m));
  }

  /// One poll-between-chunks pass: delivers `batch` in order and empties
  /// it, fires the due timers in deadline order, then ends the pending
  /// compute span. The span's CPU time was spent inside Work::step(); it
  /// only held on_compute_done back until the messages that came in during
  /// it had been served — the simulator's chunk boundary. The actor's own
  /// sends must not land in `batch`. Returns whether anything ran.
  bool step(std::vector<sim::Message>& batch) {
    bool ran = !batch.empty();
    for (sim::Message& m : batch) deliver(std::move(m));
    batch.clear();
    if (fire_due_timers()) ran = true;
    sim::Actor& a = *actor_;
    if (a.compute_pending_) {
      a.compute_pending_ = false;
      a.on_compute_done();
      ran = true;
    }
    return ran;
  }

  /// Whether a compute span is pending (the actor is working).
  bool computing() const { return actor_->compute_pending_; }

  /// The actor's metrics hooks (sim::Actor::on_metrics, on_metrics_poll).
  void arm_metrics(metrics::Registry& registry) { actor_->on_metrics(registry); }
  void poll_metrics() { actor_->on_metrics_poll(); }

  /// The actor's sends, in all and by message type.
  const sim::Tally& tally() const { return tally_; }

 private:
  struct Timer {
    sim::Time deadline;
    std::int64_t tag;
    bool operator>(const Timer& o) const { return deadline > o.deadline; }
  };

  /// Fires every timer whose deadline has passed; returns whether any did.
  bool fire_due_timers() {
    // No timers armed — the common case for compute-bound peers — must not
    // pay a clock read: this runs once per work chunk.
    if (timers_.empty()) return false;
    // Snapshot the clock once: timers armed by a firing handler are measured
    // against the next pass, like the simulator's strictly-later delivery.
    const sim::Time now = actor_->now();
    bool fired = false;
    while (!timers_.empty() && timers_.front().deadline <= now) {
      const std::int64_t tag = timers_.front().tag;
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
      timers_.pop_back();
      actor_->on_timer(tag);
      fired = true;
    }
    return fired;
  }

  std::unique_ptr<sim::Actor> actor_;
  std::vector<Timer> timers_;  ///< min-heap by deadline
  sim::Tally tally_;
};

}  // namespace olb::runtime
