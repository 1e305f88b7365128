#include "runtime/thread_net.hpp"

#include <algorithm>

#include "metrics/hub.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::runtime {

int ThreadNet::add_actor(std::unique_ptr<sim::Actor> actor) {
  OLB_CHECK_MSG(!running_, "actors must be added before run()");
  const int id = static_cast<int>(hosts_.size());
  actor->transport_ = this;
  actor->id_ = id;
  // Same stream derivation as Engine::add_actor, so protocol randomness
  // (child order, bridge partners) matches across backends per (seed, id).
  actor->rng_ = Xoshiro256(mix64(seed_ + 0x9e3779b9u) ^
                           mix64(static_cast<std::uint64_t>(id)));
  auto host = std::make_unique<Host>();
  host->actor = std::move(actor);
  hosts_.push_back(std::move(host));
  return id;
}

sim::Time ThreadNet::transport_now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ThreadNet::transport_send(sim::Actor& from, int dst, sim::Message m) {
  OLB_CHECK(dst >= 0 && dst < num_actors());
  OLB_CHECK_MSG(m.type >= 0, "application message types must be >= 0");
  m.src = from.id_;
  m.dst = dst;
  Host& sender = *hosts_[static_cast<std::size_t>(from.id_)];
  // Sender-side counts are only ever touched from the sender's own thread.
  ++from.stats_.msgs_sent;
  const auto type_idx = static_cast<std::size_t>(m.type);
  if (sender.sent_by_type.size() <= type_idx) {
    sender.sent_by_type.resize(type_idx + 1, 0);
  }
  ++sender.sent_by_type[type_idx];
  const std::uint64_t msg_id =
      total_messages_.fetch_add(1, std::memory_order_relaxed) + 1;

  if (tracer_ != nullptr) [[unlikely]] {
    // Emitted *before* the mailbox push: the delivery emit happens-after the
    // take, which happens-after this push, so the (locked) sink records every
    // send ahead of its delivery — the stream order the oracles rely on.
    // Latency (b) is 0: there is no modelled network here.
    m.id = static_cast<std::uint32_t>(msg_id);
    trace::emit(tracer_, transport_now(), trace::EventKind::kMsgSend, from.id_,
                dst, m.type, static_cast<std::int64_t>(m.id), 0);
  }

  Host& to = *hosts_[static_cast<std::size_t>(dst)];
  const bool woke = to.mailbox.push(std::move(m));
  metrics::inc(nm_.sends);
  metrics::inc(woke ? nm_.wakes : nm_.wakes_skipped);
}

void ThreadNet::wake_all_hosts() {
  for (auto& h : hosts_) h->mailbox.wake();
}

void ThreadNet::transport_set_timer(sim::Actor& from, sim::Time delay,
                                    std::int64_t tag) {
  // Timers are always self-addressed, so this runs on the owner thread and
  // the heap needs no locking.
  Host& host = *hosts_[static_cast<std::size_t>(from.id_)];
  host.timers.push_back(Timer{transport_now() + delay, tag});
  std::push_heap(host.timers.begin(), host.timers.end(), std::greater<>{});
}

void ThreadNet::dispatch(Host& host, sim::Message m) {
  sim::Actor& a = *host.actor;
  ++a.stats_.msgs_received;
  // Timers stay thread-local and faults don't exist here, so the reserved
  // negative types never travel through a mailbox.
  OLB_CHECK(m.type >= 0);
  if (tracer_ != nullptr) [[unlikely]] {
    trace::emit(tracer_, transport_now(), trace::EventKind::kMsgDeliver, a.id_,
                m.src, m.type, static_cast<std::int64_t>(m.id), 0);
  }
  a.on_message(std::move(m));
}

bool ThreadNet::fire_due_timers(Host& host) {
  // No timers armed — the common case for compute-bound peers — must not
  // pay a clock read: this runs once per work chunk.
  if (host.timers.empty()) return false;
  // Snapshot the clock once: timers armed by a firing handler are measured
  // against the next poll, like the simulator's strictly-later delivery.
  const sim::Time now = transport_now();
  bool fired = false;
  while (!host.timers.empty() && host.timers.front().deadline <= now) {
    const std::int64_t tag = host.timers.front().tag;
    std::pop_heap(host.timers.begin(), host.timers.end(), std::greater<>{});
    host.timers.pop_back();
    host.actor->on_timer(tag);
    fired = true;
  }
  return fired;
}

void ThreadNet::peer_loop(Host& host,
                          const ExitPredicate& exit_when,
                          std::chrono::steady_clock::time_point deadline) {
  sim::Actor& a = *host.actor;
  a.started_ = true;
  a.on_start();
  const int total = num_actors();
  bool counted = false;
  const auto stop = [&] {
    return hosts_done_.load(std::memory_order_acquire) == total;
  };
  // Counts this actor as done the first time the exit predicate holds, and
  // returns true once EVERY actor is done. The host must not stop at its
  // own actor's termination: simulator actors stay addressable for the
  // whole run, and the protocols rely on it — a terminated overlay root
  // answers stragglers (a join request or leave handover that raced the
  // termination broadcast) from its terminated state. A host that went
  // dark here instead would strand such a sender forever.
  auto all_done = [&] {
    if (!counted && exit_when(a)) {
      counted = true;
      if (hosts_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        wake_all_hosts();  // everyone else is idle-sleeping; end the run now
      }
    }
    return stop();
  };
  std::vector<sim::Message> batch;
  while (!all_done()) {
    bool progress = false;
    // Every message queued so far, taken in one lock round.
    host.mailbox.take(batch);
    if (!batch.empty()) {
      progress = true;
      metrics::record(nm_.drain_batch, batch.size());
      for (sim::Message& msg : batch) dispatch(host, std::move(msg));
    }
    if (fire_due_timers(host)) progress = true;
    if (a.compute_pending_) {
      // The chunk's CPU time was spent inside Work::step(); the flag only
      // delayed on_compute_done until the mailbox had been drained —
      // the simulator's poll-between-chunks semantics.
      a.compute_pending_ = false;
      a.on_compute_done();
      progress = true;
    }
    // Stride-throttled gauge sampling on the owner thread: no clock reads,
    // no per-message cost, and the pre-sleep poll below keeps idle peers'
    // gauges current between batches.
    if (metrics_hub_ != nullptr && --host.metrics_countdown <= 0) [[unlikely]] {
      host.metrics_countdown = kMetricsPollStride;
      a.on_metrics_poll();
    }
    if (progress) continue;
    if (std::chrono::steady_clock::now() >= deadline) return;  // watchdog
    if (metrics_hub_ != nullptr) [[unlikely]] a.on_metrics_poll();

    // Idle: sleep until a message arrives, the run ends, or the next timer
    // or the safety poll is due.
    auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    if (!host.timers.empty()) {
      const auto timer_at =
          start_ + std::chrono::nanoseconds(host.timers.front().deadline);
      until = std::min(until, timer_at);
    }
    host.mailbox.sleep_until(std::min(until, deadline), stop);
  }
}

ThreadNet::RunResult ThreadNet::run(const ExitPredicate& exit_when,
                                    sim::Time wall_limit) {
  OLB_CHECK_MSG(!running_, "a ThreadNet can only run once");
  OLB_CHECK(!hosts_.empty());
  OLB_CHECK(wall_limit > 0);
  running_ = true;
  if (metrics_hub_ != nullptr) {
    // Single-threaded setup: arm every actor's instruments and the net's
    // own before any peer thread exists.
    metrics::Registry& r = metrics_hub_->registry();
    for (auto& host : hosts_) host->actor->on_metrics(r);
    nm_.sends = r.counter("olb_net_sends_total");
    nm_.wakes = r.counter("olb_net_wakes_total");
    nm_.wakes_skipped = r.counter("olb_net_wakes_skipped_total");
    nm_.drain_batch = r.histogram("olb_net_drain_batch");
  }
  start_ = std::chrono::steady_clock::now();
  if (metrics_hub_ != nullptr) {
    metrics_hub_->start_sampler([this] {
      return static_cast<std::uint64_t>(transport_now());
    });
  }
  const auto deadline = start_ + std::chrono::nanoseconds(wall_limit);
  for (auto& host : hosts_) {
    Host* h = host.get();
    h->thread =
        std::thread([this, h, &exit_when, deadline] { peer_loop(*h, exit_when, deadline); });
  }
  for (auto& host : hosts_) host->thread.join();
  if (metrics_hub_ != nullptr) {
    // All peer threads are gone: take one last gauge sample per actor and
    // let the sampler write its final snapshot.
    for (auto& host : hosts_) host->actor->on_metrics_poll();
    metrics_hub_->stop_sampler();
  }

  RunResult result;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start_)
          .count();
  result.completed = true;
  for (auto& host : hosts_) {
    if (!exit_when(*host->actor)) result.completed = false;
  }
  // Messages still queued at exit are control chatter that raced the
  // termination wave (e.g. a bridge request to an already-finished peer).
  // None of them may carry work — lost payloads would mean an unexplored
  // part of the problem.
  std::vector<sim::Message> leftover;
  for (auto& host : hosts_) {
    host->mailbox.take(leftover);
    for (const sim::Message& m : leftover) {
      OLB_CHECK_MSG(m.payload == nullptr,
                    "undelivered work transfer after termination");
    }
  }
  return result;
}

std::uint64_t ThreadNet::total_sent_of_type(int type) const {
  OLB_CHECK(type >= 0);
  std::uint64_t total = 0;
  const auto idx = static_cast<std::size_t>(type);
  for (const auto& host : hosts_) {
    if (idx < host->sent_by_type.size()) total += host->sent_by_type[idx];
  }
  return total;
}

}  // namespace olb::runtime
