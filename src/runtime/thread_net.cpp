#include "runtime/thread_net.hpp"

#include <algorithm>

#include "metrics/hub.hpp"
#include "support/check.hpp"

namespace olb::runtime {

int ThreadNet::add_actor(std::unique_ptr<sim::Actor> actor) {
  OLB_CHECK_MSG(!running_, "actors must be added before run()");
  const int id = num_actors();
  peers_.push_back(std::make_unique<Peer>(Host(std::move(actor), *this, id, seed_)));
  return id;
}

sim::Time ThreadNet::transport_now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ThreadNet::transport_send(sim::Actor& from, int dst, sim::Message m) {
  // Traced before the mailbox push: the delivery emit happens-after the
  // take, which happens-after this push, so the locked sink records every
  // send ahead of its delivery — the stream order the oracles rely on.
  host(from).count_send(m, dst);
  const bool woke =
      peers_[static_cast<std::size_t>(dst)]->mailbox.push(std::move(m));
  metrics::inc(nm_.sends);
  metrics::inc(woke ? nm_.wakes : nm_.wakes_skipped);
}

void ThreadNet::wake_all_peers() {
  for (auto& p : peers_) p->mailbox.wake();
}

void ThreadNet::peer_loop(Peer& peer, const ExitPredicate& exit_when,
                          std::chrono::steady_clock::time_point deadline) {
  Host& host = peer.host;
  host.start();
  const int total = num_actors();
  bool counted = false;
  const auto stop = [&] {
    return peers_done_.load(std::memory_order_acquire) == total;
  };
  // Counts this actor as done the first time the exit predicate holds, and
  // returns true once EVERY actor is done. The peer must not stop at its
  // own actor's termination: simulator actors stay addressable for the
  // whole run, and the protocols rely on it — a terminated overlay root
  // answers stragglers (a join request or leave handover that raced the
  // termination broadcast) from its terminated state. A peer that went
  // dark here instead would strand such a sender forever.
  auto all_done = [&] {
    if (!counted && exit_when(host.actor())) {
      counted = true;
      if (peers_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        wake_all_peers();  // everyone else is idle-sleeping; end the run now
      }
    }
    return stop();
  };
  std::vector<sim::Message> batch;
  while (!all_done()) {
    // Every message queued so far, taken in one lock round.
    peer.mailbox.take(batch);
    if (!batch.empty()) metrics::record(nm_.drain_batch, batch.size());
    const bool progress = host.step(batch);
    // Stride-throttled gauge sampling on the owner thread: no clock reads,
    // no per-message cost, and the pre-sleep poll below keeps idle peers'
    // gauges current between batches.
    if (metrics_hub_ != nullptr && --peer.metrics_countdown <= 0) [[unlikely]] {
      peer.metrics_countdown = kMetricsPollStride;
      host.poll_metrics();
    }
    if (progress) continue;
    if (std::chrono::steady_clock::now() >= deadline) return;  // watchdog
    if (metrics_hub_ != nullptr) [[unlikely]] host.poll_metrics();

    // Idle: sleep until a message arrives, the run ends, or the next timer
    // or the safety poll is due.
    const sim::Time wake_at =
        std::min(host.next_timer(), transport_now() + sim::milliseconds(10));
    peer.mailbox.sleep_until(
        std::min(start_ + std::chrono::nanoseconds(wake_at), deadline), stop);
  }
}

RunResult ThreadNet::run(const ExitPredicate& exit_when, sim::Time wall_limit) {
  OLB_CHECK_MSG(!running_, "a ThreadNet can only run once");
  OLB_CHECK(!peers_.empty());
  OLB_CHECK(wall_limit > 0);
  running_ = true;
  if (metrics_hub_ != nullptr) {
    // Single-threaded setup: arm every actor's instruments and the net's
    // own before any peer thread exists.
    metrics::Registry& r = metrics_hub_->registry();
    for (auto& p : peers_) p->host.arm_metrics(r);
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
  for (auto& p : peers_) {
    Peer* peer = p.get();
    peer->thread = std::thread(
        [this, peer, &exit_when, deadline] { peer_loop(*peer, exit_when, deadline); });
  }
  for (auto& p : peers_) p->thread.join();
  if (metrics_hub_ != nullptr) {
    // All peer threads are gone: take one last gauge sample per actor and
    // let the sampler write its final snapshot.
    for (auto& p : peers_) p->host.poll_metrics();
    metrics_hub_->stop_sampler();
  }

  RunResult result;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start_)
          .count();
  result.completed = true;
  for (auto& p : peers_) {
    if (!exit_when(p->host.actor())) result.completed = false;
  }
  // Messages still queued at exit are control chatter that raced the
  // termination wave (e.g. a bridge request to an already-finished peer).
  // None of them may carry work — lost payloads would mean an unexplored
  // part of the problem.
  std::vector<sim::Message> leftover;
  for (auto& p : peers_) {
    p->mailbox.take(leftover);
    for (const sim::Message& m : leftover) {
      OLB_CHECK_MSG(m.payload == nullptr,
                    "undelivered work transfer after termination");
    }
  }
  return result;
}

sim::Tally ThreadNet::tally() const {
  sim::Tally total;
  for (const auto& p : peers_) total.merge(p->host.tally());
  return total;
}

}  // namespace olb::runtime
