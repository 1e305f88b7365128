#include "runtime/runtime.hpp"

#include <algorithm>
#include <memory>

#include "lb/messages.hpp"
#include "runtime/thread_net.hpp"
#include "support/check.hpp"

namespace olb::runtime {

ThreadRunMetrics run_threads(lb::Workload& workload, const lb::RunConfig& config) {
  OLB_CHECK_MSG(lb::strategy_is_overlay(config.strategy),
                "the thread backend runs overlay strategies (TD/TR/BTD) only");
  OLB_CHECK_MSG(!config.faults.enabled(),
                "fault injection is a simulator concept");
  OLB_CHECK_MSG(config.het.fraction == 0.0,
                "speed scaling is a simulator concept");
  OLB_CHECK(config.num_peers >= 1);

  auto tree = std::make_shared<const overlay::TreeOverlay>(
      lb::make_overlay_tree(config));
  auto oc = std::make_shared<const lb::OverlayConfig>(lb::make_overlay_config(config));

  ThreadNet net(config.seed);
  // Any caller-supplied sink is wrapped for thread safety: peers emit from
  // their own threads. The wrapper also serialises each send ahead of its
  // delivery in the recorded stream (see thread_net.cpp).
  std::unique_ptr<trace::LockedSink> locked;
  if (config.tracer != nullptr) {
    locked = std::make_unique<trace::LockedSink>(config.tracer);
    net.set_tracer(locked.get());
  }
  if (config.metrics != nullptr) net.set_metrics(config.metrics);
  std::vector<lb::OverlayPeer*> peers;
  for (int i = 0; i < config.num_peers; ++i) {
    auto peer = std::make_unique<lb::OverlayPeer>(
        tree, oc, i == 0 ? workload.make_root_work() : nullptr);
    peers.push_back(peer.get());
    net.add_actor(std::move(peer));
  }

  net.transport_start();  // lifecycle contract; a no-op on this backend
  const auto result = net.run(
      [](const sim::Actor& a) {
        return static_cast<const lb::PeerBase&>(a).saw_terminate();
      },
      config.limits.time_limit);
  net.transport_shutdown();

  ThreadRunMetrics metrics;
  metrics.wall_seconds = result.wall_seconds;
  metrics.total_messages = net.total_messages();
  metrics.work_requests = net.total_sent_of_type(lb::kReqDown) +
                          net.total_sent_of_type(lb::kReqUp) +
                          net.total_sent_of_type(lb::kReqBridge);
  metrics.work_transfers = net.total_sent_of_type(lb::kWork);

  bool all_done = result.completed;
  for (lb::OverlayPeer* peer : peers) {
    metrics.total_units += peer->units_done();
    metrics.best_bound = std::min(metrics.best_bound, peer->best_bound());
    if (peer->holds_work() || !peer->saw_terminate()) all_done = false;
  }
  const sim::Time done = peers.front()->done_time();
  metrics.done_seconds = sim::to_seconds(std::max<sim::Time>(done, 0));
  metrics.ok = all_done && done >= 0;
  for (lb::OverlayPeer* peer : peers) {
    metrics.final_state.push_back(peer->state_tap());
  }
  return metrics;
}

}  // namespace olb::runtime
