#include "runtime/runtime.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "lb/messages.hpp"
#include "runtime/thread_net.hpp"
#include "support/check.hpp"

namespace olb::runtime {

std::string unsupported_reason(lb::Backend backend, const lb::RunConfig& config) {
  if (backend == lb::Backend::kSim) return "";
  // The real-time backends run the overlay protocol objects directly and
  // have no simulator to model faults, per-peer speed or a lossy network.
  if (!lb::strategy_is_overlay(config.strategy)) {
    return "only overlay strategies (TD/TR/BTD)";
  }
  if (config.faults.enabled()) return "fault injection is a simulator concept";
  if (config.het.fraction != 0.0) return "speed scaling is a simulator concept";
  if (config.plant.kind == lb::PlantedBug::Kind::kLostWork) {
    return "the lost-work plant drops messages in the simulated network";
  }
  if (backend == lb::Backend::kThreads) return "";
  if (config.tracer != nullptr || config.metrics != nullptr) {
    return "socket runs trace via --socket-trace, not in-process sinks";
  }
  if (!config.sockets.configured()) return "needs --rank and a peer address table";
  if (static_cast<int>(config.sockets.peers.size()) != config.num_peers) {
    return "address table size must equal --peers";
  }
  return "";
}

lb::RunMetrics run(lb::Workload& workload, const lb::RunConfig& config) {
  if (config.backend == lb::Backend::kSim) {
    return lb::run_distributed(workload, config);
  }
  ThreadRunMetrics t = config.backend == lb::Backend::kThreads
                                 ? run_threads(workload, config)
                                 : run_sockets(workload, config);
  lb::RunMetrics m;
  m.exec_seconds = t.done_seconds;
  m.last_compute_seconds = t.done_seconds;
  m.total_units = t.total_units;
  m.total_messages = t.total_messages;
  m.work_requests = t.work_requests;
  m.work_transfers = t.work_transfers;
  m.best_bound = t.best_bound;
  m.ok = t.ok;
  m.final_state = std::move(t.final_state);
  return m;
}

ThreadRunMetrics run_threads(lb::Workload& workload, const lb::RunConfig& config) {
  const std::string why = unsupported_reason(lb::Backend::kThreads, config);
  OLB_CHECK_MSG(why.empty(), why.c_str());
  OLB_CHECK(config.num_peers >= 1);

  auto tree = std::make_shared<const overlay::TreeOverlay>(
      lb::make_overlay_tree(config));
  auto oc = std::make_shared<const lb::OverlayConfig>(lb::make_overlay_config(config));

  ThreadNet net(config.seed);
  net.set_tracer(config.tracer);
  if (config.metrics != nullptr) net.set_metrics(config.metrics);
  std::vector<lb::OverlayPeer*> peers;
  for (int i = 0; i < config.num_peers; ++i) {
    auto peer = std::make_unique<lb::OverlayPeer>(
        tree, oc, i == 0 ? workload.make_root_work() : nullptr);
    peers.push_back(peer.get());
    net.add_actor(std::move(peer));
  }

  const auto result = net.run(
      [](const sim::Actor& a) {
        return static_cast<const lb::PeerBase&>(a).saw_terminate();
      },
      config.limits.time_limit);

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
