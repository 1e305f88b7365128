#include "runtime/runtime.hpp"

#include <memory>
#include <vector>

#include "lb/messages.hpp"
#include "runtime/thread_net.hpp"
#include "support/check.hpp"

namespace olb::runtime {

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
  m.sent_by_type = std::move(t.sent_by_type);
  m.best_bound = t.best_bound;
  m.ok = t.ok;
  m.final_state = std::move(t.final_state);
  return m;
}

ThreadRunMetrics thread_metrics(lb::RunMetrics folded, double wall_seconds) {
  ThreadRunMetrics m;
  m.wall_seconds = wall_seconds;
  m.done_seconds = folded.exec_seconds;
  m.total_units = folded.total_units;
  m.best_bound = folded.best_bound;
  m.total_messages = folded.total_messages;
  m.work_requests = folded.work_requests;
  m.work_transfers = folded.work_transfers;
  m.sent_by_type = std::move(folded.sent_by_type);
  m.ok = folded.ok;
  m.final_state = std::move(folded.final_state);
  return m;
}

ThreadRunMetrics run_threads(lb::Workload& workload, const lb::RunConfig& config) {
  return run_threads(lb::build_cluster(workload, config), config);
}

ThreadRunMetrics run_threads(std::vector<std::unique_ptr<lb::PeerBase>> peers,
                             const lb::RunConfig& config,
                             const std::function<void()>& harvest) {
  lb::require_supported(config, lb::Backend::kThreads);
  OLB_CHECK(static_cast<int>(peers.size()) >= config.num_peers);

  ThreadNet net(config.seed);
  net.set_tracer(config.tracer);
  if (config.metrics != nullptr) net.set_metrics(config.metrics);
  std::vector<const lb::PeerBase*> hosted;
  for (std::unique_ptr<lb::PeerBase>& peer : std::vector(std::move(peers))) {
    hosted.push_back(peer.get());
    net.add_actor(std::move(peer));
  }

  const auto result = net.run(
      [](const sim::Actor& a) {
        return static_cast<const lb::PeerBase&>(a).saw_terminate();
      },
      config.limits.time_limit);

  ThreadRunMetrics metrics = thread_metrics(
      lb::fold_reports(
          config.num_peers,
          [&](int i) { return hosted[static_cast<std::size_t>(i)]->report(); },
          net.tally()),
      result.wall_seconds);
  metrics.ok = metrics.ok && result.completed;
  if (harvest) harvest();
  return metrics;
}

}  // namespace olb::runtime
