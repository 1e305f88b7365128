#include "lb/driver.hpp"

#include <algorithm>
#include <cctype>
#include <memory>

#include "lb/ahmw.hpp"
#include "lb/interval_work.hpp"
#include "lb/messages.hpp"
#include "lb/mw.hpp"
#include "lb/rws.hpp"
#include "simnet/engine.hpp"
#include "simnet/sharded_engine.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/export.hpp"

namespace olb::lb {

namespace {

bool equals_icase(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
    return std::tolower(static_cast<unsigned char>(x)) ==
           std::tolower(static_cast<unsigned char>(y));
  });
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kOverlayTD: return "TD";
    case Strategy::kOverlayTR: return "TR";
    case Strategy::kOverlayBTD: return "BTD";
    case Strategy::kRWS: return "RWS";
    case Strategy::kMW: return "MW";
    case Strategy::kAHMW: return "AHMW";
  }
  return "?";
}

bool strategy_is_overlay(Strategy s) {
  return s == Strategy::kOverlayTD || s == Strategy::kOverlayTR ||
         s == Strategy::kOverlayBTD;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kThreads: return "threads";
    case Backend::kSockets: return "sockets";
  }
  return "?";
}

bool backend_from_name(std::string_view name, Backend* out) {
  for (Backend b : {Backend::kSim, Backend::kThreads, Backend::kSockets}) {
    if (equals_icase(name, backend_name(b))) {
      *out = b;
      return true;
    }
  }
  return false;
}

const std::vector<Strategy>& all_strategies() {
  static const std::vector<Strategy> kAll = {
      Strategy::kOverlayTD, Strategy::kOverlayTR, Strategy::kOverlayBTD,
      Strategy::kRWS,       Strategy::kMW,        Strategy::kAHMW,
  };
  return kAll;
}

bool strategy_from_name(std::string_view name, Strategy* out) {
  for (Strategy s : all_strategies()) {
    if (equals_icase(name, strategy_name(s))) {
      *out = s;
      return true;
    }
  }
  return false;
}

std::string strategy_names() {
  std::string names;
  for (Strategy s : all_strategies()) {
    if (!names.empty()) names += '|';
    names += strategy_name(s);
  }
  return names;
}

int rws_initiator(std::uint64_t seed, int num_peers) {
  return static_cast<int>(mix64(seed ^ 0x7277u) %
                          static_cast<std::uint64_t>(num_peers));
}

std::string_view crash_refusal(const RunConfig& config, int peer) {
  switch (config.strategy) {
    case Strategy::kOverlayTD:
    case Strategy::kOverlayTR:
    case Strategy::kOverlayBTD:
      return peer == 0 ? "the overlay root (peer 0) cannot crash" : "";
    case Strategy::kRWS:
      return peer == rws_initiator(config.seed, config.num_peers)
                 ? "the RWS initiator cannot crash (see rws_initiator())"
                 : "";
    case Strategy::kMW:
      return peer == 0 ? "the MW master (peer 0) cannot crash" : "";
    case Strategy::kAHMW:
      // Peer p of the dmax-ary hierarchy has children from p * dmax + 1 on.
      return peer == 0 || std::int64_t{peer} * config.dmax + 1 < config.num_peers
                 ? "AHMW only tolerates leaf crashes"
                 : "";
  }
  return "";
}

std::string unsupported_reason(const RunConfig& config) {
  const int n = config.num_peers;
  if (n < 1) return "a run needs at least one peer";
  if (config.strategy == Strategy::kMW && n < 2) {
    return "MW needs a master and at least one worker";
  }
  if (config.dmax < 1) return "dmax must be at least 1";

  const std::vector<sim::CrashEvent>& crashes = config.faults.crashes;
  if (config.strategy == Strategy::kMW && static_cast<int>(crashes.size()) > n - 2) {
    return "MW needs at least one surviving worker";
  }
  for (const sim::CrashEvent& c : crashes) {
    if (const std::string_view why = crash_refusal(config, c.peer); !why.empty()) {
      return std::string(why);
    }
  }

  if (const ChurnPlan& plan = config.churn; plan.enabled()) {
    if (!strategy_is_overlay(config.strategy)) {
      return "elastic membership requires an overlay strategy (TD/TR/BTD)";
    }
    if (config.faults.enabled()) {
      return "churn and fault injection are mutually exclusive";
    }
    if (plan.initial_peers < 1 || plan.initial_peers > n) {
      return "churn.initial_peers must be in [1, num_peers]";
    }
    std::vector<sim::Time> join_at(static_cast<std::size_t>(n), -1);
    std::vector<sim::Time> leave_at(static_cast<std::size_t>(n), -1);
    for (const ChurnEvent& e : plan.events) {
      if (e.peer < 0 || e.peer >= n) return "churn event names an out-of-range peer";
      if (e.time < 0) return "churn event times must be non-negative";
      sim::Time& at = (e.join ? join_at : leave_at)[static_cast<std::size_t>(e.peer)];
      if (at >= 0) return e.join ? "at most one join per peer" : "at most one leave per peer";
      at = e.time;
    }
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const bool dormant = i >= plan.initial_peers;
      if (!dormant && join_at[idx] >= 0) {
        return "join events are for dormant peers (id >= initial_peers)";
      }
      // A dormant peer with no scheduled join would never activate and never
      // hear the termination broadcast — the run could not complete.
      if (dormant && join_at[idx] < 0) return "every dormant peer needs a scheduled join";
      if (leave_at[idx] < 0) continue;
      if (i == 0) return "the overlay root (peer 0) cannot leave";
      if (dormant && leave_at[idx] <= join_at[idx]) {
        return "a dormant peer's leave must follow its join";
      }
    }
  }

  if (config.backend != Backend::kSim) {
    // The real-time backends have no simulator to model faults, per-peer
    // speed or a lossy network.
    if (config.faults.enabled()) return "fault injection is a simulator concept";
    if (config.het.fraction != 0.0) return "speed scaling is a simulator concept";
    if (config.plant.kind == PlantedBug::Kind::kLostWork) {
      return "the lost-work plant drops messages in the simulated network";
    }
    if (config.sim_shards >= 2) return "simulator shards are a simulator concept";
  }
  if (config.backend == Backend::kSockets) {
    if (config.tracer != nullptr || config.metrics != nullptr) {
      return "socket runs trace via --socket-trace, not in-process sinks";
    }
    if (!config.sockets.configured()) return "needs --rank and a peer address table";
    if (static_cast<int>(config.sockets.peers.size()) != n) {
      return "address table size must equal --peers";
    }
    if (config.sockets.rank >= n) return "--rank must be below --peers";
  }
  if (config.backend == Backend::kSim && config.sim_shards >= 2) {
    const char* single_order = config.tracer != nullptr    ? "tracing"
                               : config.metrics != nullptr ? "live metrics"
                               : config.faults.enabled()   ? "fault injection"
                               : config.perturb.enabled()  ? "schedule perturbation"
                               : config.plant.kind == PlantedBug::Kind::kLostWork
                                   ? "the lost-work bug plant"
                                   : nullptr;
    if (single_order != nullptr) {
      return std::string(single_order) +
             " needs a single global event order: run it on one simulator shard";
    }
  }
  return "";
}

void require_supported(const RunConfig& config, Backend runner) {
  OLB_CHECK_MSG(config.backend == runner,
                "each runner takes configs of its own backend; runtime::run "
                "dispatches on config.backend");
  const std::string why = unsupported_reason(config);
  OLB_CHECK_MSG(why.empty(), why.c_str());
}

ChurnPlan make_random_churn(int joins, int leaves, int num_peers,
                            sim::Time from, sim::Time to, std::uint64_t seed) {
  OLB_CHECK(joins >= 0 && leaves >= 0);
  OLB_CHECK(from >= 0 && from <= to);
  OLB_CHECK_MSG(joins < num_peers, "need at least one initial member");
  const int initial = num_peers - joins;
  OLB_CHECK_MSG(leaves < initial,
                "leavers are drawn from the initial members (never the root)");
  ChurnPlan plan;
  if (joins == 0 && leaves == 0) return plan;
  plan.initial_peers = initial;
  Xoshiro256 rng(mix64(seed ^ 0x636875726eull));
  const auto span = static_cast<std::uint64_t>(to - from) + 1;
  const auto stamp = [&] {
    return from + static_cast<sim::Time>(rng() % span);
  };
  // Dormant peers are exactly [initial, num_peers): one join each.
  for (int peer = initial; peer < num_peers; ++peer) {
    plan.events.push_back(ChurnEvent{stamp(), peer, /*join=*/true});
  }
  // Leavers are distinct initial members (never peer 0), so no leave needs
  // ordering against a join.
  std::vector<char> leaving(static_cast<std::size_t>(initial), 0);
  int placed = 0;
  while (placed < leaves) {
    const int peer =
        1 + static_cast<int>(rng() % static_cast<std::uint64_t>(initial - 1));
    if (leaving[static_cast<std::size_t>(peer)] != 0) continue;
    leaving[static_cast<std::size_t>(peer)] = 1;
    plan.events.push_back(ChurnEvent{stamp(), peer, /*join=*/false});
    ++placed;
  }
  return plan;
}

sim::NetworkConfig paper_network(int num_peers) {
  sim::NetworkConfig net;
  net.cluster_capacity = num_peers >= 800 ? 736 : 0;
  return net;
}

SequentialMetrics run_sequential(Workload& workload) {
  auto work = workload.make_root_work();
  SequentialMetrics metrics;
  sim::Time total = 0;
  while (!work->empty()) {
    const StepResult r = work->step(1 << 16);
    metrics.units += r.units_done;
    total += r.sim_cost;
    if (r.bound != kNoBound) metrics.bound = r.bound;
  }
  metrics.exec_seconds = sim::to_seconds(total);
  return metrics;
}

namespace {

/// Which payload-carrying message the lost-work plant drops.
constexpr int kLostWorkNth = 2;

/// Fault-tolerant request/lease timing, derived from the worst-case round
/// trip. The lease interval must dominate the maximum message lifetime (the
/// counter-wave argument in counter_wave.hpp); 4x RTT gives slack for the
/// serve-time between request and reply.
struct FtTiming {
  sim::Time request_timeout = 0;
  sim::Time lease_interval = 0;
};

FtTiming ft_timing(const RunConfig& config) {
  const sim::Time base = config.net.cluster_capacity > 0
                             ? config.net.inter_latency
                             : config.net.intra_latency;
  const sim::Time max_lat =
      sim::max_message_latency(base, config.net.latency_jitter, config.faults);
  const sim::Time rtt = 2 * (max_lat + config.net.msg_handling_cost);
  FtTiming t;
  t.request_timeout = std::max<sim::Time>(sim::milliseconds(1), 4 * rtt);
  t.lease_interval = std::max<sim::Time>(sim::milliseconds(2), 4 * rtt);
  return t;
}

}  // namespace

std::vector<std::unique_ptr<PeerBase>> build_cluster(Workload& workload,
                                                     const RunConfig& config) {
  require_supported(config, config.backend);
  std::vector<std::unique_ptr<PeerBase>> peers;
  const int n = config.num_peers;
  peers.reserve(static_cast<std::size_t>(n));
  PeerConfig peer_config{config.chunk_units, config.diffuse_bounds,
                         config.min_split_amount};

  const bool ft = config.faults.enabled();
  const FtTiming timing = ft_timing(config);

  // Heterogeneity: a seeded subset of peers is slow.
  std::vector<double> speeds(static_cast<std::size_t>(n), 1.0);
  if (config.het.fraction > 0.0) {
    OLB_CHECK(config.het.slow_factor > 0.0);
    Xoshiro256 het_rng(mix64(config.seed ^ 0x6865746full));
    for (auto& s : speeds) {
      if (het_rng.uniform01() < config.het.fraction) s = config.het.slow_factor;
    }
  }
  auto weight_of = [&](int i) -> std::uint64_t {
    if (!config.het.capacity_weighted) return 1;
    // Integer capacity weights proportional to relative speed (x100).
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(speeds[static_cast<std::size_t>(i)] * 100.0));
  };
  // Appends the next peer with its speed, while it is still in cache.
  auto add = [&](std::unique_ptr<PeerBase> peer) {
    peer->set_speed(speeds[peers.size()]);
    peers.push_back(std::move(peer));
  };

  switch (config.strategy) {
    case Strategy::kOverlayTD:
    case Strategy::kOverlayTR:
    case Strategy::kOverlayBTD: {
      auto tree =
          std::make_shared<const overlay::TreeOverlay>(make_overlay_tree(config));
      auto oc = std::make_shared<const OverlayConfig>(make_overlay_config(config));
      for (int i = 0; i < n; ++i) {
        add(std::make_unique<OverlayPeer>(
            tree, oc, i == 0 ? workload.make_root_work() : nullptr, weight_of(i)));
      }
      break;
    }
    case Strategy::kRWS: {
      RwsConfig rc;
      rc.peer = peer_config;
      rc.fault_tolerant = ft;
      rc.request_timeout = timing.request_timeout;
      rc.lease_interval = timing.lease_interval;
      // The paper pushes the application to a random node for RWS.
      const int initiator = rws_initiator(config.seed, n);
      for (int i = 0; i < n; ++i) {
        add(std::make_unique<RwsPeer>(
            rc, i == initiator ? workload.make_root_work() : nullptr));
      }
      break;
    }
    case Strategy::kMW: {
      auto* factory = dynamic_cast<IntervalWorkload*>(&workload);
      OLB_CHECK_MSG(factory != nullptr, "MW requires an interval workload");
      MwConfig mc;
      mc.peer = peer_config;
      mc.checkpoint_period = config.mw_checkpoint_period;
      mc.fault_tolerant = ft;
      mc.request_timeout = timing.request_timeout;
      add(std::make_unique<MwMaster>(mc, factory));
      for (int i = 1; i < n; ++i) add(std::make_unique<MwWorker>(mc));
      break;
    }
    case Strategy::kAHMW: {
      auto* factory = dynamic_cast<IntervalWorkload*>(&workload);
      OLB_CHECK_MSG(factory != nullptr, "AHMW requires an interval workload");
      auto tree = std::make_shared<const overlay::TreeOverlay>(
          overlay::TreeOverlay::deterministic(n, config.dmax));
      AhmwConfig ac;
      ac.peer = peer_config;
      ac.decomposition_base = config.ahmw_decomposition;
      ac.total_amount = static_cast<double>(factory->interval_total());
      ac.fault_tolerant = ft;
      ac.request_timeout = timing.request_timeout;
      ac.lease_interval = timing.lease_interval;
      for (int i = 0; i < n; ++i) {
        add(std::make_unique<AhmwPeer>(
            tree, ac, i == 0 ? workload.make_root_work() : nullptr));
      }
      break;
    }
  }
  return peers;
}

RunMetrics fold_reports(int n, const std::function<PeerReport(int)>& report,
                        const sim::Tally& tally) {
  RunMetrics metrics;
  metrics.final_state.reserve(static_cast<std::size_t>(n));
  sim::Time done_time = -1;
  bool all_done = true;
  for (int i = 0; i < n; ++i) {
    const PeerReport r = report(i);
    metrics.total_units += r.tap.units_done;
    metrics.best_bound = std::min(metrics.best_bound, r.best_bound);
    metrics.retries += r.retries;
    if (r.done_time >= 0) {
      OLB_CHECK_MSG(done_time < 0, "two peers declared termination");
      done_time = r.done_time;
    }
    // A crashed peer neither finishes its work nor hears kTerminate; the
    // work it held is accounted in work_lost_units instead.
    if (!r.tap.crashed && (r.tap.holds_work || !r.tap.terminated)) all_done = false;
    metrics.final_state.push_back(r.tap);
  }
  metrics.exec_seconds = sim::to_seconds(std::max<sim::Time>(done_time, 0));
  metrics.ok = all_done && done_time >= 0;

  metrics.total_messages = tally.messages;
  OLB_CHECK(tally.sent_by_type.size() <= static_cast<std::size_t>(kNumMsgTypes));
  metrics.sent_by_type = tally.sent_by_type;
  metrics.sent_by_type.resize(kNumMsgTypes, 0);
  metrics.work_requests = work_requests(metrics.sent_by_type);
  metrics.work_transfers = metrics.sent_by_type[kWork];
  metrics.last_compute_seconds = sim::to_seconds(tally.last_compute_done);
  for (sim::Time busy : tally.busy) {
    metrics.utilization.push_back(
        static_cast<double>(busy) /
        (static_cast<double>(n) * static_cast<double>(sim::Tally::kBusyBucket)));
  }
  if (tally.queue_delay_samples > 0) {
    // ns -> s, without truncating
    metrics.queueing_delay_mean = static_cast<double>(tally.queue_delay_sum) /
                                  static_cast<double>(tally.queue_delay_samples) /
                                  1e9;
  }
  metrics.queueing_delay_max = sim::to_seconds(tally.queue_delay_max);
  metrics.msgs_dropped = tally.msgs_dropped;
  metrics.msgs_duplicated = tally.msgs_duplicated;
  metrics.latency_spikes = tally.latency_spikes;
  metrics.work_bounced = tally.work_bounced;
  metrics.peers_crashed = tally.crashes;
  metrics.work_lost_units = tally.work_lost_units;
  return metrics;
}

overlay::TreeOverlay make_overlay_tree(const RunConfig& config) {
  OLB_CHECK(strategy_is_overlay(config.strategy));
  return config.strategy == Strategy::kOverlayTR
             ? overlay::TreeOverlay::randomized(config.num_peers,
                                                mix64(config.seed ^ 0x7452))
             : overlay::TreeOverlay::deterministic(config.num_peers, config.dmax);
}

OverlayConfig make_overlay_config(const RunConfig& config) {
  OLB_CHECK(strategy_is_overlay(config.strategy));
  const FtTiming timing = ft_timing(config);
  OverlayConfig oc;
  oc.peer = PeerConfig{config.chunk_units, config.diffuse_bounds,
                       config.min_split_amount};
  oc.use_bridges = config.strategy == Strategy::kOverlayBTD;
  oc.split = config.overlay.split;
  oc.fixed_units = config.overlay.split_fixed_units;
  oc.retry_delay = config.overlay.retry_delay;
  oc.bridge_patience = config.overlay.bridge_patience;
  oc.capacity_weighted = config.het.capacity_weighted;
  oc.churn = config.churn;
  oc.join_degree = std::max(1, config.dmax);
  oc.fault_tolerant = config.faults.enabled();
  oc.request_timeout = timing.request_timeout;
  oc.lease_interval = timing.lease_interval;
  // Lives here (not in run_distributed) so the plant reaches both backends.
  if (config.plant.kind == PlantedBug::Kind::kSplitBias) {
    oc.planted_split_bias = config.plant.split_bias;
  }
  return oc;
}

RunMetrics run_distributed(Workload& workload, const RunConfig& config) {
  return run_distributed(build_cluster(workload, config), config);
}

RunMetrics run_distributed(std::vector<std::unique_ptr<PeerBase>> peers,
                           const RunConfig& config,
                           const std::function<void()>& harvest) {
  require_supported(config, Backend::kSim);
  OLB_CHECK(static_cast<int>(peers.size()) >= config.num_peers);
  sim::ShardedEngine engine(config.net, config.seed, static_cast<int>(peers.size()),
                            std::max(1, config.sim_shards));
  engine.set_tracer(config.tracer);
  engine.set_metrics(config.metrics);
  // The engine owns the peers from here on; their vector (8 bytes a peer)
  // is freed before the run, not held through it.
  for (std::unique_ptr<PeerBase>& peer : std::vector(std::move(peers))) {
    engine.add_actor(std::move(peer));
  }
  if (config.faults.enabled()) engine.set_faults(config.faults);
  engine.set_perturbation(config.perturb);
  if (config.plant.kind == PlantedBug::Kind::kLostWork) {
    engine.set_planted_payload_drop(kLostWorkNth);
  }

  const auto result = engine.run(config.limits.time_limit, config.limits.event_limit);

  RunMetrics metrics = fold_reports(
      config.num_peers,
      [&](int i) { return static_cast<const PeerBase&>(engine.actor(i)).report(); },
      engine.tally());
  metrics.ok = metrics.ok && result.quiesced;
  metrics.events = result.events;
  for (int i = 0; i < config.num_peers; ++i) {
    metrics.msgs_per_peer.push_back(engine.msgs_sent(i));
  }

  if (config.tracer != nullptr) {
    const auto events = config.tracer->snapshot();
    metrics.trace_events = events.size();
    metrics.trace_dropped = config.tracer->dropped();
    const trace::Timeline tl =
        trace::derive_timeline(events, sim::Tally::kBusyBucket, kWork);
    metrics.work_in_flight = tl.work_in_flight;
    metrics.idle_peers = tl.idle_peers;
    metrics.pending_depth = tl.pending_depth;
  }
  metrics.sim_shards = engine.num_shards();
  metrics.sim_windows = engine.windows_run();
  if (harvest) harvest();
  return metrics;
}

}  // namespace olb::lb
