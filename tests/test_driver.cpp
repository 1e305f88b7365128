// Tests for the experiment driver: configuration helpers, the one list of
// runnable configs, metric consistency, and the two-cluster network path
// used past 800 peers.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "bb/bb_work.hpp"
#include "lb/driver.hpp"
#include "metrics/hub.hpp"
#include "trace/trace.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

TEST(Driver, StrategyNames) {
  EXPECT_STREQ(lb::strategy_name(lb::Strategy::kOverlayTD), "TD");
  EXPECT_STREQ(lb::strategy_name(lb::Strategy::kOverlayTR), "TR");
  EXPECT_STREQ(lb::strategy_name(lb::Strategy::kOverlayBTD), "BTD");
  EXPECT_STREQ(lb::strategy_name(lb::Strategy::kRWS), "RWS");
  EXPECT_STREQ(lb::strategy_name(lb::Strategy::kMW), "MW");
  EXPECT_STREQ(lb::strategy_name(lb::Strategy::kAHMW), "AHMW");
}

TEST(Driver, UnsupportedReasonNamesEachRule) {
  trace::VectorTracer tracer;
  metrics::MetricsHub::Options hub_options;
  hub_options.path = "never-written.prom";  // Prometheus hubs write on flush
  metrics::MetricsHub hub(hub_options);

  // The default config runs on every backend; sockets also need their
  // bring-up, a rank and an address table of num_peers entries.
  lb::RunConfig sim;
  lb::RunConfig threads = sim;
  threads.backend = lb::Backend::kThreads;
  lb::RunConfig sockets = sim;
  sockets.backend = lb::Backend::kSockets;
  sockets.sockets.rank = 0;
  sockets.sockets.peers.assign(static_cast<std::size_t>(sim.num_peers), "127.0.0.1:1");
  for (const lb::RunConfig* config : {&sim, &threads, &sockets}) {
    EXPECT_EQ(lb::unsupported_reason(*config), "") << lb::backend_name(config->backend);
  }

  // Churn plans over the default 100 peers: 99 start in, peer 99 joins.
  const auto join = [](int peer, int ms) {
    return lb::ChurnEvent{sim::milliseconds(ms), peer, true};
  };
  const auto leave = [](int peer, int ms) {
    return lb::ChurnEvent{sim::milliseconds(ms), peer, false};
  };
  const auto churn = [](int initial, std::vector<lb::ChurnEvent> events) {
    return [initial, events](lb::RunConfig& c) {
      c.churn.initial_peers = initial;
      c.churn.events = events;
    };
  };
  const auto crash = [](lb::Strategy s, int peer) {
    return [s, peer](lb::RunConfig& c) {
      c.strategy = s;
      c.faults.add_crash(peer, sim::milliseconds(1));
    };
  };
  const auto sharded = [](std::function<void(lb::RunConfig&)> feature) {
    return [feature](lb::RunConfig& c) {
      c.sim_shards = 2;
      feature(c);
    };
  };
  const auto trace = [&](lb::RunConfig& c) { c.tracer = &tracer; };
  const auto meter = [&](lb::RunConfig& c) { c.metrics = &hub; };
  const auto drop = [](lb::RunConfig& c) { c.faults.link.drop_prob = 0.1; };
  const auto lose_work = [](lb::RunConfig& c) {
    c.plant.kind = lb::PlantedBug::Kind::kLostWork;
  };
  const struct {
    const char* phrase;
    const lb::RunConfig& base;
    std::function<void(lb::RunConfig&)> edit;
  } rows[] = {
      // Size and strategy.
      {"at least one peer", sim, [](lb::RunConfig& c) { c.num_peers = 0; }},
      {"MW needs a master and at least one worker", sim,
       [](lb::RunConfig& c) {
         c.strategy = lb::Strategy::kMW;
         c.num_peers = 1;
       }},
      {"dmax must be at least 1", sim, [](lb::RunConfig& c) { c.dmax = 0; }},
      // Crash victims, one per-peer rule per strategy.
      {"MW needs at least one surviving worker", sim,
       [](lb::RunConfig& c) {
         c.strategy = lb::Strategy::kMW;
         c.num_peers = 3;
         c.faults.add_crash(1, sim::milliseconds(1)).add_crash(2, sim::milliseconds(1));
       }},
      {"the overlay root (peer 0) cannot crash", sim, crash(lb::Strategy::kOverlayTR, 0)},
      {"the RWS initiator cannot crash", sim,
       crash(lb::Strategy::kRWS, lb::rws_initiator(sim.seed, sim.num_peers))},
      {"the MW master (peer 0) cannot crash", sim, crash(lb::Strategy::kMW, 0)},
      {"AHMW only tolerates leaf crashes", sim, crash(lb::Strategy::kAHMW, 1)},
      // The churn plan, and churn with faults.
      {"elastic membership requires an overlay strategy", sim,
       [&](lb::RunConfig& c) {
         c.strategy = lb::Strategy::kRWS;
         churn(99, {join(99, 1)})(c);
       }},
      {"churn and fault injection are mutually exclusive", sim,
       [&](lb::RunConfig& c) {
         drop(c);
         churn(99, {join(99, 1)})(c);
       }},
      {"churn.initial_peers must be in [1, num_peers]", sim, churn(101, {})},
      {"out-of-range peer", sim, churn(99, {join(99, 1), leave(100, 2)})},
      {"times must be non-negative", sim, churn(99, {join(99, -1)})},
      {"at most one join per peer", sim, churn(99, {join(99, 1), join(99, 2)})},
      {"at most one leave per peer", sim,
       churn(99, {join(99, 1), leave(5, 2), leave(5, 3)})},
      {"join events are for dormant peers", sim, churn(99, {join(99, 1), join(5, 2)})},
      {"every dormant peer needs a scheduled join", sim, churn(98, {join(99, 1)})},
      {"the overlay root (peer 0) cannot leave", sim,
       churn(99, {join(99, 1), leave(0, 2)})},
      {"a dormant peer's leave must follow its join", sim,
       churn(99, {join(99, 5), leave(99, 2)})},
      // The real-time backends.
      {"fault injection is a simulator concept", threads, drop},
      {"speed scaling is a simulator concept", threads,
       [](lb::RunConfig& c) { c.het.fraction = 0.5; }},
      {"the lost-work plant drops messages", sockets, lose_work},
      // Sockets.
      {"not in-process sinks", sockets, trace},
      {"not in-process sinks", sockets, meter},
      {"needs --rank and a peer address table", sockets,
       [](lb::RunConfig& c) { c.sockets.rank = -1; }},
      {"address table size must equal --peers", sockets,
       [](lb::RunConfig& c) { c.sockets.peers.pop_back(); }},
      {"--rank must be below --peers", sockets,
       [](lb::RunConfig& c) { c.sockets.rank = c.num_peers; }},
      // More than one simulator shard.
      {"tracing needs a single global event order", sim, sharded(trace)},
      {"live metrics needs a single global event order", sim, sharded(meter)},
      {"fault injection needs a single global event order", sim, sharded(drop)},
      {"schedule perturbation needs a single global event order", sim,
       sharded([](lb::RunConfig& c) { c.perturb.seed = 3; })},
      {"the lost-work bug plant needs a single global event order", sim,
       sharded(lose_work)},
  };
  for (const auto& row : rows) {
    lb::RunConfig config = row.base;
    row.edit(config);
    const std::string why = lb::unsupported_reason(config);
    EXPECT_NE(why.find(row.phrase), std::string::npos)
        << "want '" << row.phrase << "', got '" << why << "'";
  }
}

TEST(Driver, PaperNetworkSplitsAt800) {
  EXPECT_EQ(lb::paper_network(100).cluster_capacity, 0);
  EXPECT_EQ(lb::paper_network(799).cluster_capacity, 0);
  EXPECT_EQ(lb::paper_network(800).cluster_capacity, 736);
  EXPECT_EQ(lb::paper_network(1000).cluster_capacity, 736);
}

uts::Params small_uts() {
  uts::Params p;
  p.hash = uts::HashMode::kFast;
  p.b0 = 200;
  p.q = 0.47;
  p.m = 2;
  p.root_seed = 77;
  return p;
}

TEST(Driver, MetricsAreInternallyConsistent) {
  uts::UtsWorkload workload(small_uts(), uts::CostModel{});
  lb::RunConfig config;
  config.strategy = lb::Strategy::kOverlayBTD;
  config.num_peers = 20;
  config.net = lb::paper_network(20);
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok);

  // Per-peer message counts sum to the total.
  ASSERT_EQ(metrics.msgs_per_peer.size(), 20u);
  const auto sum = std::accumulate(metrics.msgs_per_peer.begin(),
                                   metrics.msgs_per_peer.end(), std::uint64_t{0});
  EXPECT_EQ(sum, metrics.total_messages);

  // Per-type counts sum to the total as well.
  const auto type_sum = std::accumulate(metrics.sent_by_type.begin(),
                                        metrics.sent_by_type.end(), std::uint64_t{0});
  EXPECT_EQ(type_sum, metrics.total_messages);

  // The detection time cannot precede the last completed chunk.
  EXPECT_GE(metrics.exec_seconds, metrics.last_compute_seconds);

  // Utilisation integrates to the total compute time = seq time.
  const auto seq = lb::run_sequential(workload);
  double busy_seconds = 0;
  for (double u : metrics.utilization) busy_seconds += u * 20 * 1e-3;  // 1ms buckets
  EXPECT_NEAR(busy_seconds, seq.exec_seconds, seq.exec_seconds * 0.02 + 1e-3);
}

TEST(Driver, ParallelEfficiencyFormula) {
  lb::RunMetrics metrics;
  metrics.exec_seconds = 2.0;
  EXPECT_DOUBLE_EQ(metrics.parallel_efficiency(16.0, 4), 2.0);  // super-linear ok
  EXPECT_DOUBLE_EQ(metrics.parallel_efficiency(8.0, 4), 1.0);
}

TEST(Driver, TwoClusterScaleCompletes) {
  // n >= 800 exercises the inter-cluster latency path of the paper layout.
  uts::UtsWorkload workload(small_uts(), uts::CostModel{});
  lb::RunConfig config;
  config.strategy = lb::Strategy::kOverlayBTD;
  config.num_peers = 820;
  config.net = lb::paper_network(820);
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, uts::count_tree(small_uts()).nodes);
}

TEST(Driver, WatchdogReportsNotOk) {
  uts::UtsWorkload workload(small_uts(), uts::CostModel{});
  lb::RunConfig config;
  config.strategy = lb::Strategy::kOverlayTD;
  config.num_peers = 16;
  config.net = lb::paper_network(16);
  config.limits.event_limit = 50;  // guaranteed to trip
  const auto metrics = lb::run_distributed(workload, config);
  EXPECT_FALSE(metrics.ok);
}

TEST(Driver, SequentialRunnerCountsCosts) {
  uts::CostModel costs;
  costs.per_node = sim::microseconds(2);
  costs.per_child = 0;
  uts::UtsWorkload workload(small_uts(), costs);
  const auto seq = lb::run_sequential(workload);
  EXPECT_EQ(seq.units, uts::count_tree(small_uts()).nodes);
  EXPECT_NEAR(seq.exec_seconds, static_cast<double>(seq.units) * 2e-6, 1e-9);
}

TEST(Driver, MwUsesDedicatedMaster) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 9, 5);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  lb::RunConfig config;
  config.strategy = lb::Strategy::kMW;
  config.num_peers = 10;
  config.net = lb::paper_network(10);
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok);
  // Peer 0 (the master) performs no application work.
  EXPECT_EQ(metrics.msgs_per_peer.size(), 10u);
  EXPECT_GT(metrics.total_units, 0u);
}

}  // namespace
}  // namespace olb
