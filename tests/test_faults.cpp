// Property tests for the fault-injection layer and the protocols'
// degraded-mode guarantees, swept over (fault pattern x seed) — well over
// fifty distinct combinations across the suite.
//
// The two load-bearing properties, checked on every swept run:
//
//  * no hang: `metrics.ok` under a tight event-limit watchdog, so a
//    protocol that stops making progress fails the test instead of
//    stalling ctest;
//  * no premature termination: UTS node counts are a run invariant, so
//    whenever no in-flight work was destroyed (work_lost_units == 0) the
//    run must explore *exactly* the sequential count — terminating early
//    with work still in the system would show up as a shortfall here.
#include <gtest/gtest.h>

#include <sstream>

#include "bb/bb_work.hpp"
#include "bb/interval_bb.hpp"
#include "lb/driver.hpp"
#include "lb/messages.hpp"
#include "overlay/tree_overlay.hpp"
#include "simnet/faults.hpp"
#include "test_util.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

uts::Params small_uts(std::uint32_t root_seed) {
  return test_util::uts_params(root_seed, /*b0=*/200, /*q=*/0.47);
}

lb::RunConfig faulty_config(lb::Strategy s, int n, std::uint64_t seed) {
  // Watchdog: a protocol that loops on retries instead of terminating must
  // fail fast, not burn the default 400M-event budget.
  return test_util::base_config(s, n, /*dmax=*/10, seed,
                                /*event_limit=*/30'000'000);
}

/// The suite's canonical faulty UTS run: instance 91 under `config`, with
/// the shared no-hang / no-premature-termination property check.
lb::RunMetrics check_uts_run(const lb::RunConfig& config) {
  return test_util::check_uts_run(config, small_uts(91));
}

// --- link faults only: nothing may be lost, counts must stay exact -------

TEST(Faults, UtsExactUnderLinkFaults) {
  for (auto s : {lb::Strategy::kOverlayBTD, lb::Strategy::kOverlayTD,
                 lb::Strategy::kRWS}) {
    for (double drop : {0.02, 0.1, 0.2}) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {  // 27 combos
        auto config = faulty_config(s, 12, seed);
        config.faults.link.drop_prob = drop;
        config.faults.link.dup_prob = drop / 2;
        config.faults.link.spike_prob = drop / 2;
        const auto m = check_uts_run(config);
        EXPECT_EQ(m.work_lost_units, 0.0);  // only crashes destroy work
        EXPECT_EQ(m.peers_crashed, 0u);
        if (drop > 0.0) {
          EXPECT_GT(m.msgs_dropped, 0u);
        }
      }
    }
  }
}

TEST(Faults, TerminationWavesRideTheReliableChannel) {
  // The overlay flags kProbe and kProbeAck reliable (DESIGN.md §5c): link
  // faults drop control messages all around the waves but never a wave,
  // and with one crash every wave that meets the victim bounces home.
  auto config = faulty_config(lb::Strategy::kOverlayBTD, 12, 5);
  config.faults.link.drop_prob = 0.1;
  config.faults.add_crash(7, sim::milliseconds(2));
  trace::VectorTracer tracer;
  config.tracer = &tracer;
  const auto m = check_uts_run(config);
  EXPECT_EQ(m.peers_crashed, 1u);
  std::uint64_t wave_sends = 0, drops = 0;
  for (const trace::TraceEvent& e : tracer.snapshot()) {
    const bool wave = e.type == lb::kProbe || e.type == lb::kProbeAck;
    if (e.kind == trace::EventKind::kMsgSend && wave) ++wave_sends;
    if (e.kind == trace::EventKind::kMsgDrop) {
      ++drops;
      EXPECT_FALSE(wave) << lb::msg_type_name(e.type) << " id " << e.a
                         << " dropped at t=" << e.time;
    }
  }
  EXPECT_GT(wave_sends, 0u);
  EXPECT_GT(drops, 0u);
}

// --- crashes (plus background message loss) ------------------------------

TEST(Faults, UtsOverlaySurvivesCrashes) {
  for (auto s : {lb::Strategy::kOverlayBTD, lb::Strategy::kOverlayTD}) {
    for (int crashes : {1, 2, 3}) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {  // 18 combos
        auto config = faulty_config(s, 16, seed);
        config.faults = sim::make_random_crashes(
            crashes, 16, sim::microseconds(500), sim::milliseconds(4), seed);
        config.faults.link.drop_prob = 0.05;
        config.faults.link.dup_prob = 0.02;
        const auto m = check_uts_run(config);
        EXPECT_EQ(m.peers_crashed, static_cast<std::uint64_t>(crashes));
      }
    }
  }
}

TEST(Faults, UtsRwsSurvivesCrashes) {
  for (int crashes : {1, 2}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {  // 6 combos
      auto config = faulty_config(lb::Strategy::kRWS, 16, seed);
      const int initiator = lb::rws_initiator(seed, 16);
      // The termination initiator must survive; redraw until it does.
      for (std::uint64_t attempt = 0;; ++attempt) {
        auto plan = sim::make_random_crashes(crashes, 16, sim::microseconds(500),
                                             sim::milliseconds(4),
                                             seed ^ (attempt << 32));
        bool ok = true;
        for (const auto& c : plan.crashes) ok = ok && c.peer != initiator;
        if (ok) {
          config.faults = plan;
          break;
        }
      }
      config.faults.link.drop_prob = 0.05;
      const auto m = check_uts_run(config);
      EXPECT_EQ(m.peers_crashed, static_cast<std::uint64_t>(crashes));
    }
  }
}

// --- B&B optima ----------------------------------------------------------

TEST(Faults, MwOptimumExactUnderCrashes) {
  // MW reclaims a crashed worker's whole interval, so the proved optimum
  // stays exact no matter which workers die.
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(4, 9, 5);
  const auto ref = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  for (int crashes : {1, 2}) {
    for (std::uint64_t seed : {1u, 2u}) {  // 4 combos
      bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
      auto config = faulty_config(lb::Strategy::kMW, 16, seed);
      config.faults = sim::make_random_crashes(
          crashes, 16, sim::microseconds(500), sim::milliseconds(4), seed);
      config.faults.link.drop_prob = 0.05;
      const auto m = lb::run_distributed(workload, config);
      ASSERT_TRUE(m.ok);
      EXPECT_EQ(m.best_bound, ref.optimum);
      EXPECT_EQ(m.peers_crashed, static_cast<std::uint64_t>(crashes));
    }
  }
}

TEST(Faults, AhmwSurvivesLeafCrashes) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(4, 9, 5);
  const auto ref = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  for (int crashes : {1, 2}) {
    for (std::uint64_t seed : {1u, 2u}) {  // 4 combos
      bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
      auto config = faulty_config(lb::Strategy::kAHMW, 16, seed);
      const auto tree = overlay::TreeOverlay::deterministic(16, config.dmax);
      int added = 0;
      for (int p = 15; p >= 1 && added < crashes; --p) {
        if (!tree.children(p).empty()) continue;  // AHMW tolerates leaf crashes
        config.faults.add_crash(p, sim::milliseconds(1 + added));
        ++added;
      }
      ASSERT_EQ(added, crashes);
      config.faults.link.drop_prob = 0.05;
      const auto m = lb::run_distributed(workload, config);
      ASSERT_TRUE(m.ok);
      // A leaf's in-flight subproblems may be destroyed with it, so the
      // proved bound can only be pessimistic, never better than optimal.
      EXPECT_GE(m.best_bound, ref.optimum);
      if (m.work_lost_units == 0.0) {
        EXPECT_EQ(m.best_bound, ref.optimum);
      }
    }
  }
}

// --- determinism ---------------------------------------------------------

std::string faulty_trace_ndjson() {
  uts::UtsWorkload workload(small_uts(91), uts::CostModel{});
  auto config = faulty_config(lb::Strategy::kOverlayBTD, 12, 5);
  config.faults.link.drop_prob = 0.1;
  config.faults.link.dup_prob = 0.05;
  config.faults.link.spike_prob = 0.05;
  config.faults.add_crash(7, sim::milliseconds(2));
  trace::RingTracer tracer(4096);
  config.tracer = &tracer;
  const auto m = lb::run_distributed(workload, config);
  EXPECT_TRUE(m.ok);
  EXPECT_EQ(m.peers_crashed, 1u);
  EXPECT_GT(tracer.dropped(), 0u);  // the ring wrapped: this is the tail
  const auto events = tracer.snapshot();
  std::ostringstream os;
  trace::write_ndjson(os, events);
  return os.str();
}

TEST(Faults, RingTracerDeterministicUnderFaults) {
  // A faulty run is still a pure function of (config, seed): two identical
  // runs must produce byte-identical ring-buffer tails.
  const std::string first = faulty_trace_ndjson();
  const std::string second = faulty_trace_ndjson();
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
  // The crash itself falls off the ring's tail; link faults run to the end.
  EXPECT_NE(first.find("msg_drop"), std::string::npos);
}

TEST(Faults, ZeroPlanIsInert) {
  // An explicitly attached all-zero plan is exactly the fault-free run:
  // same metrics, byte-identical trace.
  auto run = [](bool attach_zero_plan) {
    uts::UtsWorkload workload(small_uts(91), uts::CostModel{});
    auto config = faulty_config(lb::Strategy::kOverlayBTD, 12, 3);
    if (attach_zero_plan) config.faults = sim::FaultPlan{};
    trace::VectorTracer tracer;
    config.tracer = &tracer;
    const auto m = lb::run_distributed(workload, config);
    EXPECT_TRUE(m.ok);
    std::ostringstream os;
    trace::write_ndjson(os, tracer.snapshot());
    return std::make_pair(m, os.str());
  };
  const auto [base, base_trace] = run(false);
  const auto [zero, zero_trace] = run(true);
  EXPECT_EQ(base.total_messages, zero.total_messages);
  EXPECT_EQ(base.total_units, zero.total_units);
  EXPECT_DOUBLE_EQ(base.exec_seconds, zero.exec_seconds);
  EXPECT_EQ(base_trace, zero_trace);
  EXPECT_EQ(zero.msgs_dropped, 0u);
  EXPECT_EQ(zero.retries, 0u);
}

// --- plan and per-strategy validation ------------------------------------

TEST(FaultPlanDeathTest, RejectsMalformedPlans) {
  sim::FaultInjector injector;
  {
    sim::FaultPlan plan;
    plan.link.drop_prob = -0.1;
    EXPECT_DEATH(injector.configure(plan, 8, 1), "");
  }
  {
    sim::FaultPlan plan;
    plan.add_crash(8, sim::milliseconds(1));  // out of range for 8 peers
    EXPECT_DEATH(injector.configure(plan, 8, 1), "");
  }
  {
    sim::FaultPlan plan;
    plan.add_crash(3, sim::milliseconds(1)).add_crash(3, sim::milliseconds(2));
    EXPECT_DEATH(injector.configure(plan, 8, 1), "");
  }
}

TEST(FaultPlanDeathTest, RejectsProtocolCriticalVictims) {
  auto base = [](lb::Strategy s) {
    lb::RunConfig config;
    config.strategy = s;
    config.num_peers = 16;
    config.net = lb::paper_network(16);
    return config;
  };
  {
    auto config = base(lb::Strategy::kOverlayBTD);
    config.faults.add_crash(0, sim::milliseconds(1));  // overlay root
    EXPECT_DEATH(lb::require_supported(config, lb::Backend::kSim), "overlay root");
  }
  {
    auto config = base(lb::Strategy::kMW);
    config.faults.add_crash(0, sim::milliseconds(1));  // master
    EXPECT_DEATH(lb::require_supported(config, lb::Backend::kSim), "MW master");
  }
  {
    auto config = base(lb::Strategy::kRWS);
    config.faults.add_crash(lb::rws_initiator(config.seed, 16),
                            sim::milliseconds(1));
    EXPECT_DEATH(lb::require_supported(config, lb::Backend::kSim),
                 "RWS initiator");
  }
  {
    auto config = base(lb::Strategy::kAHMW);
    config.faults.add_crash(1, sim::milliseconds(1));  // interior coordinator
    EXPECT_DEATH(lb::require_supported(config, lb::Backend::kSim), "leaf crashes");
  }
}

// --- strategy registry ---------------------------------------------------

TEST(StrategyRegistry, RoundTripsEveryStrategy) {
  for (lb::Strategy s : lb::all_strategies()) {
    lb::Strategy parsed;
    ASSERT_TRUE(lb::strategy_from_name(lb::strategy_name(s), &parsed));
    EXPECT_EQ(parsed, s);
    EXPECT_NE(lb::strategy_names().find(lb::strategy_name(s)), std::string::npos);
  }
}

TEST(StrategyRegistry, ParsesCaseInsensitivelyAndRejectsUnknown) {
  lb::Strategy s;
  ASSERT_TRUE(lb::strategy_from_name("btd", &s));
  EXPECT_EQ(s, lb::Strategy::kOverlayBTD);
  ASSERT_TRUE(lb::strategy_from_name("ahmw", &s));
  EXPECT_EQ(s, lb::Strategy::kAHMW);
  EXPECT_FALSE(lb::strategy_from_name("", &s));
  EXPECT_FALSE(lb::strategy_from_name("bogus", &s));
}

}  // namespace
}  // namespace olb
