// Protocol tests for the overlay-centric load balancer (TD / TR / BTD):
// exactness, termination (never early, never hung), cooperation invariants.
// Parameterised sweeps hammer the termination logic across tree shapes,
// scales and seeds — the bug magnet called out in DESIGN.md.
#include <gtest/gtest.h>

#include <tuple>

#include "bb/bb_work.hpp"
#include "lb/driver.hpp"
#include "test_util.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

using test_util::base_config;
using test_util::uts_params;

// --------------------------------------------------- parameterised sweeps ---

// (strategy, peers, dmax, seed)
using SweepParam = std::tuple<lb::Strategy, int, int, std::uint64_t>;

class OverlaySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OverlaySweep, UtsCompletesExactly) {
  const auto [strategy, n, dmax, seed] = GetParam();
  const auto params = uts_params(static_cast<std::uint32_t>(seed * 7 + 1));
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics = lb::run_distributed(workload, base_config(strategy, n, dmax, seed));
  ASSERT_TRUE(metrics.ok) << "n=" << n << " dmax=" << dmax << " seed=" << seed;
  EXPECT_EQ(metrics.total_units, expected);
}

TEST_P(OverlaySweep, FlowshopFindsOptimum) {
  const auto [strategy, n, dmax, seed] = GetParam();
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(
      static_cast<int>(seed % 10), 9, 5);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics = lb::run_distributed(workload, base_config(strategy, n, dmax, seed));
  ASSERT_TRUE(metrics.ok) << "n=" << n << " dmax=" << dmax << " seed=" << seed;
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
  EXPECT_EQ(metrics.best_bound, reference.optimum);
}

INSTANTIATE_TEST_SUITE_P(
    TreesAndScales, OverlaySweep,
    ::testing::Combine(
        ::testing::Values(lb::Strategy::kOverlayTD, lb::Strategy::kOverlayTR,
                          lb::Strategy::kOverlayBTD),
        ::testing::Values(2, 5, 17, 60),
        ::testing::Values(1, 2, 10),
        ::testing::Values<std::uint64_t>(1, 2)),
    [](const ::testing::TestParamInfo<SweepParam>& p) {
      return std::string(lb::strategy_name(std::get<0>(p.param))) + "_n" +
             std::to_string(std::get<1>(p.param)) + "_d" +
             std::to_string(std::get<2>(p.param)) + "_s" +
             std::to_string(std::get<3>(p.param));
    });

// ------------------------------------------------------------- edge cases ---

TEST(OverlayLb, SinglePeerTD) {
  const auto params = uts_params(3);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 1, 2, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, SinglePeerBTDSkipsBridges) {
  const auto params = uts_params(4);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayBTD, 1, 2, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kReqBridge], 0u);
}

TEST(OverlayLb, ChainOverlayCompletes) {
  // dmax=1 degenerates the tree into a chain — the worst diameter.
  const auto params = uts_params(5);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 12, 1, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, StarOverlayCompletes) {
  // dmax >= n-1 makes the root a master-like hub.
  const auto params = uts_params(6);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 16, 15, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, TrivialWorkloadTerminates) {
  // A tree with almost no work: most peers never receive anything, yet the
  // protocol must still detect termination (the empty-system case).
  const auto params = uts_params(7, 2, 0.05);
  const auto expected = uts::count_tree(params).nodes;
  for (auto strategy : {lb::Strategy::kOverlayTD, lb::Strategy::kOverlayBTD}) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    const auto metrics =
        lb::run_distributed(workload, base_config(strategy, 30, 3, 2));
    ASSERT_TRUE(metrics.ok) << lb::strategy_name(strategy);
    EXPECT_EQ(metrics.total_units, expected);
  }
}

// ------------------------------------------------------ protocol behaviour ---

TEST(OverlayLb, ConvergecastRunsExactlyOncePerEdge) {
  const auto params = uts_params(8);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const int n = 40;
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, n, 3, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kSizeUp], static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(metrics.sent_by_type[lb::kSizeDown], static_cast<std::uint64_t>(n - 1));
}

TEST(OverlayLb, TerminationBroadcastReachesEveryPeer) {
  const auto params = uts_params(9);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const int n = 31;
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, n, 4, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kTerminate], static_cast<std::uint64_t>(n - 1));
}

TEST(OverlayLb, PureTreeModeSendsNoBridgeOrProbeTraffic) {
  const auto params = uts_params(10);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 25, 5, 3));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kReqBridge], 0u);
  EXPECT_EQ(metrics.sent_by_type[lb::kProbe], 0u);
  EXPECT_EQ(metrics.sent_by_type[lb::kProbeAck], 0u);
}

TEST(OverlayLb, BridgeModeUsesBridges) {
  const auto params = uts_params(11);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayBTD, 25, 5, 3));
  ASSERT_TRUE(metrics.ok);
  EXPECT_GT(metrics.sent_by_type[lb::kReqBridge], 0u);
  // Bridge mode must confirm termination with at least two probe waves.
  EXPECT_GE(metrics.sent_by_type[lb::kProbe], 2u * 5u);
}

TEST(OverlayLb, FixedUnitPoliciesAlsoExact) {
  // steal-1 and steal-2 (the granularities analysed by Dinan et al. and
  // discussed in the paper's §I) still complete exactly — just slowly.
  const auto params = uts_params(18);
  const auto expected = uts::count_tree(params).nodes;
  for (std::uint64_t k : {1u, 2u}) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    auto config = base_config(lb::Strategy::kOverlayTD, 12, 3, 1);
    config.overlay.split = lb::SplitPolicy::kFixedUnits;
    config.overlay.split_fixed_units = k;
    config.min_split_amount = 1;
    const auto metrics = lb::run_distributed(workload, config);
    ASSERT_TRUE(metrics.ok) << "steal-" << k;
    EXPECT_EQ(metrics.total_units, expected) << "steal-" << k;
  }
}

TEST(OverlayLb, TinyGrainsCauseMoreTransfers) {
  const auto params = uts_params(19, 300, 0.47);
  auto transfers_with = [&](lb::SplitPolicy split, std::uint64_t k) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    auto config = base_config(lb::Strategy::kOverlayTD, 16, 4, 1);
    config.overlay.split = split;
    config.overlay.split_fixed_units = k;
    config.min_split_amount = 1;
    const auto metrics = lb::run_distributed(workload, config);
    EXPECT_TRUE(metrics.ok);
    return metrics.work_transfers;
  };
  EXPECT_GT(transfers_with(lb::SplitPolicy::kFixedUnits, 1),
            transfers_with(lb::SplitPolicy::kSubtreeProportional, 0));
}

TEST(OverlayLb, StealHalfPolicyAlsoExact) {
  const auto params = uts_params(12);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  auto config = base_config(lb::Strategy::kOverlayTD, 20, 10, 1);
  config.overlay.split = lb::SplitPolicy::kHalf;
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, DeterministicGivenSeed) {
  const auto params = uts_params(13);
  auto run_once = [&] {
    uts::UtsWorkload workload(params, uts::CostModel{});
    return lb::run_distributed(workload,
                               base_config(lb::Strategy::kOverlayBTD, 20, 4, 42));
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.exec_seconds, b.exec_seconds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.msgs_per_peer, b.msgs_per_peer);
}

TEST(OverlayLb, SeedsChangeSchedule) {
  const auto params = uts_params(14);
  auto run_with = [&](std::uint64_t seed) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    return lb::run_distributed(workload,
                               base_config(lb::Strategy::kOverlayBTD, 20, 4, seed));
  };
  EXPECT_NE(run_with(1).total_messages, run_with(2).total_messages);
}

TEST(OverlayLb, BoundDiffusionReducesExploredNodes) {
  // With diffusion disabled every peer prunes only with locally-found
  // bounds, so the cluster must explore at least as many B&B nodes.
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 10, 6);
  auto run_with = [&](bool diffuse) {
    bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
    auto config = base_config(lb::Strategy::kOverlayTD, 30, 5, 3);
    config.diffuse_bounds = diffuse;
    const auto metrics = lb::run_distributed(workload, config);
    EXPECT_TRUE(metrics.ok);
    EXPECT_EQ(workload.best().makespan(),
              bb::solve_sequential(inst, bb::BoundKind::kOneMachine).optimum);
    return metrics.total_units;
  };
  EXPECT_LE(run_with(true), run_with(false));
}

TEST(OverlayLb, UtsNodeCountInvariantAcrossTopologies) {
  // The counted total is a pure function of the UTS instance, whatever the
  // overlay shape or seed.
  const auto params = uts_params(15);
  const auto expected = uts::count_tree(params).nodes;
  for (int dmax : {1, 3, 8}) {
    for (std::uint64_t seed : {5u, 9u}) {
      uts::UtsWorkload workload(params, uts::CostModel{});
      const auto metrics = lb::run_distributed(
          workload, base_config(lb::Strategy::kOverlayBTD, 22, dmax, seed));
      ASSERT_TRUE(metrics.ok);
      EXPECT_EQ(metrics.total_units, expected);
    }
  }
}

TEST(OverlayLb, SplitFractionsStayWellFormedUnderCrashes) {
  // Regression for unclamped split fractions: after crash re-parenting the
  // subtree aggregates feeding fraction_for_parent/child/bridge can be
  // stale (e.g. my_size_ exceeding a not-yet-refreshed parent_size_, which
  // wrapped to a huge positive fraction in the old uint64 arithmetic).
  // Every out-of-range share must be clamped — traced as kSplitClamp with
  // a replacement in (0, 1] — and the run must still complete.
  for (auto strategy : {lb::Strategy::kOverlayTD, lb::Strategy::kOverlayBTD}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      const auto params = uts_params(static_cast<std::uint32_t>(seed * 3 + 2));
      uts::UtsWorkload workload(params, uts::CostModel{});
      auto config = base_config(strategy, 16, 3, seed);
      config.faults = sim::make_random_crashes(2, 16, sim::microseconds(500),
                                               sim::milliseconds(4), seed);
      trace::VectorTracer tracer;
      config.tracer = &tracer;
      const auto metrics = lb::run_distributed(workload, config);
      ASSERT_TRUE(metrics.ok) << lb::strategy_name(strategy) << " seed=" << seed;
      for (const auto& e : tracer.events()) {
        if (e.kind != trace::EventKind::kSplitClamp) continue;
        EXPECT_TRUE(e.a <= 0 || e.a > 1'000'000)
            << "clamp fired on an in-range fraction (raw ppm " << e.a << ")";
        EXPECT_GT(e.b, 0) << "clamped share must be positive";
        EXPECT_LE(e.b, 1'000'000) << "clamped share must be <= 1";
      }
    }
  }
}

TEST(OverlayLb, OvertakenUpRequestDoesNotStallBtdTermination) {
  // Regression: a child's kReqUp sent from its compute-done hook (no
  // handling cost) was overtaken by the refresh it sent 328 ns later, and
  // the parent overwrote the newer aggregates with the older ones. The
  // root then read one receipt short of the sends forever: every peer
  // idle, bridge requests circling, no probe wave. Seed 8 of this
  // 1000-peer flowshop run hit it; a clean run takes 1.67 M events.
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 12, 8);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  auto config = base_config(lb::Strategy::kOverlayBTD, 1000, 10, 8,
                            /*event_limit=*/20'000'000);
  config.chunk_units = 32;
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok) << "event limit hit: termination never detected";
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
  EXPECT_EQ(metrics.best_bound, reference.optimum);
}

TEST(OverlayLb, LargerDegreeNoSlowerOnBalancedLoad) {
  // Table I's qualitative claim at moderate scale: dmax=10 beats dmax=2.
  const auto params = uts_params(16, 400, 0.493);
  auto time_with = [&](int dmax) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    const auto metrics = lb::run_distributed(
        workload, base_config(lb::Strategy::kOverlayTD, 64, dmax, 1));
    EXPECT_TRUE(metrics.ok);
    return metrics.exec_seconds;
  };
  EXPECT_LT(time_with(10), time_with(2));
}

}  // namespace
}  // namespace olb
