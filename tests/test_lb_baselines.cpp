// Protocol tests for the baselines: RWS (Dijkstra-Scholten termination),
// MW (interval pool, stale-view splitting), AHMW (hierarchy, grains), and
// the counter-wave rule their fault-tolerant poll shares with the overlay.
#include <gtest/gtest.h>

#include <vector>

#include "bb/bb_work.hpp"
#include "lb/counter_wave.hpp"
#include "lb/driver.hpp"
#include "lb/ds_termination.hpp"
#include "test_util.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

using test_util::uts_params;

lb::RunConfig base_config(lb::Strategy s, int n, std::uint64_t seed) {
  return test_util::base_config(s, n, /*dmax=*/10, seed);
}

// --------------------------------------------------------- DsTermination ---

TEST(DsTermination, InitiatorLifecycle) {
  lb::DsTermination ds;
  ds.make_initiator();
  EXPECT_TRUE(ds.engaged());
  EXPECT_FALSE(ds.can_detach(false));  // active
  EXPECT_TRUE(ds.can_detach(true));
  EXPECT_EQ(ds.detach(), -1);  // initiator signals nobody
}

TEST(DsTermination, EngagementAndSignals) {
  lb::DsTermination ds;
  EXPECT_FALSE(ds.on_work_received(3));  // engages, no immediate signal
  EXPECT_TRUE(ds.on_work_received(5));   // already engaged: signal at once
  ds.on_work_sent();
  ds.on_work_sent();
  EXPECT_FALSE(ds.can_detach(true));  // deficit 2
  ds.on_signal();
  ds.on_signal();
  EXPECT_TRUE(ds.can_detach(true));
  EXPECT_EQ(ds.detach(), 3);  // signals the engaging parent
  EXPECT_FALSE(ds.engaged());
}

TEST(DsTermination, ReengagementUsesNewParent) {
  lb::DsTermination ds;
  (void)ds.on_work_received(1);
  EXPECT_EQ(ds.detach(), 1);
  (void)ds.on_work_received(8);
  EXPECT_EQ(ds.detach(), 8);
}

// ---------------------------------------------------- counter-wave rule ---

TEST(StableCounters, DecidesByMatternsRule) {
  using lb::Settle;
  struct Step {
    bool quiet;
    lb::CounterReading reading;  ///< {sent, recv, crash_epoch, member_events}
    Settle expect;
    bool invalidate_first = false;
  };
  struct Case {
    const char* name;
    std::vector<Step> steps;
  };
  const std::vector<Case> cases = {
      {"a balanced pair is stable",
       {{true, {5, 5}, Settle::kClean}, {true, {5, 5}, Settle::kStable}}},
      {"moved counters are clean, not stable",
       {{true, {5, 5}, Settle::kClean},
        {true, {6, 6}, Settle::kClean},
        {true, {6, 6}, Settle::kStable}}},
      {"unbalanced counters at epoch 0 are dirty",
       {{true, {5, 4}, Settle::kDirty}, {true, {5, 4}, Settle::kDirty}}},
      {"unbalanced counters after a crash are stable when repeated",
       {{true, {5, 4, 1}, Settle::kClean}, {true, {5, 4, 1}, Settle::kStable}}},
      {"a crash between two readings blocks stable",
       {{true, {5, 5, 0}, Settle::kClean},
        {true, {5, 5, 1}, Settle::kClean},
        {true, {5, 4, 2}, Settle::kClean},
        {true, {5, 4, 2}, Settle::kStable}}},
      {"a membership event between two readings blocks stable",
       {{true, {5, 5, 0, 3}, Settle::kClean},
        {true, {5, 5, 0, 4}, Settle::kClean},
        {true, {5, 5, 0, 4}, Settle::kStable}}},
      {"a dirty reading breaks a pair",
       {{true, {5, 5}, Settle::kClean},
        {false, {5, 5}, Settle::kDirty},
        {true, {5, 5}, Settle::kClean},
        {true, {5, 5}, Settle::kStable}}},
      {"invalidate breaks a pair",
       {{true, {5, 5}, Settle::kClean},
        {true, {5, 5}, Settle::kClean, /*invalidate_first=*/true},
        {true, {5, 5}, Settle::kStable}}},
  };
  for (const Case& c : cases) {
    lb::StableCounters rule;
    for (std::size_t i = 0; i < c.steps.size(); ++i) {
      const Step& step = c.steps[i];
      if (step.invalidate_first) rule.invalidate();
      EXPECT_EQ(rule.settle(step.quiet, step.reading), step.expect)
          << c.name << ", reading " << i;
      EXPECT_EQ(rule.primed(), step.expect != Settle::kDirty)
          << c.name << ", reading " << i;
    }
  }
}

TEST(TermPoll, CountsEachPeerOnceInTheCurrentRoundOnly) {
  lb::TermPoll poll;
  EXPECT_FALSE(poll.on_ack(0, 1, true, 0, 0));  // no round started yet
  const std::uint64_t r1 = poll.begin_round(/*num_peers=*/4, /*expected_acks=*/3);
  EXPECT_FALSE(poll.on_ack(r1, 1, true, 3, 1));
  EXPECT_FALSE(poll.on_ack(r1, 1, true, 3, 1));      // duplicate
  EXPECT_FALSE(poll.on_ack(r1 + 1, 2, true, 9, 9));  // not this round
  EXPECT_FALSE(poll.on_ack(r1, 2, true, 0, 2));
  EXPECT_TRUE(poll.on_ack(r1, 3, true, 1, 1));  // the third distinct peer
  EXPECT_FALSE(poll.on_ack(r1, 0, true, 0, 0));  // surplus: already complete
  EXPECT_TRUE(poll.all_passive());
  EXPECT_EQ(poll.reading(/*own_sent=*/2, /*own_recv=*/3, /*crash_epoch=*/1),
            (lb::CounterReading{6, 7, 1, 0}));

  const std::uint64_t r2 = poll.begin_round(4, 2);
  EXPECT_NE(r2, r1);
  EXPECT_FALSE(poll.on_ack(r1, 1, true, 3, 1));  // stale round
  EXPECT_FALSE(poll.on_ack(r2, 1, /*passive=*/false, 4, 4));
  EXPECT_TRUE(poll.on_ack(r2, 2, true, 0, 0));
  EXPECT_FALSE(poll.all_passive());
  // A round with an active peer is not quiet, so the rule reads it dirty.
  lb::StableCounters rule;
  EXPECT_EQ(rule.settle(poll.all_passive(), poll.reading(0, 0, 0)), lb::Settle::kDirty);
}

// -------------------------------------------------------------------- RWS ---

class RwsSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RwsSweep, UtsCompletesExactly) {
  const auto [n, seed] = GetParam();
  const auto params = uts_params(static_cast<std::uint32_t>(seed + 30));
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kRWS, n, seed));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

INSTANTIATE_TEST_SUITE_P(Scales, RwsSweep,
                         ::testing::Combine(::testing::Values(1, 2, 7, 33),
                                            ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Rws, SignalsMatchTransfers) {
  // Dijkstra-Scholten: every work transfer is eventually signalled once.
  const auto params = uts_params(40);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kRWS, 24, 5));
  ASSERT_TRUE(metrics.ok);
  // The initial root work is not a transfer; every kWork gets one kSignal.
  EXPECT_EQ(metrics.sent_by_type[lb::kSignal], metrics.sent_by_type[lb::kWork]);
}

TEST(Rws, StealsEitherFailOrTransfer) {
  const auto params = uts_params(41);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kRWS, 16, 2));
  ASSERT_TRUE(metrics.ok);
  // Every steal is answered (fail or work) except those still in flight
  // when the termination broadcast lands — at most one per peer.
  const std::uint64_t answered =
      metrics.sent_by_type[lb::kStealFail] + metrics.sent_by_type[lb::kWork];
  EXPECT_GE(metrics.sent_by_type[lb::kSteal], answered);
  EXPECT_LE(metrics.sent_by_type[lb::kSteal], answered + 16);
}

TEST(Rws, FlowshopOptimal) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(4, 9, 5);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kRWS, 40, 7));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
}

// --------------------------------------------------------------------- MW ---

class MwSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MwSweep, FlowshopOptimal) {
  const auto [n, seed] = GetParam();
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(static_cast<int>(seed % 10), 9, 5);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kMW, n, seed));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
}

INSTANTIATE_TEST_SUITE_P(Scales, MwSweep,
                         ::testing::Combine(::testing::Values(2, 3, 9, 40),
                                            ::testing::Values<std::uint64_t>(1, 2)));

TEST(Mw, WorkersCheckpointPeriodically) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 10, 6);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  auto config = base_config(lb::Strategy::kMW, 8, 1);
  config.mw_checkpoint_period = sim::microseconds(500);
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok);
  EXPECT_GT(metrics.sent_by_type[lb::kMWCheckpoint], 0u);
}

TEST(Mw, SplitNotifiesOwners) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(1, 10, 6);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kMW, 12, 1));
  ASSERT_TRUE(metrics.ok);
  // Every assignment beyond the first is a split of an owned interval.
  EXPECT_GT(metrics.sent_by_type[lb::kMWSplitNotify], 0u);
  EXPECT_EQ(metrics.sent_by_type[lb::kMWSplitNotify] + 1,
            metrics.sent_by_type[lb::kWork]);
}

TEST(Mw, RequiresIntervalWorkload) {
  const auto params = uts_params(50);
  uts::UtsWorkload workload(params, uts::CostModel{});
  EXPECT_DEATH(
      (void)lb::run_distributed(workload, base_config(lb::Strategy::kMW, 4, 1)),
      "interval");
}

// ------------------------------------------------------------------- AHMW ---

class AhmwSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AhmwSweep, FlowshopOptimal) {
  const auto [n, seed] = GetParam();
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(static_cast<int>(seed % 10), 9, 5);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kAHMW, n, seed));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
}

INSTANTIATE_TEST_SUITE_P(Scales, AhmwSweep,
                         ::testing::Combine(::testing::Values(1, 2, 11, 45),
                                            ::testing::Values<std::uint64_t>(1, 2)));

TEST(Ahmw, SignalsMatchTransfers) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(2, 10, 6);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kAHMW, 30, 3));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kSignal], metrics.sent_by_type[lb::kWork]);
}

TEST(Ahmw, DecompositionBaseChangesGrainTraffic) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 10, 6);
  auto transfers_with = [&](double base) {
    bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
    auto config = base_config(lb::Strategy::kAHMW, 30, 2);
    config.ahmw_decomposition = base;
    const auto metrics = lb::run_distributed(workload, config);
    EXPECT_TRUE(metrics.ok);
    return metrics.sent_by_type[lb::kWork];
  };
  // Finer grains (larger divisor base) force more pulls.
  EXPECT_GT(transfers_with(200.0), transfers_with(8.0));
}

// ------------------------------------------------ cross-strategy agreement ---

TEST(CrossStrategy, AllStrategiesAgreeOnEveryScaledInstance) {
  for (int idx = 0; idx < 10; ++idx) {
    const auto inst = bb::FlowshopInstance::ta20x20_scaled(idx, 9, 4);
    const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
    for (auto strategy : {lb::Strategy::kOverlayBTD, lb::Strategy::kRWS,
                          lb::Strategy::kMW, lb::Strategy::kAHMW}) {
      bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
      const auto metrics =
          lb::run_distributed(workload, base_config(strategy, 15, 11));
      ASSERT_TRUE(metrics.ok) << lb::strategy_name(strategy) << " Ta" << (21 + idx);
      EXPECT_EQ(workload.best().makespan(), reference.optimum)
          << lb::strategy_name(strategy) << " Ta" << (21 + idx);
    }
  }
}

TEST(CrossStrategy, SequentialRunnerAgreesWithSolver) {
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(5, 10, 6);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto seq = lb::run_sequential(workload);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  EXPECT_EQ(seq.units, reference.nodes);
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
  EXPECT_GT(seq.exec_seconds, 0.0);
}

}  // namespace
}  // namespace olb
