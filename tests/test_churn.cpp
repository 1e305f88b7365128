// Elastic-membership tests: live join/leave on the overlay, swept across
// strategies and churn shapes with the conformance oracles attached.
//
// The load-bearing properties, checked on every swept run:
//
//  * no hang and no premature termination — run_conformance's completion
//    check plus exact UTS node counts (graceful leaves destroy no work, so
//    churned runs must still count *exactly* the sequential total);
//  * membership life cycle — the membership oracle rejects double joins,
//    leaves without joins, and any compute outside a peer's window;
//  * subtree-size hygiene — at quiescence the root's size estimate must
//    equal the live membership weight (the regression handle for stale
//    sizes after leaves and crash re-parenting).
//
// The Regression suite pins the exact fuzz-found tuples that exposed the
// three membership termination bugs (uncounted tree serves, a wave-less
// fast path, and a kLeave handover dropped by a departed parent).
#include <gtest/gtest.h>

#include <memory>

#include "bb/bb_work.hpp"
#include "bb/bounds.hpp"
#include "bb/flowshop.hpp"
#include "check/conformance.hpp"
#include "check/fuzz.hpp"
#include "lb/driver.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

using test_util::base_config;
using test_util::uts_params;

constexpr lb::Strategy kOverlays[] = {lb::Strategy::kOverlayTD,
                                      lb::Strategy::kOverlayTR,
                                      lb::Strategy::kOverlayBTD};

lb::RunConfig churn_config(lb::Strategy s, int n, int joins, int leaves,
                           std::uint64_t seed) {
  // Watchdog: a membership protocol that wedges (the historical failure
  // mode) must fail fast, not burn the default event budget.
  auto config = base_config(s, n, /*dmax=*/3, seed,
                            /*event_limit=*/30'000'000);
  // Early, tight window: the suite's small UTS instances quiesce within a
  // few simulated milliseconds, and a join or leave scheduled after
  // termination exercises nothing.
  config.churn =
      lb::make_random_churn(joins, leaves, n, sim::microseconds(200),
                            sim::milliseconds(2), seed * 31 + 7);
  return config;
}

std::string violations_text(const std::vector<check::Violation>& vs) {
  std::string out;
  for (const auto& v : vs) out += to_string(v) + "\n";
  return out.empty() ? "(none)" : out;
}

// ------------------------------------------------------------ plan maker ---

TEST(MakeRandomChurn, IsDeterministicInSeed) {
  const auto a = lb::make_random_churn(3, 2, 12, sim::milliseconds(1),
                                       sim::milliseconds(20), 42);
  const auto b = lb::make_random_churn(3, 2, 12, sim::milliseconds(1),
                                       sim::milliseconds(20), 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.initial_peers, b.initial_peers);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].peer, b.events[i].peer);
    EXPECT_EQ(a.events[i].join, b.events[i].join);
  }
  const auto c = lb::make_random_churn(3, 2, 12, sim::milliseconds(1),
                                       sim::milliseconds(20), 43);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    differs |= c.events[i].time != a.events[i].time ||
               c.events[i].peer != a.events[i].peer;
  }
  EXPECT_TRUE(differs) << "different seeds should draw different schedules";
}

TEST(MakeRandomChurn, PlansAreWellFormed) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto plan = lb::make_random_churn(4, 3, 16, sim::milliseconds(1),
                                            sim::milliseconds(20), seed);
    EXPECT_EQ(plan.initial_peers, 12);
    int joins = 0;
    int leaves = 0;
    for (const auto& e : plan.events) {
      if (e.join) {
        ++joins;
        EXPECT_GE(e.peer, plan.initial_peers) << "only dormant peers join";
      } else {
        ++leaves;
        EXPECT_GT(e.peer, 0) << "the root never leaves";
        EXPECT_LT(e.peer, plan.initial_peers)
            << "leavers are drawn from the initial members";
      }
      EXPECT_GE(e.time, sim::milliseconds(1));
      EXPECT_LE(e.time, sim::milliseconds(20));
    }
    EXPECT_EQ(joins, 4);
    EXPECT_EQ(leaves, 3);
    // The one list is the runners' gate; a generated plan must clear it.
    auto config = base_config(lb::Strategy::kOverlayBTD, 16, 3, seed);
    config.churn = plan;
    EXPECT_EQ(lb::unsupported_reason(config), "");
  }
}

TEST(MakeRandomChurn, DisabledAndEmptyPlansStayDisabled) {
  EXPECT_FALSE(lb::ChurnPlan{}.enabled());
  const auto plan = lb::make_random_churn(0, 0, 8, sim::milliseconds(1),
                                          sim::milliseconds(20), 1);
  EXPECT_FALSE(plan.enabled());
}

TEST(Churn, ZeroChurnRunsAreByteIdenticalToPlanFreeRuns) {
  // A disabled plan must take none of the membership code paths: same
  // termination machinery, same message schedule, same trace — byte for
  // byte. This is the guard against the churn layer taxing or perturbing
  // the paper's fixed-membership experiments.
  const auto params = uts_params(9, /*b0=*/200, /*q=*/0.45);
  for (auto strategy : kOverlays) {
    std::vector<trace::TraceEvent> streams[2];
    for (int variant = 0; variant < 2; ++variant) {
      uts::UtsWorkload workload(params, uts::CostModel{});
      auto config = base_config(strategy, 10, /*dmax=*/3, /*seed=*/5);
      if (variant == 1) {
        config.churn = lb::make_random_churn(0, 0, 10, sim::milliseconds(1),
                                             sim::milliseconds(20), 7);
      }
      trace::VectorTracer tracer;
      config.tracer = &tracer;
      ASSERT_TRUE(lb::run_distributed(workload, config).ok);
      streams[variant] = tracer.snapshot();
    }
    ASSERT_EQ(streams[0].size(), streams[1].size())
        << lb::strategy_name(strategy);
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      const auto& a = streams[0][i];
      const auto& b = streams[1][i];
      ASSERT_TRUE(a.time == b.time && a.kind == b.kind && a.actor == b.actor &&
                  a.peer == b.peer && a.type == b.type && a.a == b.a &&
                  a.b == b.b)
          << lb::strategy_name(strategy) << " diverges at event " << i;
    }
  }
}

// --------------------------------------------------- oracle-checked sweep ---

// (strategy, joins, leaves, seed)
using ChurnParam = std::tuple<lb::Strategy, int, int, std::uint64_t>;

class ChurnSweep : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(ChurnSweep, UtsExactUnderChurnWithOraclesAttached) {
  const auto [strategy, joins, leaves, seed] = GetParam();
  const int n = 12;
  const auto params = uts_params(static_cast<std::uint32_t>(seed * 5 + 2),
                                 /*b0=*/200, /*q=*/0.47);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto seq = lb::run_sequential(workload);
  const auto config = churn_config(strategy, n, joins, leaves, seed);
  const auto report = check::run_conformance(workload, config, seq);
  EXPECT_TRUE(report.passed()) << violations_text(report.violations);
  EXPECT_EQ(report.metrics.total_units, seq.units) << "premature termination";
}

INSTANTIATE_TEST_SUITE_P(
    JoinLeaveShapes, ChurnSweep,
    ::testing::Combine(::testing::ValuesIn(kOverlays),
                       ::testing::Values(0, 1, 3),  // joins
                       ::testing::Values(0, 1, 2),  // leaves
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const ::testing::TestParamInfo<ChurnParam>& p) {
      return std::string(lb::strategy_name(std::get<0>(p.param))) + "_j" +
             std::to_string(std::get<1>(p.param)) + "_l" +
             std::to_string(std::get<2>(p.param)) + "_s" +
             std::to_string(std::get<3>(p.param));
    });

TEST(Churn, FlowshopOptimumExactUnderChurn) {
  // Graceful leaves hand their pool to the parent, so the proved optimum
  // stays exact — the B&B analogue of the UTS node-count invariant.
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(4, 9, 5);
  const auto ref = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  for (auto strategy : kOverlays) {
    for (std::uint64_t seed : {1u, 2u}) {
      bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine,
                              bb::CostModel{});
      const auto seq = lb::run_sequential(workload);
      bb::BBWorkload fresh(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
      const auto config = churn_config(strategy, 12, 2, 2, seed);
      const auto report = check::run_conformance(fresh, config, seq);
      EXPECT_TRUE(report.passed()) << violations_text(report.violations);
      EXPECT_EQ(report.metrics.best_bound, ref.optimum);
    }
  }
}

TEST(Churn, ThreadsBackendExactUnderChurn) {
  // The same membership code must hold on real threads: joins/leaves are
  // wall-clock timers there, so this exercises genuinely racy arrivals.
  const auto params = uts_params(17, /*b0=*/200, /*q=*/0.45);
  for (auto strategy : kOverlays) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    const auto seq = lb::run_sequential(workload);
    uts::UtsWorkload fresh(params, uts::CostModel{});
    auto config = churn_config(strategy, 8, 2, 1, 3);
    config.backend = lb::Backend::kThreads;
    const auto report = check::run_conformance(fresh, config, seq);
    EXPECT_TRUE(report.passed()) << violations_text(report.violations);
    EXPECT_EQ(report.metrics.total_units, seq.units);
  }
}

// ------------------------------------------------------------ subtree size ---

TEST(Churn, RootSubtreeSizeTracksLiveMembership) {
  // Joins add their weight, leaves subtract it, and once the last delta has
  // been delivered the root's estimate equals the live member count. Events
  // scheduled after the run quiesces never fire, so the expectation is
  // built from the membership events the trace actually records — and the
  // workload is sized so the run outlives the churn window by a wide
  // margin (a kSizeDelta still in flight when termination is declared is
  // legal, but it would make the root's final estimate lag).
  bool any_leave = false;
  for (auto strategy : kOverlays) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const int n = 12, joins = 3, leaves = 2;
      const auto params = uts_params(static_cast<std::uint32_t>(seed + 40),
                                     /*b0=*/2000, /*q=*/0.47);
      uts::UtsWorkload workload(params, uts::CostModel{});
      auto config = churn_config(strategy, n, joins, leaves, seed);
      trace::VectorTracer tracer;
      config.tracer = &tracer;
      const auto m = lb::run_distributed(workload, config);
      ASSERT_TRUE(m.ok);
      int joined = 0;
      int left = 0;
      for (const auto& e : tracer.snapshot()) {
        joined += e.kind == trace::EventKind::kMemberJoin ? 1 : 0;
        left += e.kind == trace::EventKind::kMemberLeave ? 1 : 0;
      }
      any_leave |= left > 0;
      ASSERT_FALSE(m.final_state.empty());
      const auto& root = m.final_state[0];
      EXPECT_EQ(root.peer, 0);
      EXPECT_EQ(root.subtree_size,
                static_cast<std::uint64_t>(config.churn.initial_peers +
                                           joined - left))
          << lb::strategy_name(strategy) << " seed=" << seed;
      int departed = 0;
      for (const auto& tap : m.final_state) departed += tap.departed ? 1 : 0;
      EXPECT_EQ(departed, left);
    }
  }
  EXPECT_TRUE(any_leave) << "no combo exercised a leave; widen the window";
}

TEST(Churn, RootSubtreeSizeShrinksAfterCrashReParenting) {
  // The crash path must apply the same size hygiene: when a peer dies and
  // its children re-parent, the dead weight may not linger in any ancestor's
  // estimate (the stale-subtree-size bug this PR fixes).
  for (auto strategy : {lb::Strategy::kOverlayTD, lb::Strategy::kOverlayBTD}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const int n = 16, crashes = 2;
      const auto params = uts_params(static_cast<std::uint32_t>(seed + 60),
                                     /*b0=*/200, /*q=*/0.45);
      uts::UtsWorkload workload(params, uts::CostModel{});
      auto config = base_config(strategy, n, /*dmax=*/3, seed,
                                /*event_limit=*/30'000'000);
      config.faults = sim::make_random_crashes(crashes, n,
                                               sim::microseconds(500),
                                               sim::milliseconds(4), seed);
      const auto m = lb::run_distributed(workload, config);
      ASSERT_TRUE(m.ok);
      EXPECT_EQ(m.peers_crashed, static_cast<std::uint64_t>(crashes));
      ASSERT_FALSE(m.final_state.empty());
      EXPECT_EQ(m.final_state[0].subtree_size,
                static_cast<std::uint64_t>(n - crashes))
          << lb::strategy_name(strategy) << " seed=" << seed;
    }
  }
}

// ------------------------------------------------------------- regressions ---

// Shrunk fuzz tuples that each exposed a distinct membership termination
// bug. Replaying them through the conformance harness pins the fixes:
//
//  * churn=2 tuple — a tree serve in flight to a leaver was invisible to
//    the bridge-only counters (waves now aggregate every transfer);
//  * churn=3 tuple — a leave dirtied the confirming wave and nothing ever
//    re-triggered the root (it now re-polls on a lease tick under churn);
//  * churn=5 tuple — a kLeave handover addressed to an already-departed
//    parent was dropped, stranding a never-pending child entry (departed
//    peers now forward the handover to the member side).
TEST(ChurnRegression, FuzzFoundTerminationBugsStayFixed) {
  const char* kRepros[] = {
      "strategy=TR peers=18 dmax=1 workload=2 seed=90919 fault=0 "
      "sched=123334 churn=2",
      "strategy=TR peers=18 dmax=1 workload=1 seed=485546 fault=0 "
      "sched=694894 churn=3",
      "strategy=TR peers=9 dmax=5 workload=2 seed=663200 fault=0 sched=0 "
      "churn=5",
  };
  for (const char* repro : kRepros) {
    check::FuzzCase c;
    ASSERT_TRUE(check::parse_case(repro, &c)) << repro;
    const auto report = check::run_case(c);
    EXPECT_TRUE(report.metrics.ok) << repro;
    EXPECT_TRUE(report.passed())
        << repro << "\n"
        << violations_text(report.violations);
  }
}

}  // namespace
}  // namespace olb
