// Tests for the conformance harness (src/check): each invariant oracle is
// driven with hand-built trace streams that violate exactly one property
// (and with clean streams that must stay quiet), then the integrated layers
// — run_case, planted-bug self-tests, shrinking, schedule perturbation
// determinism and the cross-backend differential check — are exercised on
// small, seconds-fast cases. A short smoke sweep keeps the fuzz plumbing
// honest in tier-1 without eating CI time.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/conformance.hpp"
#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "lb/driver.hpp"
#include "lb/messages.hpp"
#include "trace/trace.hpp"

namespace olb::check {
namespace {

using trace::EventKind;
using trace::TraceEvent;

TraceEvent ev(EventKind kind, sim::Time time, int actor, int peer = -1,
              int type = 0, std::int64_t a = 0, std::int64_t b = 0) {
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.actor = actor;
  e.peer = peer;
  e.type = type;
  e.a = a;
  e.b = b;
  return e;
}

void feed(Oracle& oracle, const std::vector<TraceEvent>& events) {
  for (const auto& e : events) oracle.on_event(e);
  oracle.finish();
}

bool same_events(const std::vector<TraceEvent>& x,
                 const std::vector<TraceEvent>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const TraceEvent& a = x[i];
    const TraceEvent& b = y[i];
    if (a.time != b.time || a.kind != b.kind || a.actor != b.actor ||
        a.peer != b.peer || a.type != b.type || a.a != b.a || a.b != b.b) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ conservation ---

TEST(ConservationOracle, NeverDeliveredTransferIsReported) {
  const auto oracle = make_conservation_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, /*actor=*/1, /*peer=*/2, lb::kWork, /*id=*/7),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  const Violation& v = oracle->violations()[0];
  EXPECT_EQ(v.oracle, "conservation");
  EXPECT_EQ(v.peer, 1);  // blamed on the sender
  EXPECT_NE(v.detail.find("id=7"), std::string::npos);
  EXPECT_NE(v.detail.find("never delivered"), std::string::npos);
}

TEST(ConservationOracle, DuplicateDeliveryIsReported) {
  const auto oracle = make_conservation_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 5),
      ev(EventKind::kMsgDeliver, 150, 2, 1, lb::kWork, 5),
      ev(EventKind::kMsgDeliver, 160, 2, 1, lb::kWork, 5),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_EQ(oracle->violations()[0].time, 160);
  EXPECT_EQ(oracle->violations()[0].peer, 2);
  EXPECT_NE(oracle->violations()[0].detail.find("without a matching send"),
            std::string::npos);
}

TEST(ConservationOracle, DestroyedWorkWithoutFaultsIsReported) {
  const auto oracle = make_conservation_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 3),
      ev(EventKind::kMsgDrop, 120, 1, 2, lb::kWork, 3, /*why=*/2),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("destroyed"), std::string::npos);
}

TEST(ConservationOracle, DestroyedWorkUnderFaultsIsLegal) {
  OracleOptions options;
  options.faults_possible = true;
  const auto oracle = make_conservation_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 3),
      ev(EventKind::kMsgDrop, 120, 1, 2, lb::kWork, 3, 2),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

TEST(ConservationOracle, CrashedEndpointForgivesOpenTransfer) {
  // The victim's inbox is cleared without per-message drop events, so an
  // undelivered transfer whose endpoint crashed is not a violation.
  OracleOptions options;
  options.faults_possible = true;
  const auto oracle = make_conservation_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 9),
      ev(EventKind::kPeerCrash, 150, 2),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

TEST(ConservationOracle, CleanExchangePasses) {
  const auto oracle = make_conservation_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 0, 1, lb::kWork, 1),
      ev(EventKind::kMsgDeliver, 140, 1, 0, lb::kWork, 1),
      ev(EventKind::kMsgSend, 200, 1, 2, lb::kWork, 2),
      ev(EventKind::kMsgDeliver, 240, 2, 1, lb::kWork, 2),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

// ------------------------------------------------------------- termination ---

TEST(TerminationOracle, OpenTransferAtTerminationIsReported) {
  const auto oracle = make_termination_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 9),
      ev(EventKind::kTerminated, 200, 0),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  const Violation& v = oracle->violations()[0];
  EXPECT_EQ(v.oracle, "termination");
  EXPECT_EQ(v.time, 200);  // the termination event, not the send
  EXPECT_EQ(v.peer, 0);    // the peer that declared termination
  EXPECT_NE(v.detail.find("id=9"), std::string::npos);
  EXPECT_NE(v.detail.find("1 -> 2"), std::string::npos);
}

TEST(TerminationOracle, DeliveryTimestampedBeforeTerminationPasses) {
  // Threads backend recording race: a third peer's kTerminated can be
  // recorded between a delivery happening and the delivery being recorded.
  // The delivery's own timestamp settles it.
  const auto oracle = make_termination_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 9),
      ev(EventKind::kTerminated, 200, 0),
      ev(EventKind::kMsgDeliver, 150, 2, 1, lb::kWork, 9),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

TEST(TerminationOracle, DeliveryAfterTerminationIsStillReported) {
  const auto oracle = make_termination_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 9),
      ev(EventKind::kTerminated, 200, 0),
      ev(EventKind::kMsgDeliver, 250, 2, 1, lb::kWork, 9),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_EQ(oracle->violations()[0].time, 200);
}

TEST(TerminationOracle, TransferToCrashedPeerIsNoHazard) {
  // Crash before the send: the sender has not detected it yet, but the
  // transfer can only bounce or be destroyed — never acquired after
  // termination (found as a fuzzer false positive on TD + crash + jitter).
  const auto oracle = make_termination_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kPeerCrash, 50, 2),
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 9),
      ev(EventKind::kTerminated, 200, 0),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

TEST(TerminationOracle, CrashAfterSendMovesTransferToLimbo) {
  const auto oracle = make_termination_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 9),
      ev(EventKind::kPeerCrash, 150, 2),
      ev(EventKind::kTerminated, 200, 0),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

// ------------------------------------------------------------ btd_counters ---

TEST(BtdCounterOracle, BackwardsCountersAreReportedUnderStrictFifo) {
  OracleOptions options;
  options.strict_link_fifo = true;
  const auto oracle = make_btd_counter_oracle(options);
  feed(*oracle, {
      ev(EventKind::kRequest, 100, 3, 1, lb::kReqUp, /*sent=*/10, /*recv=*/5),
      ev(EventKind::kRequest, 200, 3, 1, lb::kReqUp, 8, 5),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_EQ(oracle->violations()[0].peer, 3);
  EXPECT_NE(oracle->violations()[0].detail.find("ran backwards"),
            std::string::npos);
}

TEST(BtdCounterOracle, MonotoneCountersPass) {
  OracleOptions options;
  options.strict_link_fifo = true;
  const auto oracle = make_btd_counter_oracle(options);
  feed(*oracle, {
      ev(EventKind::kRequest, 100, 3, 1, lb::kReqUp, 10, 5),
      ev(EventKind::kRequest, 200, 3, 1, lb::kReqUp, 10, 7),
      ev(EventKind::kRequest, 300, 3, 1, lb::kReqUp, 12, 7),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

TEST(BtdCounterOracle, QuietWhenLinksCanReorder) {
  // A stale child report legitimately dips the sums when messages can
  // overtake, so without strict per-link FIFO the oracle must not judge.
  const auto oracle = make_btd_counter_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kRequest, 100, 3, 1, lb::kReqUp, 10, 5),
      ev(EventKind::kRequest, 200, 3, 1, lb::kReqUp, 8, 5),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

// ---------------------------------------------------------- split_fraction ---

TEST(SplitFractionOracle, FractionAboveOneIsReported) {
  const auto oracle = make_split_fraction_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kServe, 100, 1, 2, lb::kReqUp, /*ppm=*/1'200'000, 10),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("1200000"), std::string::npos);
}

TEST(SplitFractionOracle, WholeIntervalServesPass) {
  const auto oracle = make_split_fraction_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kServe, 100, 1, 2, lb::kReqUp, 500'000, 10),
      ev(EventKind::kServe, 200, 0, 3, lb::kReqUp, 1'000'000, 4),
      ev(EventKind::kServe, 300, 0, 4, lb::kReqUp, 0, 7),  // MW whole interval
  });
  EXPECT_TRUE(oracle->violations().empty());
}

TEST(SplitFractionOracle, ClampFiringIsAViolationOnlyUnderExpectNoClamp) {
  OracleOptions strict;
  strict.expect_no_clamp = true;
  const auto strict_oracle = make_split_fraction_oracle(strict);
  const auto lax_oracle = make_split_fraction_oracle(OracleOptions{});
  const std::vector<TraceEvent> stream = {
      ev(EventKind::kSplitClamp, 100, 1, -1, lb::kReqUp, 1'300'000, 1'000'000),
  };
  feed(*strict_oracle, stream);
  feed(*lax_oracle, stream);
  EXPECT_EQ(strict_oracle->violations().size(), 1u);
  EXPECT_TRUE(lax_oracle->violations().empty());
}

// -------------------------------------------------------------------- fifo ---

TEST(FifoOracle, InboxServiceOrderMustMatchArrivalOrder) {
  const auto oracle = make_fifo_oracle(OracleOptions{});
  feed(*oracle, {
      // arrival = time - b: first 200, then 160 — served out of order.
      ev(EventKind::kMsgDeliver, 200, 1, 0, lb::kWork, 1, /*wait=*/0),
      ev(EventKind::kMsgDeliver, 210, 1, 2, lb::kWork, 2, 50),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_EQ(oracle->violations()[0].peer, 1);
  EXPECT_NE(oracle->violations()[0].detail.find("arrival order"),
            std::string::npos);
}

TEST(FifoOracle, LinkOvertakingIsReportedUnderStrictFifo) {
  OracleOptions options;
  options.strict_link_fifo = true;
  const auto oracle = make_fifo_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 1),
      ev(EventKind::kMsgSend, 110, 1, 2, lb::kWork, 2),
      // id=2 arrives first: overtaking on link 1 -> 2.
      ev(EventKind::kMsgDeliver, 150, 2, 1, lb::kWork, 2, 0),
      ev(EventKind::kMsgDeliver, 160, 2, 1, lb::kWork, 1, 0),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("out of send order"),
            std::string::npos);
}

TEST(FifoOracle, InOrderLinksPassUnderStrictFifo) {
  OracleOptions options;
  options.strict_link_fifo = true;
  const auto oracle = make_fifo_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMsgSend, 100, 1, 2, lb::kWork, 1),
      ev(EventKind::kMsgSend, 110, 1, 2, lb::kWork, 2),
      ev(EventKind::kMsgDeliver, 150, 2, 1, lb::kWork, 1, 0),
      ev(EventKind::kMsgDeliver, 160, 2, 1, lb::kWork, 2, 0),
  });
  EXPECT_TRUE(oracle->violations().empty());
}

// -------------------------------------------------------------- membership ---

TEST(MembershipOracle, AnyMembershipEventWithoutAChurnPlanIsReported) {
  const auto oracle = make_membership_oracle(OracleOptions{});
  feed(*oracle, {
      ev(EventKind::kMemberJoin, 100, 5),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_EQ(oracle->violations()[0].oracle, "membership");
  EXPECT_NE(oracle->violations()[0].detail.find("without a churn plan"),
            std::string::npos);
}

TEST(MembershipOracle, InitialMemberMayNotJoin) {
  OracleOptions options;
  options.churn_initial_peers = 4;
  const auto oracle = make_membership_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMemberJoin, 100, /*actor=*/2),  // id < initial
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("only dormant peers join"),
            std::string::npos);
}

TEST(MembershipOracle, JoiningTwiceIsReported) {
  OracleOptions options;
  options.churn_initial_peers = 4;
  const auto oracle = make_membership_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMemberJoin, 100, 5),
      ev(EventKind::kMemberJoin, 200, 5),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_EQ(oracle->violations()[0].time, 200);
  EXPECT_NE(oracle->violations()[0].detail.find("joined twice"),
            std::string::npos);
}

TEST(MembershipOracle, DormantPeerComputingBeforeItsJoinIsReported) {
  OracleOptions options;
  options.churn_initial_peers = 4;
  const auto oracle = make_membership_oracle(options);
  feed(*oracle, {
      ev(EventKind::kComputeSpan, 100, 6),
      ev(EventKind::kMemberJoin, 200, 6),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("before its join"),
            std::string::npos);
}

TEST(MembershipOracle, DepartedPeerComputingAfterItsLeaveIsReported) {
  OracleOptions options;
  options.churn_initial_peers = 4;
  const auto oracle = make_membership_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMemberLeave, 100, 2),
      ev(EventKind::kComputeSpan, 200, 2),
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("after its leave"),
            std::string::npos);
}

TEST(MembershipOracle, LeaveWithoutEverJoiningIsReported) {
  OracleOptions options;
  options.churn_initial_peers = 4;
  const auto oracle = make_membership_oracle(options);
  feed(*oracle, {
      ev(EventKind::kMemberLeave, 100, /*actor=*/7),  // dormant, never joined
  });
  ASSERT_EQ(oracle->violations().size(), 1u);
  EXPECT_NE(oracle->violations()[0].detail.find("without ever joining"),
            std::string::npos);
}

TEST(MembershipOracle, LegalJoinComputeLeaveLifecycleIsQuiet) {
  OracleOptions options;
  options.churn_initial_peers = 4;
  const auto oracle = make_membership_oracle(options);
  feed(*oracle, {
      ev(EventKind::kComputeSpan, 50, 0),   // initial member computes freely
      ev(EventKind::kMemberJoin, 100, 5),   // dormant peer joins...
      ev(EventKind::kComputeSpan, 150, 5),  // ...then computes...
      ev(EventKind::kMemberLeave, 200, 5),  // ...then drains out,
      ev(EventKind::kMemberLeave, 250, 1),  // and an initial member leaves.
  });
  EXPECT_TRUE(oracle->violations().empty());
}

// -------------------------------------------------------- options derivation ---

TEST(OracleOptionsFor, FaultFreeUnperturbedRunGetsStrictFifo) {
  FuzzCase c;
  c.strategy = lb::Strategy::kOverlayTD;
  c.fault_id = 0;
  c.sched_seed = 0;
  const auto options = oracle_options_for(make_case_config(c));
  EXPECT_FALSE(options.faults_possible);
  EXPECT_TRUE(options.strict_link_fifo);
}

TEST(OracleOptionsFor, FaultsAndPerturbationRelaxTheOracles) {
  FuzzCase faulty;
  faulty.fault_id = 3;
  const auto fo = oracle_options_for(make_case_config(faulty));
  EXPECT_TRUE(fo.faults_possible);
  EXPECT_FALSE(fo.strict_link_fifo);
  EXPECT_FALSE(fo.expect_no_clamp);

  FuzzCase perturbed;
  perturbed.sched_seed = 42;
  const auto po = oracle_options_for(make_case_config(perturbed));
  EXPECT_FALSE(po.faults_possible);
  EXPECT_FALSE(po.strict_link_fifo);
}

TEST(OracleOptionsFor, ChurnArmsTheMembershipOracleAndRelaxesClamp) {
  FuzzCase c;
  c.strategy = lb::Strategy::kOverlayTR;
  c.peers = 12;
  c.churn_id = 4;  // wants 3 joins + 1 leave, so initial members < peers
  const auto options = oracle_options_for(make_case_config(c));
  EXPECT_GT(options.churn_initial_peers, 0);
  EXPECT_LT(options.churn_initial_peers, c.peers);
  EXPECT_FALSE(options.expect_no_clamp);  // deltas race handovers

  FuzzCase quiet = c;
  quiet.churn_id = 0;
  EXPECT_EQ(oracle_options_for(make_case_config(quiet)).churn_initial_peers, 0);
}

// -------------------------------------------------------------- fuzz cases ---

TEST(FuzzCaseCodec, FormatParseRoundTrips) {
  FuzzCase c;
  c.strategy = lb::Strategy::kMW;
  c.peers = 17;
  c.dmax = 4;
  c.workload_id = 2;
  c.seed = 987654;
  c.fault_id = 5;
  c.sched_seed = 31337;
  FuzzCase parsed;
  ASSERT_TRUE(parse_case(format_case(c), &parsed));
  EXPECT_EQ(parsed.strategy, c.strategy);
  EXPECT_EQ(parsed.peers, c.peers);
  EXPECT_EQ(parsed.dmax, c.dmax);
  EXPECT_EQ(parsed.workload_id, c.workload_id);
  EXPECT_EQ(parsed.seed, c.seed);
  EXPECT_EQ(parsed.fault_id, c.fault_id);
  EXPECT_EQ(parsed.sched_seed, c.sched_seed);
}

TEST(FuzzCaseCodec, ChurnKeyRoundTrips) {
  FuzzCase c;
  c.strategy = lb::Strategy::kOverlayTR;
  c.peers = 18;
  c.dmax = 2;
  c.workload_id = 1;
  c.seed = 485546;
  c.fault_id = 0;
  c.sched_seed = 694894;
  c.churn_id = 3;
  const std::string repro = format_case(c);
  EXPECT_NE(repro.find("churn=3"), std::string::npos);
  FuzzCase parsed;
  ASSERT_TRUE(parse_case(repro, &parsed));
  EXPECT_EQ(parsed.churn_id, c.churn_id);
  EXPECT_EQ(format_case(parsed), repro);
}

TEST(FuzzCaseCodec, ParseRejectsGarbage) {
  FuzzCase c;
  EXPECT_FALSE(parse_case("strategy=XYZ", &c));
  EXPECT_FALSE(parse_case("peers=notanumber", &c));
  EXPECT_FALSE(parse_case("unknown_key=1", &c));
  EXPECT_FALSE(parse_case("workload=99", &c));
}

TEST(FuzzCaseCodec, ParseRejectsIllegalChurnCombos) {
  FuzzCase c;
  // Out-of-range plan id.
  EXPECT_FALSE(parse_case(
      "strategy=TD peers=8 dmax=3 workload=0 seed=1 fault=0 sched=0 churn=99",
      &c));
  // Churn + faults is rejected (lb::unsupported_reason refuses the config
  // the tuple denotes, so the repro space is the legal case space).
  EXPECT_FALSE(parse_case(
      "strategy=TD peers=8 dmax=3 workload=0 seed=1 fault=2 sched=0 churn=1",
      &c));
  // Churn on a non-overlay strategy is rejected too.
  EXPECT_FALSE(parse_case(
      "strategy=MW peers=8 dmax=3 workload=0 seed=1 fault=0 sched=0 churn=1",
      &c));
  // The same combos are legal once the churn key is dropped or zero.
  EXPECT_TRUE(parse_case(
      "strategy=MW peers=8 dmax=3 workload=0 seed=1 fault=0 sched=0 churn=0",
      &c));
}

TEST(FuzzCaseCodec, EveryRandomCaseParsesAndIsAccepted) {
  // The sweep draws only from the legal space: every case round-trips
  // through its repro string, and the list accepts the config it denotes.
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const FuzzCase c = random_case(20261020, i, lb::all_strategies());
    const std::string repro = format_case(c);
    FuzzCase parsed;
    ASSERT_TRUE(parse_case(repro, &parsed)) << repro;
    EXPECT_EQ(format_case(parsed), repro);
    const std::string why = c.jobs_id == 0
                                ? lb::unsupported_reason(make_case_config(c))
                                : svc::unsupported_reason(make_case_service(c));
    EXPECT_EQ(why, "") << repro;
  }
}

TEST(FuzzCaseCodec, RandomCaseIsAPureFunctionOfSeedAndIndex) {
  const std::vector<lb::Strategy> allowed = {
      lb::Strategy::kOverlayTD, lb::Strategy::kOverlayBTD, lb::Strategy::kMW};
  for (std::uint64_t i = 0; i < 20; ++i) {
    const FuzzCase a = random_case(7, i, allowed);
    const FuzzCase b = random_case(7, i, allowed);
    EXPECT_EQ(format_case(a), format_case(b)) << "index " << i;
  }
  // Different base seeds must explore different points.
  bool any_diff = false;
  for (std::uint64_t i = 0; i < 20; ++i) {
    any_diff |= format_case(random_case(7, i, allowed)) !=
                format_case(random_case(8, i, allowed));
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------- integrated checks ---

FuzzCase small_td_case() {
  FuzzCase c;
  c.strategy = lb::Strategy::kOverlayTD;
  c.peers = 6;
  c.dmax = 3;
  c.workload_id = 0;
  c.seed = 11;
  c.fault_id = 0;
  c.sched_seed = 0;
  return c;
}

TEST(RunCase, CleanCasePasses) {
  const auto report = run_case(small_td_case());
  EXPECT_TRUE(report.metrics.ok);
  EXPECT_TRUE(report.passed()) << (report.violations.empty()
                                       ? std::string("(no detail)")
                                       : to_string(report.violations[0]));
}

TEST(RunCase, PlantedSplitBiasIsCaught) {
  lb::PlantedBug plant;
  plant.kind = lb::PlantedBug::Kind::kSplitBias;
  const auto report = run_case(small_td_case(), plant);
  ASSERT_FALSE(report.passed());
  bool fraction_violation = false;
  for (const auto& v : report.violations) {
    fraction_violation |= v.oracle == "split_fraction";
  }
  EXPECT_TRUE(fraction_violation) << to_string(report.violations[0]);
}

TEST(RunCase, PlantedLostWorkIsCaught) {
  lb::PlantedBug plant;
  plant.kind = lb::PlantedBug::Kind::kLostWork;
  const auto report = run_case(small_td_case(), plant);
  ASSERT_FALSE(report.passed());
  bool conservation_or_termination = false;
  for (const auto& v : report.violations) {
    conservation_or_termination |=
        v.oracle == "conservation" || v.oracle == "termination";
  }
  EXPECT_TRUE(conservation_or_termination) << to_string(report.violations[0]);
}

TEST(Shrink, MinimalCaseStillFailsAndIsNoBigger) {
  lb::PlantedBug plant;
  plant.kind = lb::PlantedBug::Kind::kSplitBias;
  FuzzCase failing = small_td_case();
  failing.peers = 10;
  failing.sched_seed = 777;  // shrinker should strip the perturbation
  ASSERT_FALSE(run_case(failing, plant).passed());
  const ShrinkResult r = shrink_case(failing, plant);
  EXPECT_GT(r.attempts, 0);
  EXPECT_LE(r.minimal.peers, failing.peers);
  EXPECT_EQ(r.minimal.sched_seed, 0u);
  EXPECT_FALSE(run_case(r.minimal, plant).passed());
}

TEST(Replay, PerturbedCaseReplaysIdentically) {
  FuzzCase c = small_td_case();
  c.sched_seed = 31415;
  trace::VectorTracer first;
  trace::VectorTracer second;
  ASSERT_TRUE(run_case(c, {}, &first).passed());
  ASSERT_TRUE(run_case(c, {}, &second).passed());
  ASSERT_GT(first.size(), 0u);
  EXPECT_TRUE(same_events(first.events(), second.events()));
}

TEST(Replay, ScheduleSeedActuallyChangesTheSchedule) {
  FuzzCase a = small_td_case();
  FuzzCase b = small_td_case();
  a.sched_seed = 1;
  b.sched_seed = 2;
  trace::VectorTracer ta;
  trace::VectorTracer tb;
  ASSERT_TRUE(run_case(a, {}, &ta).passed());
  ASSERT_TRUE(run_case(b, {}, &tb).passed());
  EXPECT_FALSE(same_events(ta.events(), tb.events()));
}

TEST(Replay, UnperturbedCaseIsDeterministicToo) {
  const FuzzCase c = small_td_case();
  trace::VectorTracer first;
  trace::VectorTracer second;
  ASSERT_TRUE(run_case(c, {}, &first).passed());
  ASSERT_TRUE(run_case(c, {}, &second).passed());
  ASSERT_GT(first.size(), 0u);
  EXPECT_TRUE(same_events(first.events(), second.events()));
}

TEST(Differential, BackendsAgreeOnASmallOverlayCase) {
  const FuzzCase c = small_td_case();
  const auto d = run_differential([&] { return make_case_workload(c); },
                                  make_case_config(c), case_reference(c));
  EXPECT_TRUE(d.sim.passed());
  EXPECT_TRUE(d.threads.passed());
  EXPECT_TRUE(d.mismatches.empty())
      << (d.mismatches.empty() ? std::string() : to_string(d.mismatches[0]));
  EXPECT_EQ(d.sim.metrics.total_units, d.threads.metrics.total_units);
}

TEST(SmokeFuzz, AShortSweepOfRandomCasesIsClean) {
  // A dozen cases across all strategies, faults and perturbations included:
  // fast enough for tier-1, broad enough to catch harness bit-rot.
  const std::vector<lb::Strategy> allowed = {
      lb::Strategy::kOverlayTD, lb::Strategy::kOverlayTR,
      lb::Strategy::kOverlayBTD, lb::Strategy::kRWS, lb::Strategy::kMW};
  for (std::uint64_t i = 0; i < 12; ++i) {
    const FuzzCase c = random_case(/*base_seed=*/20260805, i, allowed);
    const auto report = run_case(c);
    EXPECT_TRUE(report.passed())
        << format_case(c) << ": "
        << (report.violations.empty() ? std::string("watchdog/metrics failure")
                                      : to_string(report.violations[0]));
  }
}

}  // namespace
}  // namespace olb::check
