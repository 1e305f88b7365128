// Conformance runner: executes one (workload, config) combination on
// config.backend with the invariant oracles (oracles.hpp) attached to the
// trace stream, adds end-of-run checks that need the sequential reference
// (exact node counts, B&B optimum, transfer-counter balance, per-peer final
// state), and — for fault-free configurations — cross-checks the simulator
// backend against the threads backend on the same configuration.
//
// This is the programmatic layer under tools/olb_fuzz and tests/test_check:
// on the simulator everything here is deterministic given the config
// (including its SchedulePerturbation seed), so a failing tuple replays
// exactly.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "check/oracles.hpp"
#include "lb/driver.hpp"

namespace olb::check {

/// Derives what the oracles may assume from the run configuration:
///  * faults_possible   — the fault plan is enabled (planted bugs do NOT
///    count: a planted lost transfer must look like the violation it is);
///  * expect_no_clamp   — proportional splits, homogeneous, fault-free:
///    the overlay's fraction clamp must never fire;
///  * strict_link_fifo  — the simulator with zero latency jitter, no
///    perturbation and no faults: per-link overtaking is impossible in its
///    network model;
///  * churn_initial_peers — forwarded from the ChurnPlan so the membership
///    oracle knows which peers start dormant (0 when churn is disabled).
OracleOptions oracle_options_for(const lb::RunConfig& config);

struct ConformanceReport {
  lb::RunMetrics metrics;
  std::vector<Violation> violations;

  bool passed() const { return violations.empty(); }
};

/// Runs `workload` under `config` on config.backend (runtime::run) with
/// every oracle attached (tee'd with config.tracer if the caller set one),
/// then applies the end-of-run checks against the sequential reference
/// `seq`:
///  * completion — the run must quiesce with metrics.ok (watchdog = failure);
///  * final state — every live peer terminated, idle and empty-handed;
///  * conservation totals — lossless runs count exactly seq.units and reach
///    exactly seq.bound; lossy (faulty) runs count at most seq.units;
///  * transfer balance — without crashes/bounces, the per-peer transfer
///    counters sum to the same total on the send and receive side.
/// The backend must accept a tracer (lb::unsupported_reason), which
/// rules out sockets; their per-process traces are checked after a causal
/// merge instead (tools/olb_check_trace).
ConformanceReport run_conformance(lb::Workload& workload,
                                  const lb::RunConfig& config,
                                  const lb::SequentialMetrics& seq);

/// Cross-backend differential check: the same (workload, config) must agree
/// between the simulator and the threads backend on everything that is
/// execution-order independent — total work units, best bound, and the
/// oracle verdict. `make_workload` supplies a *fresh* workload per backend
/// (B&B workloads carry the shared incumbent and must not leak bounds from
/// one run into the other). The threads backend must accept the config
/// (lb::unsupported_reason; OLB_CHECK).
struct DifferentialReport {
  ConformanceReport sim;
  ConformanceReport threads;
  /// Cross-backend disagreements (units/bound/verdict), on top of whatever
  /// each backend's own oracles reported.
  std::vector<Violation> mismatches;

  bool passed() const {
    return sim.passed() && threads.passed() && mismatches.empty();
  }
};

DifferentialReport run_differential(
    const std::function<std::unique_ptr<lb::Workload>()>& make_workload,
    const lb::RunConfig& config, const lb::SequentialMetrics& seq);

}  // namespace olb::check
