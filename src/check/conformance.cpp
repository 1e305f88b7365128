#include "check/conformance.hpp"

#include <cstdarg>
#include <cstdio>
#include <string>

#include "runtime/runtime.hpp"
#include "support/check.hpp"

namespace olb::check {
namespace {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

void add(std::vector<Violation>* out, std::string oracle, int peer,
         std::string detail) {
  out->push_back(Violation{std::move(oracle), std::move(detail), -1, peer});
}

/// Live peers must have heard the termination wave, hold no work and have no
/// compute span outstanding. Only meaningful for runs that claim success —
/// a watchdog abort legitimately strands peers mid-protocol.
void check_final_state(const std::vector<lb::StateTap>& taps,
                       std::vector<Violation>* out) {
  for (const lb::StateTap& tap : taps) {
    if (tap.crashed) continue;
    if (!tap.terminated) {
      add(out, "final_state", tap.peer,
          "live peer never saw the termination wave");
    }
    if (tap.holds_work) {
      add(out, "final_state", tap.peer,
          format("live peer still holds %.1f units of work at termination",
                 tap.work_amount));
    }
    if (tap.computing) {
      add(out, "final_state", tap.peer,
          "live peer still has a compute span outstanding at termination");
    }
  }
}

/// Work accounting against the sequential reference. For counting
/// workloads (no bound, UTS: seq.bound == kNoBound) the unit count is
/// execution-order independent, so a lossless run (no work destroyed by
/// crashes) must count exactly seq.units and a lossy one at most that. For
/// B&B the node count legitimately varies with the schedule (pruning
/// depends on when the incumbent circulates), so only the optimum is
/// checked: lossless runs must reach exactly seq.bound, and no run may beat
/// it — a subset of the problem cannot contain a better solution than the
/// whole.
void check_totals(std::uint64_t total_units, std::int64_t best_bound,
                  bool lossless, const lb::SequentialMetrics& seq,
                  std::vector<Violation>* out) {
  const bool counting = seq.bound == lb::kNoBound;
  if (lossless) {
    if (counting && total_units != seq.units) {
      add(out, "conservation", -1,
          format("lossless run counted %llu units, sequential reference %llu",
                 static_cast<unsigned long long>(total_units),
                 static_cast<unsigned long long>(seq.units)));
    }
    if (best_bound != seq.bound) {
      add(out, "conservation", -1,
          format("lossless run found bound %lld, sequential reference %lld",
                 static_cast<long long>(best_bound),
                 static_cast<long long>(seq.bound)));
    }
  } else {
    if (counting && total_units > seq.units) {
      add(out, "conservation", -1,
          format("run counted %llu units, more than the whole problem (%llu)",
                 static_cast<unsigned long long>(total_units),
                 static_cast<unsigned long long>(seq.units)));
    }
    if (best_bound < seq.bound) {
      add(out, "conservation", -1,
          format("run found bound %lld, better than full exploration (%lld)",
                 static_cast<long long>(best_bound),
                 static_cast<long long>(seq.bound)));
    }
  }
}

/// Without crashes or bounces every sent transfer is received by somebody,
/// so the per-peer counters must balance globally.
void check_transfer_balance(const std::vector<lb::StateTap>& taps,
                            std::vector<Violation>* out) {
  std::uint64_t sent = 0, recv = 0;
  for (const lb::StateTap& tap : taps) {
    sent += tap.transfers_sent;
    recv += tap.transfers_recv;
  }
  if (sent != recv) {
    add(out, "conservation", -1,
        format("transfer counters do not balance: %llu sent vs %llu received",
               static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(recv)));
  }
}

}  // namespace

OracleOptions oracle_options_for(const lb::RunConfig& config) {
  OracleOptions o;
  o.work_msg_type = lb::kWork;
  o.faults_possible = config.faults.enabled();
  // The sanitising clamp only ever fires on stale or heterogeneous size
  // information; proportional splits on a homogeneous fault-free cluster
  // never produce an out-of-range raw fraction. (A planted split bias does
  // not change this: it is applied after the clamp.)
  // Elastic churn makes subtree sizes live estimates (deltas race the
  // join/leave handovers), so a firing clamp is legitimate there too.
  o.expect_no_clamp = !config.faults.enabled() && !config.churn.enabled() &&
                      config.het.fraction == 0.0 &&
                      !config.het.capacity_weighted &&
                      config.overlay.split == lb::SplitPolicy::kSubtreeProportional;
  o.churn_initial_peers =
      config.churn.enabled() ? config.churn.initial_peers : 0;
  // With zero jitter, no perturbation and no faults the simulator's network
  // delivers every link in send order. Real-time backends have no modelled
  // links; the inbox-order FIFO check still applies there.
  o.strict_link_fifo = config.backend == lb::Backend::kSim &&
                       config.net.latency_jitter == 0 &&
                       !config.perturb.enabled() && !config.faults.enabled();
  return o;
}

ConformanceReport run_conformance(lb::Workload& workload,
                                  const lb::RunConfig& config,
                                  const lb::SequentialMetrics& seq) {
  OracleSet oracles(oracle_options_for(config));
  // The caller's tracer stays `first` so the driver's snapshot-derived
  // timeline metrics keep working; the oracles only ever see record().
  trace::TeeSink tee(config.tracer, &oracles);
  lb::RunConfig local = config;
  local.tracer = &tee;

  ConformanceReport report;
  report.metrics = runtime::run(workload, local);
  oracles.finish();
  report.violations = oracles.violations();

  if (!report.metrics.ok) {
    add(&report.violations, "completion", -1,
        "run did not quiesce with protocol termination (watchdog or stuck)");
    return report;  // the checks below assume a completed run
  }
  check_final_state(report.metrics.final_state, &report.violations);
  const bool lossless = report.metrics.work_lost_units == 0.0;
  check_totals(report.metrics.total_units, report.metrics.best_bound, lossless,
               seq, &report.violations);
  if (report.metrics.peers_crashed == 0 && report.metrics.work_bounced == 0) {
    check_transfer_balance(report.metrics.final_state, &report.violations);
  }
  return report;
}

DifferentialReport run_differential(
    const std::function<std::unique_ptr<lb::Workload>()>& make_workload,
    const lb::RunConfig& config, const lb::SequentialMetrics& seq) {
  lb::RunConfig sim_config = config;
  sim_config.backend = lb::Backend::kSim;
  lb::RunConfig threads_config = config;
  threads_config.backend = lb::Backend::kThreads;
  const std::string why = lb::unsupported_reason(threads_config);
  OLB_CHECK_MSG(why.empty(), why.c_str());

  DifferentialReport report;
  {
    auto workload = make_workload();
    report.sim = run_conformance(*workload, sim_config, seq);
  }
  {
    auto workload = make_workload();
    report.threads = run_conformance(*workload, threads_config, seq);
  }

  // Execution-order-independent results must agree across backends. (Both
  // are also individually checked against `seq` above; comparing them to
  // each other keeps the property meaningful even if the reference were
  // wrong.) Unit counts are only schedule-independent for counting
  // workloads — under B&B pruning they vary; the optimum must still agree.
  const bool counting = seq.bound == lb::kNoBound;
  if (counting &&
      report.sim.metrics.total_units != report.threads.metrics.total_units) {
    add(&report.mismatches, "differential", -1,
        format("backends disagree on total units: sim %llu vs threads %llu",
               static_cast<unsigned long long>(report.sim.metrics.total_units),
               static_cast<unsigned long long>(
                   report.threads.metrics.total_units)));
  }
  if (report.sim.metrics.best_bound != report.threads.metrics.best_bound) {
    add(&report.mismatches, "differential", -1,
        format("backends disagree on best bound: sim %lld vs threads %lld",
               static_cast<long long>(report.sim.metrics.best_bound),
               static_cast<long long>(report.threads.metrics.best_bound)));
  }
  if (report.sim.passed() != report.threads.passed()) {
    add(&report.mismatches, "differential", -1,
        format("backends disagree on the oracle verdict: sim %s vs threads %s",
               report.sim.passed() ? "pass" : "fail",
               report.threads.passed() ? "pass" : "fail"));
  }
  return report;
}

}  // namespace olb::check
