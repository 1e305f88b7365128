// Schedule/configuration fuzzing for the conformance harness.
//
// One FuzzCase names a point in the swept space: (protocol, overlay shape,
// workload, protocol seed, fault plan, schedule seed). Everything downstream
// — the workload, the RunConfig, the fault plan's crash victims, the
// schedule perturbation — is a pure function of the tuple, so printing a
// failing case and re-parsing it replays the identical run, trace and all.
//
// The driver loop lives in tools/olb_fuzz; tests/test_check runs a smoke
// sweep. shrink_case() greedily simplifies a failing tuple (drop the fault
// plan, drop the perturbation, halve the cluster, ...) while it keeps
// failing, yielding the minimal repro the tool prints.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/conformance.hpp"
#include "lb/driver.hpp"
#include "svc/service.hpp"

namespace olb::check {

struct FuzzCase {
  lb::Strategy strategy = lb::Strategy::kOverlayBTD;
  int peers = 8;
  int dmax = 3;
  int workload_id = 0;           ///< [0, kNumWorkloads)
  std::uint64_t seed = 1;        ///< protocol/topology seed
  int fault_id = 0;              ///< [0, kNumFaultPlans); 0 = fault-free
  std::uint64_t sched_seed = 0;  ///< schedule perturbation; 0 = unperturbed
  /// [0, kNumChurnPlans); 0 = no churn. Overlay strategies only, and
  /// mutually exclusive with fault_id (lb::unsupported_reason) — parse_case
  /// rejects tuples that mix them.
  int churn_id = 0;
  /// [0, kNumJobPlans); 0 = classic single-job case. Nonzero runs the case
  /// as a multi-job service sweep (src/svc) with the job-conservation
  /// oracle armed. Overlay strategies only, and mutually exclusive with
  /// fault_id, churn_id and sched_seed (svc::unsupported_reason: service
  /// runs are fault-free and unperturbed) — parse_case rejects mixed tuples.
  int jobs_id = 0;
};

inline constexpr int kNumWorkloads = 4;
inline constexpr int kNumFaultPlans = 8;
inline constexpr int kNumChurnPlans = 6;
inline constexpr int kNumJobPlans = 4;

/// "strategy=BTD peers=8 dmax=3 workload=0 seed=1 fault=2 sched=7" — the
/// repro string printed on failure and accepted by olb_fuzz --repro.
std::string format_case(const FuzzCase& c);

/// Parses format_case() output (order-insensitive, every key optional —
/// missing keys keep their defaults). Returns false on unknown keys,
/// malformed numbers, out-of-range values, or a tuple whose config
/// (make_case_config, or make_case_service for a job case) the one list
/// refuses (lb::unsupported_reason, svc::unsupported_reason).
bool parse_case(std::string_view text, FuzzCase* out);

/// Fresh workload for the case. Overlay/RWS strategies fuzz UTS trees;
/// MW/AHMW need an interval workload and fuzz flowshop B&B instances.
std::unique_ptr<lb::Workload> make_case_workload(const FuzzCase& c);

/// Sequential reference for the case's workload — depends only on the
/// strategy family and workload_id, so sweep drivers can cache it.
lb::SequentialMetrics case_reference(const FuzzCase& c);

/// Fault plan `fault_id` under this case's cluster. Crash victims are
/// redrawn (bounded) until lb::crash_refusal accepts them, and the crash
/// count is capped to what the strategy survives, so the plan always passes
/// lb::unsupported_reason at any peer count the shrinker reaches.
sim::FaultPlan make_case_faults(const FuzzCase& c);

/// Churn plan `churn_id` under this case's cluster. Join/leave counts are
/// clamped to what the peer count admits (joins < peers, leaves < initial
/// members), so the plan stays legal at any size the shrinker reaches; a
/// cluster too small to churn degenerates to a disabled plan.
lb::ChurnPlan make_case_churn(const FuzzCase& c);

/// The RunConfig the case denotes: paper network, tight watchdog limits
/// (a stuck protocol must fail fast, not eat the fuzz budget), the case's
/// fault plan and schedule perturbation. tracer/plant stay unset —
/// run_case() owns those.
lb::RunConfig make_case_config(const FuzzCase& c);

/// The multi-job service configuration job plan `jobs_id` denotes under
/// this case's cluster: small per-class arrival processes (keyed by the
/// case seed) over the case's workload shapes. Requires jobs_id != 0.
svc::ServiceConfig make_case_service(const FuzzCase& c);

/// Service-mode counterpart of run_case for a job case (jobs_id != 0): runs
/// the job plan on `backend` (sim or threads) with every oracle armed, then
/// checks the end-of-run job properties — completion, admission bounds, and
/// each job's exact unit count / optimum against its own sequential
/// reference.
ConformanceReport run_job_case(const FuzzCase& c, lb::Backend backend,
                               trace::TraceSink* tracer = nullptr);

/// Runs the case with every oracle attached. `plant` optionally mutates
/// the protocol (the harness self-test: a planted bug must be caught);
/// `tracer` tees off the full event stream for --trace replays. Job cases
/// (jobs_id != 0) run the service sweep instead; planted bugs target the
/// single-job protocol, so they ignore `plant`.
ConformanceReport run_case(const FuzzCase& c, const lb::PlantedBug& plant = {},
                           trace::TraceSink* tracer = nullptr);

/// Greedy shrinking to a fixpoint: tries simplifications in impact order
/// (no faults, no perturbation, fewer peers, smaller dmax, first workload,
/// seed 1) and keeps each one that still fails. `attempts` counts the runs
/// spent — each is a full run_case, so small cases shrink in seconds.
struct ShrinkResult {
  FuzzCase minimal;
  int attempts = 0;
};
ShrinkResult shrink_case(const FuzzCase& failing, const lb::PlantedBug& plant);

/// The index-th case of a sweep keyed by base_seed, drawn from `allowed`
/// strategies. Stateless — (base_seed, index) always maps to the same case,
/// so sweeps are resumable and shardable.
FuzzCase random_case(std::uint64_t base_seed, std::uint64_t index,
                     const std::vector<lb::Strategy>& allowed);

}  // namespace olb::check
