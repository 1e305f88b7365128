// Load-balancing-as-a-service: one shared overlay fleet, a stream of jobs.
//
// run_service() builds the same overlay cluster a RunConfig describes, but
// in multi-job service mode: peers start workless, every work slot holds a
// lb::JobBag, and an extra gate actor (svc::JobGate, id == fleet size) feeds
// the root kJobInject messages from seeded open-loop arrival processes —
// Poisson, bursty on/off, or a diurnal ramp per priority class. Admission
// control (bounded pending queue, shed on overload) runs at the gate;
// per-job completion is detected by the root's epoch-tagged accounting
// waves (see overlay_lb.cpp, "multi-job service mode").
//
// Service mode builds no engine of its own: it hands the fleet and the gate
// to the runner of its backend — lb::run_distributed (a one-shard
// sim::ShardedEngine) or runtime::run_threads — which hosts them all, folds
// the fleet like any other run and lets run_service read the gate and the
// per-job tallies before the peers are torn down.
//
// Scope: overlay strategies only, fault-free, churn-free, homogeneous,
// unperturbed; backends sim (one shard) and threads. Single-job runs are
// untouched — service mode only exists behind OverlayConfig::service.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bb/bb_work.hpp"
#include "lb/driver.hpp"
#include "svc/arrivals.hpp"
#include "svc/gate.hpp"
#include "uts/uts_work.hpp"

namespace olb::svc {

/// One priority class of jobs: what a job looks like plus how often one
/// arrives. The index of a class in ServiceConfig::classes IS its priority
/// (0 = highest — the JobBag steps lower classes first).
struct JobClass {
  enum class Kind { kUts, kFlowshop };
  Kind kind = Kind::kUts;
  ArrivalProcess arrivals;
  /// UTS template: job j runs with root_seed = uts.root_seed + j, so jobs
  /// are distinct but deterministic across backends and reruns.
  uts::Params uts;
  uts::CostModel uts_costs;
  /// Flowshop template: job j solves the Taillard instance generated from
  /// time seed fs_seed + j.
  int fs_jobs = 6;
  int fs_machines = 3;
  std::int64_t fs_seed = 1;
  bb::CostModel bb_costs;
};

struct ServiceConfig {
  /// Fleet description: overlay strategy, num_peers, dmax, seed, network,
  /// limits, tracer/metrics, and the backend (kSim or kThreads).
  lb::RunConfig run;
  std::vector<JobClass> classes;
  AdmissionConfig admission;
  /// Cadence of the root's per-job accounting waves.
  sim::Time wave_interval = sim::milliseconds(2);
  /// Run the per-job sequential reference so JobRecord::expected_* are
  /// filled (exact UTS counts, B&B optima). Benches may turn it off.
  bool compute_expected = true;
};

/// Per-job outcome, indexed by job id (= arrival order).
struct JobRecord {
  std::uint64_t job = 0;
  int job_class = 0;
  JobClass::Kind kind = JobClass::Kind::kUts;
  bool rejected = false;
  sim::Time submitted = -1;
  sim::Time injected = -1;  ///< -1 for rejected jobs
  sim::Time done = -1;
  double root_amount = 0;  ///< work amount at submission
  // Harvested from the fleet's JobBag tallies after the run:
  std::uint64_t units = 0;               ///< exact per-job units processed
  std::int64_t bound = lb::kNoBound;     ///< best bound seen (B&B optimum)
  // Sequential reference (when ServiceConfig::compute_expected):
  std::uint64_t expected_units = 0;
  std::int64_t expected_bound = lb::kNoBound;

  sim::Time sojourn() const {
    return done >= 0 && submitted >= 0 ? done - submitted : -1;
  }
  sim::Time queueing() const {
    return injected >= 0 && submitted >= 0 ? injected - submitted : -1;
  }
};

struct ServiceMetrics {
  bool ok = false;  ///< terminated everywhere, every admitted job completed
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::size_t peak_pending = 0;
  std::uint64_t bad_rejects = 0;  ///< rejects with queue room (must be 0)
  std::vector<JobRecord> jobs;    ///< indexed by job id
  double exec_seconds = 0;  ///< until the root declared termination
};

/// Why service mode cannot run `config`, or "" when it can: service mode's
/// own rules — overlay strategy, sim (one shard) or threads backend, no
/// faults, churn, heterogeneity, perturbation or plants, at least one
/// class, sane admission bounds — then lb::unsupported_reason(config.run).
/// run_service aborts (OLB_CHECK) on a non-empty reason.
std::string unsupported_reason(const ServiceConfig& config);

/// Deterministic per-job workload factory — shared by run_service and the
/// sequential reference so both see the identical job.
std::unique_ptr<lb::Workload> make_job_workload(const JobClass& cls,
                                                std::uint64_t job);

/// Builds the merged, time-sorted arrival schedule of all classes (job ids
/// assigned in arrival order). Exposed for tests pinning determinism.
std::vector<JobGate::Arrival> make_schedule(const ServiceConfig& config);

/// Runs the service loop to completion and returns per-job outcomes.
ServiceMetrics run_service(const ServiceConfig& config);

}  // namespace olb::svc
