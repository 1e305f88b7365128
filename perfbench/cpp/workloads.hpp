// The benchmark's four workloads, one per execution path, and what a correct
// solve of each must produce.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "lb/driver.hpp"

namespace perfbench {

enum class Scale { kFull, kSmoke };

/// The instance a workload solves: which UTS tree or which Taillard-family
/// flowshop. The protocol seed (RunConfig::seed) is separate: it drives the
/// protocol's own randomness (latency jitter, bridge choices), not the
/// instance. The simulator workloads always replay protocol seed 1; the
/// real-time ones take the run's --seed.
struct InstanceSeeds {
  std::uint32_t uts_root_seed = 1;
  int bb_instance = 0;  ///< scaled Ta(21 + index), index in [0, 10)

  bool is_default() const { return uts_root_seed == 1 && bb_instance == 0; }
};

struct WorkloadSpec {
  const char* name = "";
  olb::lb::Backend backend = olb::lb::Backend::kSim;
  olb::lb::Strategy strategy = olb::lb::Strategy::kOverlayBTD;
  int peers = 0;
  int shards = 0;  ///< RunConfig::sim_shards
  bool bb = false;  ///< flowshop B&B; UTS otherwise
  int bb_jobs = 0;
  int bb_machines = 0;
  /// B&B: every solve starts from the known optimum as its upper bound, so
  /// the explored node count does not depend on incumbent luck.
  bool start_at_optimum = false;
  int uts_b0 = 0;
  double uts_q = 0;
  /// Idle-timer pacing factor for large n (retry_delay and bridge_patience
  /// multiplied by it); 1 leaves the protocol defaults.
  int pace = 1;
  /// When set, a run makes ceil(seconds / this) solves instead of solving
  /// until the time is up: socket ranks cannot agree on a wall-clock stop
  /// without talking, and runs of the long simulator solves should not
  /// differ in solve count with host speed.
  double nominal_solve_s = 0;

  /// Threads that run concurrently during a solve on this workload.
  int parallelism() const;
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name, Scale scale);

/// What every correct solve must produce; zero fields go unchecked.
struct Expectation {
  std::string source;             ///< "pinned" or "sequential"
  std::uint64_t units = 0;        ///< exact explored units
  std::uint64_t min_units = 0;    ///< lower bound on explored units
  std::int64_t optimum = 0;       ///< B&B optimum
  std::uint64_t events = 0;       ///< exact simulator events
  double exec_s = 0;              ///< simulated exec seconds, to 1e-6
  int shards = 0;                 ///< effective simulator shards
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, Scale scale, InstanceSeeds seeds, std::uint64_t seed);

  /// A fresh instance for one solve (B&B workloads own their incumbent, so
  /// every solve needs its own). `initial_ub` is the B&B starting bound.
  std::unique_ptr<olb::lb::Workload> make_workload(std::int64_t initial_ub) const;

  /// The RunConfig of every solve. Socket bring-up is left unconfigured.
  olb::lb::RunConfig config() const;
  std::uint64_t protocol_seed() const { return protocol_seed_; }

  /// Pinned values for the full-scale workloads at their default instance
  /// seeds; otherwise computed with olb::lb::run_sequential. Never timed.
  Expectation expect() const;

  /// Sequential reference on one thread: explored units and wall seconds.
  struct Sequential {
    std::uint64_t units = 0;
    std::int64_t bound = olb::lb::kNoBound;
    double wall_s = 0;
  };
  Sequential run_reference(std::int64_t initial_ub) const;

 private:
  WorkloadSpec spec_;
  Scale scale_;
  InstanceSeeds seeds_;
  std::uint64_t protocol_seed_;  ///< RunConfig::seed of every solve
};

/// Outcome of one solve as every backend reports it.
struct SolveOutcome {
  bool completed = false;  ///< the backend's ok flag
  std::uint64_t units = 0;
  std::int64_t bound = olb::lb::kNoBound;
  std::uint64_t events = 0;    ///< simulator only
  double exec_s = 0;           ///< simulator only
  int shards = 0;              ///< simulator only
  /// B&B: makespan of the reported solution, recomputed from its
  /// permutation; -1 when the solve reported none.
  std::int64_t solution_makespan = -1;
};

/// Empty when `got` meets `want`; otherwise why not.
std::string verify(const WorkloadSpec& spec, const Expectation& want,
                   const SolveOutcome& got);

}  // namespace perfbench
