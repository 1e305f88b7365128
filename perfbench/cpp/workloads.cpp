#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bb/bb_work.hpp"
#include "bb/flowshop.hpp"
#include "uts/uts_work.hpp"

namespace perfbench {
namespace {

using olb::lb::Backend;
using olb::lb::Strategy;

// Full scale. sim_bb_1k is the rightmost point of the paper's Fig. 5 (Ta21s,
// BTD, n = 1000); sharded_uts_100k is the large-n per-event-cost regime with
// the scale pacing rule of docs/SCALING.md (n / 1000); threads_uts_4 and
// sockets_bb_4 are the two real-time backends at one peer per core.
// sharded_uts_100k makes one solve per run at the benchmark's 20 s: a
// second solve's memory high-water mark is bimodal (399 or 446 MB).
const WorkloadSpec kFull[] = {
    {.name = "sim_bb_1k", .backend = Backend::kSim, .strategy = Strategy::kOverlayBTD,
     .peers = 1000, .bb = true, .bb_jobs = 13, .bb_machines = 8, .nominal_solve_s = 5},
    {.name = "sharded_uts_100k", .backend = Backend::kSim,
     .strategy = Strategy::kOverlayBTD, .peers = 100000, .shards = 4,
     .uts_b0 = 2000, .uts_q = 0.49995, .pace = 100, .nominal_solve_s = 20},
    {.name = "threads_uts_4", .backend = Backend::kThreads,
     .strategy = Strategy::kOverlayTD, .peers = 4, .uts_b0 = 2000, .uts_q = 0.49995},
    {.name = "sockets_bb_4", .backend = Backend::kSockets,
     .strategy = Strategy::kOverlayBTD, .peers = 4, .bb = true, .bb_jobs = 13,
     .bb_machines = 8, .start_at_optimum = true, .nominal_solve_s = 0.3},
};

// Smoke scale: the same paths on instances that solve in milliseconds, for
// the benchmark's own tests. The sharded variant keeps enough 736-peer
// clusters for four shards.
const WorkloadSpec kSmoke[] = {
    {.name = "sim_bb_1k", .backend = Backend::kSim, .strategy = Strategy::kOverlayBTD,
     .peers = 64, .bb = true, .bb_jobs = 9, .bb_machines = 5},
    {.name = "sharded_uts_100k", .backend = Backend::kSim,
     .strategy = Strategy::kOverlayBTD, .peers = 3000, .shards = 4,
     .uts_b0 = 100, .uts_q = 0.499, .pace = 3},
    {.name = "threads_uts_4", .backend = Backend::kThreads,
     .strategy = Strategy::kOverlayTD, .peers = 4, .uts_b0 = 100, .uts_q = 0.499},
    {.name = "sockets_bb_4", .backend = Backend::kSockets,
     .strategy = Strategy::kOverlayBTD, .peers = 4, .bb = true, .bb_jobs = 9,
     .bb_machines = 5, .start_at_optimum = true, .nominal_solve_s = 0.05},
};

// Chunk sizes the repository's benches calibrate for each workload kind.
constexpr std::uint64_t kChunkBB = 32;
constexpr std::uint64_t kChunkUTS = 64;

// A simulated run is a pure function of its protocol seed, and other seeds
// change the work of these workloads by 30-40 % (README.md, "Seeds"), so the
// simulator workloads replay one trajectory whatever the run's --seed is.
constexpr std::uint64_t kSimProtocolSeed = 1;

// Pinned outcomes of the full-scale workloads at the default instance seeds.
constexpr std::uint64_t kUtsNodes = 6'901'311;
constexpr std::int64_t kTa21sOptimum = 1224;
constexpr std::uint64_t kTa21sNodesFromOptimum = 10'751'905;
// The simulator trajectories at kSimProtocolSeed.
constexpr std::uint64_t kSimBBNodes = 16'434'257;
constexpr std::uint64_t kSimBBEvents = 5'293'379;
constexpr double kSimBBExecS = 0.411934;
constexpr std::uint64_t kShardedEvents = 33'368'258;

}  // namespace

int WorkloadSpec::parallelism() const {
  if (backend == Backend::kSim) return shards >= 2 ? shards : 1;
  return peers;
}

const WorkloadSpec* find_workload(const std::string& name, Scale scale) {
  for (const WorkloadSpec& spec : scale == Scale::kFull ? kFull : kSmoke) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Bench::Bench(const WorkloadSpec& spec, Scale scale, InstanceSeeds seeds, std::uint64_t seed)
    : spec_(spec),
      scale_(scale),
      seeds_(seeds),
      protocol_seed_(spec.backend == Backend::kSim ? kSimProtocolSeed : seed) {}

std::unique_ptr<olb::lb::Workload> Bench::make_workload(std::int64_t initial_ub) const {
  if (spec_.bb) {
    return std::make_unique<olb::bb::BBWorkload>(
        olb::bb::FlowshopInstance::ta20x20_scaled(seeds_.bb_instance, spec_.bb_jobs,
                                                  spec_.bb_machines),
        olb::bb::BoundKind::kOneMachine, olb::bb::CostModel{}, initial_ub);
  }
  olb::uts::Params p;
  p.shape = olb::uts::TreeShape::kBinomial;
  p.hash = olb::uts::HashMode::kFast;
  p.b0 = spec_.uts_b0;
  p.q = spec_.uts_q;
  p.m = 2;
  p.root_seed = seeds_.uts_root_seed;
  return std::make_unique<olb::uts::UtsWorkload>(p, olb::uts::CostModel{});
}

olb::lb::RunConfig Bench::config() const {
  olb::lb::RunConfig c;
  c.strategy = spec_.strategy;
  c.num_peers = spec_.peers;
  c.seed = protocol_seed_;
  c.net = olb::lb::paper_network(spec_.peers);
  c.chunk_units = spec_.bb ? kChunkBB : kChunkUTS;
  c.backend = spec_.backend;
  c.sim_shards = spec_.shards;
  if (spec_.pace > 1) {
    c.overlay.retry_delay *= spec_.pace;
    c.overlay.bridge_patience *= spec_.pace;
    c.limits.event_limit = 4'000'000'000ull;
  }
  if (spec_.backend != Backend::kSim) {
    // Wall-clock watchdog: a correct solve takes well under a second.
    c.limits.time_limit = olb::sim::seconds(60.0);
  }
  return c;
}

Bench::Sequential Bench::run_reference(std::int64_t initial_ub) const {
  auto workload = make_workload(initial_ub);
  const auto t0 = std::chrono::steady_clock::now();
  const olb::lb::SequentialMetrics m = olb::lb::run_sequential(*workload);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  return {.units = m.units, .bound = m.bound, .wall_s = wall.count()};
}

Expectation Bench::expect() const {
  Expectation e;
  e.shards = spec_.backend == Backend::kSim && spec_.shards >= 2 ? spec_.shards : 0;
  if (scale_ == Scale::kFull && seeds_.is_default()) {
    e.source = "pinned";
    if (spec_.bb) {
      e.optimum = kTa21sOptimum;
      if (spec_.start_at_optimum) e.min_units = kTa21sNodesFromOptimum;
    } else {
      e.units = kUtsNodes;
    }
    if (std::string(spec_.name) == "sim_bb_1k") {
      e.units = kSimBBNodes;
      e.events = kSimBBEvents;
      e.exec_s = kSimBBExecS;
    }
    if (std::string(spec_.name) == "sharded_uts_100k") {
      e.events = kShardedEvents;
    }
    return e;
  }
  e.source = "sequential";
  const Sequential plain = run_reference(olb::lb::kNoBound);
  if (spec_.bb) {
    e.optimum = plain.bound;
    if (spec_.start_at_optimum) e.min_units = run_reference(plain.bound).units;
  } else {
    e.units = plain.units;
  }
  return e;
}

std::string verify(const WorkloadSpec& spec, const Expectation& want,
                   const SolveOutcome& got) {
  char why[160];
  if (!got.completed) return "the backend reported an incomplete run (watchdog)";
  if (want.units != 0 && got.units != want.units) {
    std::snprintf(why, sizeof why, "explored %llu units, expected %llu",
                  static_cast<unsigned long long>(got.units),
                  static_cast<unsigned long long>(want.units));
    return why;
  }
  if (got.units < want.min_units) {
    std::snprintf(why, sizeof why, "explored %llu units, expected at least %llu",
                  static_cast<unsigned long long>(got.units),
                  static_cast<unsigned long long>(want.min_units));
    return why;
  }
  if (spec.bb) {
    if (got.bound != want.optimum) {
      std::snprintf(why, sizeof why, "best bound %lld, expected optimum %lld",
                    static_cast<long long>(got.bound),
                    static_cast<long long>(want.optimum));
      return why;
    }
    // A solve that started above the optimum must also hand back a schedule
    // that achieves it.
    if (!spec.start_at_optimum && got.solution_makespan != want.optimum) {
      std::snprintf(why, sizeof why, "reported schedule has makespan %lld, expected %lld",
                    static_cast<long long>(got.solution_makespan),
                    static_cast<long long>(want.optimum));
      return why;
    }
  }
  if (want.events != 0 && got.events != want.events) {
    std::snprintf(why, sizeof why, "%llu simulator events, expected %llu",
                  static_cast<unsigned long long>(got.events),
                  static_cast<unsigned long long>(want.events));
    return why;
  }
  if (want.exec_s != 0 && std::fabs(got.exec_s - want.exec_s) > 5e-7) {
    std::snprintf(why, sizeof why, "simulated exec %.9f s, expected %.6f s", got.exec_s,
                  want.exec_s);
    return why;
  }
  if (want.shards != 0 && got.shards != want.shards) {
    std::snprintf(why, sizeof why, "ran %d simulator shards, expected %d", got.shards,
                  want.shards);
    return why;
  }
  return "";
}

}  // namespace perfbench
