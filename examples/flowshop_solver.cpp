// Solve a permutation flowshop instance to optimality with distributed
// Branch-and-Bound, under any of the load-balancing strategies, and print
// the optimal schedule.
//
//   $ ./examples/flowshop_solver --instance 21 --jobs 12 --machines 8
//         --strategy btd --peers 200   (one line)
//
// Runs on any registered transport (--backend=sim|threads|sockets). A
// socket run launches one process per rank (see tools/olb_launch); the
// result exchange merges the globally best schedule into every process, so
// all ranks print the identical optimum.
#include <cstdio>
#include <string>

#include "bb/bb_work.hpp"
#include "bench_common.hpp"
#include "lb/driver.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  using namespace olb;

  Flags flags;
  flags.define("instance", "21", "Taillard 20x20 instance number (21..30)")
      .define("strategy", "btd", lb::strategy_names())
      .define("dmax", "10", "overlay degree")
      .define("two_machine_bound", "false", "use the stronger LB2 bound")
      .define("neh_warm_start", "false", "start from the NEH heuristic bound");
  bench::RunFlagSpec spec;
  spec.csv = false;
  spec.metrics = false;
  bench::define_run_flags(flags, spec);
  if (!flags.parse(argc, argv)) return 0;
  const bench::RunFlags rf = bench::parse_run_flags(flags);

  const auto inst = bb::FlowshopInstance::ta20x20_scaled(
      static_cast<int>(flags.get_int("instance")) - 21, rf.jobs, rf.machines);
  std::printf("instance %s: %d jobs x %d machines (genuine Taillard seed)\n",
              inst.name().c_str(), inst.jobs(), inst.machines());

  const auto kind = flags.get_bool("two_machine_bound") ? bb::BoundKind::kTwoMachine
                                                        : bb::BoundKind::kOneMachine;
  std::int64_t initial_ub = lb::kNoBound;
  if (flags.get_bool("neh_warm_start")) {
    const auto neh = bb::neh_heuristic(inst);
    initial_ub = inst.makespan(neh) + 1;  // +1: keep the NEH schedule reachable
    std::printf("NEH warm start: makespan %lld\n",
                static_cast<long long>(initial_ub - 1));
  }
  bb::BBWorkload workload(inst, kind, bb::CostModel{}, initial_ub);

  const lb::Strategy strategy = bench::parse_strategy_flag(flags);
  const lb::RunConfig config = bench::bb_config(
      strategy, rf.peers, rf.seed, static_cast<int>(flags.get_int("dmax")));

  // run_checked dispatches through runtime::run on config.backend and
  // aborts on an unclean run; every backend solves to optimality.
  const auto metrics = bench::run_checked(workload, config, "flowshop_solver");

  const auto perm = workload.best().permutation();
  std::printf("\noptimal makespan: %lld (proved optimal by exhausting the "
              "interval [0, %d!))\n",
              static_cast<long long>(workload.best().makespan()), inst.jobs());
  std::printf("optimal job order:");
  for (int j : perm) std::printf(" %d", j);
  std::printf("\n");

  // Per-machine completion times of the optimal schedule.
  std::vector<std::int64_t> completion(static_cast<std::size_t>(inst.machines()), 0);
  for (int j : perm) inst.advance(completion, j);
  std::printf("machine completion times:");
  for (std::int64_t c : completion) std::printf(" %lld", static_cast<long long>(c));
  std::printf("\n");

  std::printf("\nrun: %s on %d peers — %.4f %s seconds, %llu B&B nodes, "
              "%llu messages\n",
              lb::strategy_name(strategy), config.num_peers, metrics.exec_seconds,
              config.backend == lb::Backend::kSim ? "simulated" : "wall",
              static_cast<unsigned long long>(metrics.total_units),
              static_cast<unsigned long long>(metrics.total_messages));
  return 0;
}
