// Fault sweep — robustness of the overlay (BTD) against random work
// stealing as the network degrades: message-drop probability rises along
// one axis, the number of crashed peers along the other.
//
// The workload is UTS, whose total node count is a run-invariant, so the
// "explored" column doubles as a correctness check: a run that lost no
// in-flight work (lost_units == 0) must explore exactly 100% of the tree,
// and any shortfall is bounded by what the crashes destroyed. Execution
// time under faults includes every retransmission timeout and the
// termination-detection tail, so this sweep measures the real price of the
// recovery machinery, not just the happy path.
//
// Cells are capped by --event-limit: a protocol whose retry traffic explodes
// (RWS at high drop rates) reports DNF instead of aborting the sweep — that
// collapse is the measurement, not an error.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "simnet/faults.hpp"

using namespace olb;
using namespace olb::bench;

namespace {

/// Random crash victims that spare both peer 0 (overlay root / MW master)
/// and the RWS initiator, so one plan is valid for every swept strategy.
sim::FaultPlan crashes_for(int count, int n, std::uint64_t run_seed,
                           std::uint64_t salt) {
  const int initiator = lb::rws_initiator(run_seed, n);
  for (std::uint64_t attempt = 0;; ++attempt) {
    sim::FaultPlan plan = sim::make_random_crashes(
        count, n, sim::milliseconds(1), sim::milliseconds(20),
        mix64(salt ^ attempt * 0x9e3779b97f4a7c15ull));
    bool ok = true;
    for (const auto& c : plan.crashes) ok = ok && c.peer != initiator;
    if (ok) return plan;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  define_run_flags(flags, {.peers = "64", .instance = false});
  flags.define("drops", "0,0.01,0.05,0.1,0.2",
               "comma-separated drop probabilities")
      .define("crash_counts", "0,2,4", "comma-separated crashed-peer counts")
      .define("uts_seed", "77", "UTS root seed")
      .define("uts_b0", "500", "UTS root branching factor")
      .define("event-limit", "60000000",
              "per-cell simulation event budget; exceeding it scores DNF")
      .define("fault-salt", "0", "extra key for the fault RNG stream");
  if (!flags.parse(argc, argv)) return 0;
  const RunFlags rf = parse_run_flags(flags);
  const int n = rf.peers;
  const auto salt = static_cast<std::uint64_t>(flags.get_int("fault-salt"));

  print_preamble("Fault sweep: BTD vs RWS under message loss and crashes",
                 "UTS workload; explored=100% required whenever lost=0");

  const std::vector<double> drops = flags.get_double_list("drops");

  auto uts = make_uts(static_cast<std::uint32_t>(flags.get_int("uts_seed")),
                      static_cast<int>(flags.get_int("uts_b0")));
  const auto seq = lb::run_sequential(*uts);

  const lb::Strategy strategies[] = {lb::Strategy::kOverlayBTD, lb::Strategy::kRWS};
  Table table({"strategy", "drop", "crashes", "exec_sec", "retries", "dropped",
               "lost_units", "explored_pct"});
  for (lb::Strategy s : strategies) {
    for (double drop : drops) {
      for (std::int64_t crash_count : flags.get_int_list("crash_counts")) {
        lb::RunConfig config = uts_config(s, n, rf.seed);
        if (crash_count > 0) {
          config.faults =
              crashes_for(static_cast<int>(crash_count), n, rf.seed, salt);
        }
        config.faults.link.drop_prob = drop;
        config.faults.link.dup_prob = drop / 2;
        config.faults.link.spike_prob = drop / 2;
        config.faults.salt = salt;
        config.limits.event_limit =
            static_cast<std::uint64_t>(flags.get_int("event-limit"));
        const auto m = lb::run_distributed(*uts, config);
        if (!m.ok) {
          // The cell exhausted its event budget before terminating: the
          // protocol is thrashing, not the simulator. Record the collapse.
          table.add_row({lb::strategy_name(s), Table::cell(drop, 2),
                         Table::cell(static_cast<std::uint64_t>(crash_count)),
                         "DNF", Table::cell(m.retries),
                         Table::cell(m.msgs_dropped),
                         Table::cell(m.work_lost_units, 1), "-"});
          continue;
        }
        const double explored =
            100.0 * static_cast<double>(m.total_units) /
            static_cast<double>(seq.units);
        if (m.work_lost_units == 0.0 && m.total_units != seq.units) {
          std::fprintf(stderr,
                       "FATAL: nothing lost but %llu != %llu nodes explored\n",
                       static_cast<unsigned long long>(m.total_units),
                       static_cast<unsigned long long>(seq.units));
          return 1;
        }
        table.add_row({lb::strategy_name(s), Table::cell(drop, 2),
                       Table::cell(static_cast<std::uint64_t>(crash_count)),
                       Table::cell(m.exec_seconds, 4), Table::cell(m.retries),
                       Table::cell(m.msgs_dropped),
                       Table::cell(m.work_lost_units, 1),
                       Table::cell(explored, 2)});
      }
    }
  }
  print_ladder(table, rf.csv,
               "BTD finishes every cell, its retries grow with the drop rate "
               "and its exec time degrades gracefully; RWS retry traffic "
               "explodes at high drop rates (DNF = event budget exhausted); "
               "crashes cost at most the victims' in-flight work.");
  return 0;
}
