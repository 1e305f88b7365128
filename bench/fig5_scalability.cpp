// Fig. 5 — execution time AND parallel efficiency of BTD vs RWS:
//   top    : B&B instances Ta21s and Ta23s, n = 200..1000,
//   bottom : UTS (binomial), n = 128..512.
// PE(n) = t_seq / (n * t_par) with t_seq the sequential time of the same
// instance, as in the paper: simulated seconds on the simulator, and on
// threads and sockets the wall seconds of the same sequential run, so both
// times of a PE cell come from one clock (the section headers name it).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "support/meminfo.hpp"

using namespace olb;
using namespace olb::bench;

int main(int argc, char** argv) {
  Flags flags;
  define_run_flags(flags, {.peers = nullptr, .instance = false});
  flags.define("scales", "200,400,600,800,1000", "B&B peer counts")
      .define("uts_scales", "128,192,256,320,384,448,512", "UTS peer counts")
      .define("jobs21", std::to_string(Defaults::kBigJobs), "jobs for Ta21s")
      .define("jobs23", std::to_string(Defaults::kBig23Jobs), "jobs for Ta23s")
      .define("machines", std::to_string(Defaults::kBigMachines), "flowshop machines")
      .define("uts_seed", std::to_string(Defaults::kUtsBigSeed), "UTS root seed")
      .define("print-units", "false",
              "print a '# units:' line per run (UTS lines are "
              "schedule-independent — the cross-backend equivalence check)")
      .define("big_scales", "",
              "extra UTS peer counts for the sharded scale ladder (e.g. "
              "100000,300000,1000000; empty = off; see docs/SCALING.md)")
      .define("big_strategies", "BTD",
              "strategies for the scale ladder (comma-separated)")
      .define("scale-pacing", "true",
              "pace idle-retry timers proportionally to n above 1000 peers "
              "(docs/SCALING.md): without it, termination at n>=10^4 is a "
              "request storm that dominates the event count")
      .define("scale-json", "",
              "write the scale-ladder measurements as JSON to this path");
  define_trace_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const RunFlags rf = parse_run_flags(flags);
  const auto seed = rf.seed;
  const int machines = static_cast<int>(flags.get_int("machines"));
  const bool csv = rf.csv;
  const bool print_units = flags.get_bool("print-units");

  print_preamble("Fig 5: BTD vs RWS — execution time and parallel efficiency",
                 "top: B&B Ta21s/Ta23s; bottom: UTS binomial");

  // Sequential references.
  double seq[2];
  for (int which = 0; which < 2; ++which) {
    auto workload = make_bb(which == 0 ? 0 : 2,
                            static_cast<int>(flags.get_int(which == 0 ? "jobs21" : "jobs23")),
                            machines);
    seq[which] = run_sequential_on(*workload, rf.backend).exec_seconds;
  }
  const char* unit = clock_unit(rf.backend);
  // Simulated references are whole seconds; a wall-clock one can be
  // milliseconds, so it keeps three significant digits.
  const auto t_seq = [&](double seconds) {
    char buf[32];
    std::snprintf(buf, sizeof buf, rf.backend == lb::Backend::kSim ? "%.2f" : "%.3g",
                  seconds);
    return std::string(buf) + " " + unit;
  };

  for (int which = 0; which < 2; ++which) {
    const int idx = which == 0 ? 0 : 2;
    const int jobs =
        static_cast<int>(flags.get_int(which == 0 ? "jobs21" : "jobs23"));
    std::printf("== B&B Ta%ds (%dx%d, t_seq = %s) ==\n", 21 + idx, jobs, machines,
                t_seq(seq[which]).c_str());
    Table table({"n", "BTD_sec", "BTD_PE%", "RWS_sec", "RWS_PE%"});
    for (std::int64_t n : flags.get_int_list("scales")) {
      std::vector<std::string> row = {Table::cell(n)};
      for (auto strategy : {lb::Strategy::kOverlayBTD, lb::Strategy::kRWS}) {
        auto workload = make_bb(idx, jobs, machines);
        const auto metrics = run_checked(
            *workload, bb_config(strategy, static_cast<int>(n), seed), "fig5 bb");
        if (print_units) {
          std::printf("# units: fig5 bb Ta%ds n=%lld %s units=%llu\n", 21 + idx,
                      static_cast<long long>(n), lb::strategy_name(strategy),
                      static_cast<unsigned long long>(metrics.total_units));
        }
        row.push_back(Table::cell(metrics.exec_seconds, 4));
        row.push_back(Table::cell(
            100.0 * metrics.parallel_efficiency(seq[which], static_cast<int>(n)), 1));
      }
      table.add_row(std::move(row));
    }
    if (csv) table.print_csv(std::cout); else table.print(std::cout);
    std::printf("\n");
  }

  auto uts_ref = make_uts(static_cast<std::uint32_t>(flags.get_int("uts_seed")));
  // The sequential run also gives the exact node count every distributed
  // run of this instance must reproduce (checked on the scale ladder).
  const lb::SequentialMetrics uts_seq_run = run_sequential_on(*uts_ref, rf.backend);
  const double uts_seq = uts_seq_run.exec_seconds;
  std::printf("== UTS binomial (b0=2000, m=2, q=0.49995, r=%s; t_seq = %s) ==\n",
              flags.get("uts_seed").c_str(), t_seq(uts_seq).c_str());
  Table uts_table({"n", "BTD_sec", "BTD_PE%", "RWS_sec", "RWS_PE%", "BTD_qmean_us"});
  double worst_btd_pe = 2.0;
  lb::RunConfig worst_btd_config;
  for (std::int64_t n : flags.get_int_list("uts_scales")) {
    std::vector<std::string> row = {Table::cell(n)};
    std::string qd_cell;
    for (auto strategy : {lb::Strategy::kOverlayBTD, lb::Strategy::kRWS}) {
      auto workload = make_uts(static_cast<std::uint32_t>(flags.get_int("uts_seed")));
      const auto config = uts_config(strategy, static_cast<int>(n), seed);
      const auto metrics = run_checked(*workload, config, "fig5 uts");
      if (print_units) {
        std::printf("# units: fig5 uts n=%lld %s units=%llu\n",
                    static_cast<long long>(n), lb::strategy_name(strategy),
                    static_cast<unsigned long long>(metrics.total_units));
      }
      row.push_back(Table::cell(metrics.exec_seconds, 4));
      const double pe =
          metrics.parallel_efficiency(uts_seq, static_cast<int>(n));
      row.push_back(Table::cell(100.0 * pe, 1));
      if (strategy == lb::Strategy::kOverlayBTD) {
        qd_cell = Table::cell(metrics.queueing_delay_mean * 1e6, 3);
        if (pe < worst_btd_pe) {
          worst_btd_pe = pe;
          worst_btd_config = config;
        }
      }
    }
    row.push_back(std::move(qd_cell));
    uts_table.add_row(std::move(row));
  }
  if (csv) uts_table.print_csv(std::cout); else uts_table.print(std::cout);
  std::printf("\n# Expected shape (paper): BTD's PE degrades slowly with n while "
              "RWS's drops at the largest scales. Note (EXPERIMENTS.md): with "
              "scaled instances the absolute PE at the largest n is capped by "
              "the workload's frontier size, not the protocol.\n");
  if (worst_btd_pe <= 1.0) {
    auto workload = make_uts(static_cast<std::uint32_t>(flags.get_int("uts_seed")));
    dump_trace_if_requested(flags, *workload, worst_btd_config,
                            "fig5 worst-PE UTS BTD run");
  }

  // --- sharded scale ladder (n = 10^5..10^6; docs/SCALING.md) ---
  // Same UTS instance as the figure, pushed to peer counts the single-queue
  // engine cannot hold. Reports *host-side* cost (wall-clock, peak RSS,
  // bytes per peer) next to the simulated metrics — the numbers the scale
  // playbook budgets against. Peak RSS is a process-wide high-water mark, so
  // in an ascending ladder each row reflects its own n; for exact per-n
  // footprints run one scale per process.
  const std::string big_spec = flags.get("big_scales");
  if (!big_spec.empty()) {
    const auto big_strategies =
        parse_strategy_list(flags.get("big_strategies"), false, "big_strategies");
    std::printf("== UTS scale ladder (--shards=%d requested) ==\n", rf.sim_shards);
    Table big({"n", "strat", "shards", "windows", "wall_s", "sim_s", "Mevents",
               "rss_peak_mb", "bytes_per_peer"});
    std::string json_runs;
    for (std::int64_t n : flags.get_int_list("big_scales")) {
      for (lb::Strategy strategy : big_strategies) {
        auto workload =
            make_uts(static_cast<std::uint32_t>(flags.get_int("uts_seed")));
        auto config = uts_config(strategy, static_cast<int>(n), seed);
        if (flags.get_bool("scale-pacing") && n > 1000) {
          // Idle-retry traffic is ~ n x (starvation window / retry_delay):
          // at the paper's scales (n <= 10^3) the default 100us pacing is
          // invisible, but by n = 10^4 the termination wave turns it into a
          // request storm that multiplies the event count several-fold.
          // Stretch the idle timers in proportion to n — a deployment-tuning
          // knob (OverlayTuning), not a protocol change; docs/SCALING.md
          // derives the scaling.
          const auto pace = static_cast<sim::Time>(n / 1000);
          config.overlay.retry_delay *= pace;
          config.overlay.bridge_patience *= pace;
          // Watchdog, not a meter: at 10^5+ peers even the paced run needs
          // more than the default 400M-event headroom.
          config.limits.event_limit = 4'000'000'000ull;
        }
        const auto wall_begin = std::chrono::steady_clock::now();
        const auto metrics = run_checked(*workload, config, "fig5 scale ladder");
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_begin)
                .count();
        const std::uint64_t rss_peak = support::peak_rss_bytes();
        const double bytes_per_peer =
            static_cast<double>(rss_peak) / static_cast<double>(n);
        if (print_units) {
          std::printf("# units: fig5 scale n=%lld %s shards=%d units=%llu\n",
                      static_cast<long long>(n), lb::strategy_name(strategy),
                      metrics.sim_shards,
                      static_cast<unsigned long long>(metrics.total_units));
        }
        if (metrics.total_units != uts_seq_run.units) {
          std::fprintf(stderr,
                       "FATAL: fig5 scale ladder n=%lld %s explored %llu units, "
                       "the sequential count is %llu\n",
                       static_cast<long long>(n), lb::strategy_name(strategy),
                       static_cast<unsigned long long>(metrics.total_units),
                       static_cast<unsigned long long>(uts_seq_run.units));
          return 1;
        }
        big.add_row({Table::cell(n), lb::strategy_name(strategy),
                     Table::cell(static_cast<std::int64_t>(metrics.sim_shards)),
                     Table::cell(static_cast<std::int64_t>(metrics.sim_windows)),
                     Table::cell(wall_s, 2), Table::cell(metrics.exec_seconds, 3),
                     Table::cell(static_cast<double>(metrics.events) / 1e6, 1),
                     Table::cell(static_cast<double>(rss_peak) / (1024.0 * 1024.0), 1),
                     Table::cell(bytes_per_peer, 0)});
        char buf[640];
        std::snprintf(
            buf, sizeof buf,
            "%s    {\"n\": %lld, \"strategy\": \"%s\", \"shards\": %d, "
            "\"windows\": %llu, \"wall_seconds\": %.3f, \"sim_seconds\": %.6f, "
            "\"last_compute_seconds\": %.6f, \"events\": %llu, "
            "\"total_messages\": %llu, \"work_requests\": %llu, "
            "\"total_units\": %llu, \"rss_peak_bytes\": %llu, "
            "\"bytes_per_peer\": %.1f}",
            json_runs.empty() ? "" : ",\n", static_cast<long long>(n),
            lb::strategy_name(strategy), metrics.sim_shards,
            static_cast<unsigned long long>(metrics.sim_windows), wall_s,
            metrics.exec_seconds, metrics.last_compute_seconds,
            static_cast<unsigned long long>(metrics.events),
            static_cast<unsigned long long>(metrics.total_messages),
            static_cast<unsigned long long>(metrics.work_requests),
            static_cast<unsigned long long>(metrics.total_units),
            static_cast<unsigned long long>(rss_peak), bytes_per_peer);
        json_runs += buf;
      }
    }
    print_ladder(big, csv,
                 "wall_s grows roughly linearly in n (events per peer are "
                 "~flat) and bytes_per_peer stays in the low-KB range — the "
                 "docs/SCALING.md budget. A super-linear wall_s or a "
                 "bytes_per_peer jump is a scalability regression.");
    const std::string json_path = flags.get("scale-json");
    if (!json_path.empty()) {
      std::ofstream out = open_output_file(json_path, "--scale-json");
      out << "{\n  \"schema\": \"olb-scale-ladder-v1\",\n"
          << "  \"workload\": \"uts\",\n  \"uts_seed\": "
          << flags.get_int("uts_seed") << ",\n  \"seed\": " << seed
          << ",\n  \"shards_requested\": " << rf.sim_shards
          << ",\n  \"runs\": [\n"
          << json_runs << "\n  ]\n}\n";
      std::printf("# scale ladder JSON -> %s\n", json_path.c_str());
    }
  }
  return 0;
}
