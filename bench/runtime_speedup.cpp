// Shared-memory backend benchmark: the overlay protocol on real threads
// (runtime::run_threads) vs a raw work-stealing pool (steal::WorkStealingPool,
// the shared-memory analogue of the paper's RWS baseline) on one UTS tree,
// at 1..hardware_concurrency threads.
//
// Every run's node count is checked against the sequential traversal — the
// overlay on threads must explore exactly the tree, not approximately.
// Results go to --json as BENCH_runtime.json: the machine fingerprint, then
// per thread count the medians over --trials and every trial's value.
// BENCH_runtime.json is regenerated with
//
//   runtime_speedup --threads 1,2,4 --trials 5
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/runtime.hpp"
#include "steal/work_stealing_pool.hpp"
#include "support/meminfo.hpp"

using namespace olb;
using namespace olb::bench;

namespace {

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sequential traversal: the reference node count and the 1-core baseline
/// nothing can beat.
std::uint64_t sequential_nodes(lb::Workload& workload, double* wall_out) {
  auto work = workload.make_root_work();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t nodes = 0;
  while (!work->empty()) nodes += work->step(1 << 14).units_done;
  *wall_out = wall_since(t0);
  return nodes;
}

/// Raw work-stealing traversal: tasks step bounded chunks and feed the pool
/// by splitting half of their frontier off into a child task while it is
/// large enough to be worth sharing.
struct PoolTraversal {
  std::atomic<std::uint64_t>* nodes;
  std::uint64_t chunk;

  void run(steal::WorkStealingPool& pool, const std::shared_ptr<lb::Work>& w) const {
    while (!w->empty()) {
      if (w->amount() >= 16.0) {
        if (auto half = w->split(0.5)) {
          // shared_ptr only because TaskFn must be copyable; each piece
          // still has exactly one owner task.
          std::shared_ptr<lb::Work> piece(std::move(half));
          const PoolTraversal self = *this;
          pool.spawn([self, piece](steal::WorkStealingPool& p) { self.run(p, piece); });
        }
      }
      nodes->fetch_add(w->step(chunk).units_done, std::memory_order_relaxed);
    }
  }
};

std::uint64_t pool_nodes(lb::Workload& workload, unsigned threads,
                         std::uint64_t chunk, double* wall_out) {
  std::shared_ptr<lb::Work> root(workload.make_root_work());
  std::atomic<std::uint64_t> nodes{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    steal::WorkStealingPool pool(threads);
    const PoolTraversal traversal{&nodes, chunk};
    pool.spawn([&traversal, root](steal::WorkStealingPool& p) { traversal.run(p, root); });
    pool.wait_idle();
  }
  *wall_out = wall_since(t0);
  return nodes.load();
}

double median(const std::vector<double>& xs) { return SortedSample(xs).median(); }

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  RunFlagSpec spec;
  spec.peers = nullptr;
  spec.instance = false;
  spec.csv = false;
  spec.backend = false;  // this bench *is* the backend comparison
  spec.shards = false;   // simulator shards mean nothing on threads
  define_run_flags(flags, spec);
  flags.define("strategy", "TD", "overlay strategy (TD|TR|BTD)")
      .define("uts_seed", std::to_string(Defaults::kUtsSmallSeed), "UTS root seed")
      .define("b0", std::to_string(Defaults::kUtsB0), "UTS root branching factor")
      .define("q", std::to_string(Defaults::kUtsQ), "UTS branching probability")
      .define("threads", "", "thread counts (default: 1,2,4,.. up to cores)")
      .define("trials", "3", "runs per configuration (medians reported)")
      .define("chunk", "64", "overlay chunk size (units per mailbox poll)")
      .define("json", "BENCH_runtime.json", "result file");
  if (!flags.parse(argc, argv)) return 0;
  const RunFlags rf = parse_run_flags(flags);
  const lb::Strategy strategy = parse_strategy_flag(flags);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // A speedup benchmark on a single core measures only timesharing overhead:
  // every multi-thread row is meaningless. Still run (CI smoke value), but
  // warn loudly and stamp the condition into the JSON so nobody mistakes the
  // committed numbers for real scaling (that happened once — the original
  // BENCH_runtime.json was recorded on a 1-core host; see ROADMAP PR 3).
  const bool single_core = hw < 2;
  if (single_core) {
    std::fprintf(stderr,
                 "################################################################\n"
                 "# WARNING: hardware_concurrency=%u — this host cannot measure\n"
                 "# parallel speedup. All multi-thread rows below only timeshare\n"
                 "# one core; do NOT quote them as scaling numbers. The JSON is\n"
                 "# stamped with \"single_core\": true.\n"
                 "################################################################\n",
                 hw);
  }
  const int trials = static_cast<int>(flags.get_int("trials"));
  OLB_CHECK(trials >= 1);

  std::vector<unsigned> thread_counts;
  if (!flags.get("threads").empty()) {
    for (std::int64_t t : flags.get_int_list("threads")) {
      thread_counts.push_back(static_cast<unsigned>(t));
    }
  } else {
    for (unsigned t = 1; t < hw; t *= 2) thread_counts.push_back(t);
    thread_counts.push_back(hw);
  }

  print_preamble("runtime_speedup: overlay-on-threads vs raw work stealing",
                 "Real threads, real UTS work; wall-clock seconds.");
  std::printf("# hardware_concurrency=%u strategy=%s trials=%d\n\n", hw,
              lb::strategy_name(strategy), trials);

  auto make_workload = [&] {
    return make_uts(static_cast<std::uint32_t>(flags.get_int("uts_seed")),
                    static_cast<int>(flags.get_int("b0")), flags.get_double("q"));
  };

  auto workload = make_workload();
  double seq_wall = 0.0;
  const std::uint64_t seq_count = sequential_nodes(*workload, &seq_wall);
  std::printf("sequential: %llu nodes in %.3fs\n\n",
              static_cast<unsigned long long>(seq_count), seq_wall);

  Table table({"threads", "overlay_done_s", "overlay_wall_s", "pool_wall_s",
               "overlay_speedup", "pool_speedup"});
  struct Row {
    unsigned threads;
    double overlay_done, overlay_wall, pool_wall;  ///< medians over the trials
    std::vector<double> overlay_done_trials, overlay_wall_trials, pool_wall_trials;
  };
  std::vector<Row> rows;
  double overlay_base = 0.0, pool_base = 0.0;
  for (unsigned t : thread_counts) {
    std::vector<double> overlay_done, overlay_wall, pool_wall;
    for (int trial = 0; trial < trials; ++trial) {
      auto w = make_workload();
      auto config = uts_config(strategy, static_cast<int>(t),
                               rf.seed + static_cast<std::uint64_t>(trial));
      config.chunk_units = static_cast<std::uint64_t>(flags.get_int("chunk"));
      config.limits.time_limit = sim::seconds(300.0);  // wall watchdog
      const auto m = runtime::run_threads(*w, config);
      OLB_CHECK_MSG(m.ok, "overlay threads run did not terminate cleanly");
      OLB_CHECK_MSG(m.total_units == seq_count,
                    "overlay threads run lost or duplicated nodes");
      overlay_done.push_back(m.done_seconds);
      overlay_wall.push_back(m.wall_seconds);

      auto w2 = make_workload();
      double pw = 0.0;
      const std::uint64_t pool_count = pool_nodes(*w2, t, 4096, &pw);
      OLB_CHECK_MSG(pool_count == seq_count, "pool traversal lost nodes");
      pool_wall.push_back(pw);
    }
    Row row{t, median(overlay_done), median(overlay_wall), median(pool_wall),
            overlay_done, overlay_wall, pool_wall};
    if (rows.empty()) {
      overlay_base = row.overlay_done;
      pool_base = row.pool_wall;
    }
    rows.push_back(row);
    table.add_row({Table::cell(static_cast<std::int64_t>(t)),
                   Table::cell(row.overlay_done, 4), Table::cell(row.overlay_wall, 4),
                   Table::cell(row.pool_wall, 4),
                   Table::cell(overlay_base / row.overlay_done, 2),
                   Table::cell(pool_base / row.pool_wall, 2)});
  }
  table.print(std::cout);

  const std::string json_path = flags.get("json");
  if (!json_path.empty()) {
    auto list = [](const std::vector<double>& xs) {
      std::string out = "[";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        out += (i > 0 ? ", " : "") + Table::cell(xs[i], 6);
      }
      return out + "]";
    };
    std::ofstream out = open_output_file(json_path, "--json");
    out << "{\n  \"experiment\": \"runtime_speedup\",\n";
    write_fingerprint_json(out, git_sha());
    out << "  \"strategy\": \"" << lb::strategy_name(strategy) << "\",\n";
    out << "  \"single_core\": " << (single_core ? "true" : "false") << ",\n";
    out << "  \"trials\": " << trials << ",\n";
    out << "  \"uts\": {\"seed\": " << flags.get_int("uts_seed")
        << ", \"b0\": " << flags.get_int("b0") << ", \"q\": " << flags.get("q")
        << ", \"nodes\": " << seq_count << "},\n";
    out << "  \"sequential_wall_s\": " << seq_wall << ",\n";
    // Host-side memory footprint; bytes_per_peer counts a "peer" as one
    // thread of the largest row.
    const std::uint64_t rss_peak = support::peak_rss_bytes();
    const unsigned max_threads =
        thread_counts.empty() ? 1 : *std::max_element(thread_counts.begin(),
                                                      thread_counts.end());
    out << "  \"rss_peak_bytes\": " << rss_peak << ",\n";
    out << "  \"bytes_per_peer\": "
        << static_cast<double>(rss_peak) / static_cast<double>(max_threads)
        << ",\n";
    out << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"threads\": " << r.threads
          << ", \"overlay_done_s\": " << r.overlay_done
          << ", \"overlay_wall_s\": " << r.overlay_wall
          << ", \"pool_wall_s\": " << r.pool_wall
          << ", \"overlay_speedup\": " << overlay_base / r.overlay_done
          << ", \"pool_speedup\": " << pool_base / r.pool_wall
          << ",\n     \"trials_overlay_done_s\": " << list(r.overlay_done_trials)
          << ",\n     \"trials_overlay_wall_s\": " << list(r.overlay_wall_trials)
          << ",\n     \"trials_pool_wall_s\": " << list(r.pool_wall_trials) << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\n# wrote %s\n", json_path.c_str());
  }
  return 0;
}
