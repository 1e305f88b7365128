// Shared infrastructure for the paper-reproduction bench harnesses.
//
// Every binary in bench/ regenerates one table or figure of the paper.
// Because the substrate is a simulator (see DESIGN.md §2), workloads are
// scaled: the flowshop instances are the leading jobs x machines submatrices
// of the genuine Taillard 20x20 instances, and UTS trees are near-critical
// binomial trees of 10^6..10^8 nodes. Flags on every binary let you change
// scales, trials and instance sizes.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bb/bb_work.hpp"
#include "lb/driver.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "uts/uts_work.hpp"

namespace olb::bench {

/// Calibrated defaults (see EXPERIMENTS.md "Calibration").
struct Defaults {
  // B&B instance families.
  static constexpr int kSmallJobs = 12;     ///< Table I/II, Figs 1-3
  static constexpr int kSmallMachines = 8;
  static constexpr int kBigJobs = 13;       ///< Fig 4 / Fig 5 (Ta21s)
  static constexpr int kBigMachines = 8;
  static constexpr int kBig23Jobs = 14;     ///< Fig 4 / Fig 5 (Ta23s)

  // UTS instances (binomial, m=2, q near critical).
  static constexpr double kUtsQ = 0.49995;
  static constexpr int kUtsB0 = 2000;
  static constexpr std::uint32_t kUtsBigSeed = 8;    ///< ~18.5M nodes
  static constexpr std::uint32_t kUtsSmallSeed = 1;  ///< ~6.9M nodes

  static constexpr std::uint64_t kChunkBB = 32;
  static constexpr std::uint64_t kChunkUTS = 64;
};

/// Which of the shared run flags a binary wants, and their defaults.
/// Members set to nullptr / false suppress the corresponding flag entirely
/// (e.g. the scaling sweeps take `--scales`, not `--peers`).
struct RunFlagSpec {
  const char* peers = "200";  ///< default for --peers; nullptr = no flag
  bool instance = true;       ///< --jobs / --machines (scaled flowshop)
  int jobs = Defaults::kSmallJobs;
  int machines = Defaults::kSmallMachines;
  bool seed = true;  ///< --seed
  bool csv = true;   ///< --csv
  /// --backend (sim, threads or sockets; lb::backend_from_name) plus the
  /// socket bring-up flags --rank / --peer-addrs / --socket-trace and the
  /// --time-limit-ms wall-clock watchdog.
  bool backend = true;
  bool metrics = true;  ///< --metrics / --metrics-interval (live telemetry)
  /// --shards (simulator event-queue shards; see docs/SCALING.md). 0 (the
  /// default) and 1 both run one shard.
  bool shards = true;
};

/// Registers the flags shared by the bench mains according to `spec`.
Flags& define_run_flags(Flags& flags, const RunFlagSpec& spec = {});

/// The parsed values. Fields whose flag was suppressed keep these zeros.
struct RunFlags {
  int peers = 0;
  int jobs = 0;
  int machines = 0;
  std::uint64_t seed = 1;
  bool csv = false;
  lb::Backend backend = lb::Backend::kSim;
  int sim_shards = 0;  ///< --shards (0 or 1 = one shard)
};

/// Reads back whichever of the shared flags were defined. Parsing --backend
/// also makes it the default backend of every RunConfig subsequently built
/// by bb_config/uts_config, so each bench main honours the flag without
/// threading it through by hand. Parsing --metrics likewise builds the
/// process-wide MetricsHub (see metrics_hub below) that those configs carry,
/// and the socket bring-up flags (--rank / --peer-addrs / --socket-trace)
/// arm the SocketBringup those configs carry. A `--peers` value containing
/// ':' is read as the comma-separated address table itself (its length sets
/// the peer count). `--time-limit-ms` > 0 starts a detached wall-clock
/// watchdog that kills the process with exit code 124 — the multi-process
/// hang brake.
RunFlags parse_run_flags(const Flags& flags);

/// The process-wide live-metrics hub, built by parse_run_flags when
/// --metrics=<path> was given (shard count sized for the chosen backend,
/// interval from --metrics-interval in ms). Null when metrics are off.
/// Every RunConfig built by bb_config/uts_config carries this pointer, so
/// each bench main streams telemetry without threading it through by hand.
metrics::MetricsHub* metrics_hub();

/// Parses `--<flag>` through lb::strategy_from_name, aborting with the
/// list of valid names on a typo.
lb::Strategy parse_strategy_flag(const Flags& flags, const char* flag = "strategy");

/// Registers the shared fault-injection flags: --drop / --dup / --spike
/// (per-message probabilities), --spike-ms, --crashes (random victims),
/// --crash-from-ms / --crash-to-ms (the crash window) and --fault-salt.
/// All-zero defaults mean the resulting plan is disabled.
Flags& define_fault_flags(Flags& flags);

/// Builds the FaultPlan the fault flags describe. Crash victims are drawn
/// by sim::make_random_crashes (peer 0 is never a victim), keyed by
/// --fault-salt so sweeps can vary the pattern independently of the seed.
sim::FaultPlan parse_fault_flags(const Flags& flags, int num_peers);

/// Registers the shared elastic-membership flags: --joins (dormant peers
/// that join mid-run), --leaves (initial members that leave gracefully),
/// --churn-from-ms / --churn-to-ms (the event window) and --churn-salt.
/// All-zero defaults mean the resulting plan is disabled.
Flags& define_churn_flags(Flags& flags);

/// Builds the ChurnPlan the churn flags describe via lb::make_random_churn,
/// keyed by --churn-salt so sweeps can vary the schedule independently of
/// the run seed. Disabled (default-constructed) when both counts are 0.
lb::ChurnPlan parse_churn_flags(const Flags& flags, int num_peers);

/// B&B workload on the scaled analogue of Ta(21+index).
std::unique_ptr<bb::BBWorkload> make_bb(int index, int jobs, int machines);

/// UTS workload (binomial, fast hash) with the calibrated shape.
std::unique_ptr<uts::UtsWorkload> make_uts(std::uint32_t root_seed,
                                           int b0 = Defaults::kUtsB0,
                                           double q = Defaults::kUtsQ);

/// Baseline RunConfig for a strategy at a scale (paper network layout,
/// calibrated chunk size for the workload kind).
lb::RunConfig bb_config(lb::Strategy s, int n, std::uint64_t seed, int dmax = 10);
lb::RunConfig uts_config(lb::Strategy s, int n, std::uint64_t seed, int dmax = 10);

/// Runs and aborts loudly if the protocol failed to complete — a bench must
/// never silently report a broken run. Dispatches through runtime::run on
/// config.backend, and aborts with lb::unsupported_reason's text when the
/// config cannot run (on that backend, or on that many simulator shards).
/// Real-time exec time = wall time to the declaring peer's termination;
/// sim-only metrics stay zero.
lb::RunMetrics run_checked(lb::Workload& workload, const lb::RunConfig& config,
                           const char* what);

/// lb::run_sequential with exec_seconds on the clock `backend`'s runs are
/// timed by — the t_seq of PE columns: simulated seconds on the simulator,
/// and the wall seconds of the same call on threads and sockets, whose
/// exec_seconds are wall seconds.
lb::SequentialMetrics run_sequential_on(lb::Workload& workload, lb::Backend backend);

/// "sim-s" or "wall-s": the clock of `backend`'s times, for table headers.
const char* clock_unit(lb::Backend backend);

/// Common header printed by every bench binary.
void print_preamble(const char* experiment, const std::string& notes);

/// The checkout a wall-clock number was measured from: `git describe
/// --always --dirty` (a short sha when no tag is reachable, with "-dirty"
/// when tracked files have uncommitted edits), or "unknown" outside a git
/// checkout.
std::string git_sha();

/// Writes the `"git_sha"` field and the `"machine"` fingerprint object
/// (CPU model, nproc, cpufreq governor, compiler), each at two-space
/// indent and followed by a comma, into a JSON object being written to
/// `out`. Every committed BENCH_*.json carries this block; a wall-clock
/// rate compares only against another with the same fingerprint.
void write_fingerprint_json(std::ostream& out, const std::string& sha);

/// Comma-separated strategy names, aborting loudly on a typo. With
/// `overlay_only`, non-overlay names abort too (for sweeps exercising
/// overlay-only features: churn, service mode). `flag` names the flag in
/// the error message.
std::vector<lb::Strategy> parse_strategy_list(const std::string& spec,
                                              bool overlay_only,
                                              const char* flag);

/// Uniform tail of every ladder sweep: the finished table as CSV or aligned
/// text, then the "# Expected shape" trailer that tells a reader what a
/// healthy ladder looks like against the paper's claim.
void print_ladder(const Table& table, bool csv,
                  const std::string& expected_shape);

/// Opens an output file for writing (binary, truncating), aborting with a
/// message naming `what` if the path cannot be opened — the one place the
/// bench mains' snapshot/trace/JSON sinks go through, so failures are loud
/// and uniform instead of each binary hand-rolling the check.
std::ofstream open_output_file(const std::string& path, const char* what);

/// When `--trace` was given (see olb::define_trace_flags), re-runs the
/// (workload, config) combination with a RingTracer of `--trace-limit`
/// events attached and writes the timeline to the requested path —
/// NDJSON if it ends in `.ndjson`, Chrome/Perfetto trace JSON otherwise.
/// Benches call this once on their most interesting (e.g. worst-seed) run;
/// the measured runs themselves stay untraced. The re-run is on the
/// simulator, on one shard and without the metrics hub; when the measured
/// rows ran on more simulator shards, the `# trace:` line says so. No-op
/// without `--trace`.
void dump_trace_if_requested(const Flags& flags, lb::Workload& workload,
                             lb::RunConfig config, const char* what);

}  // namespace olb::bench
