#include "bench_common.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "runtime/runtime.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/export.hpp"

namespace olb::bench {

namespace {
/// Process-wide backend default, armed by parse_run_flags and consumed by
/// common_config — see the parse_run_flags doc comment.
lb::Backend g_default_backend = lb::Backend::kSim;
/// Process-wide metrics hub, built by parse_run_flags from --metrics and
/// carried by every RunConfig common_config builds.
std::unique_ptr<metrics::MetricsHub> g_metrics_hub;
/// Process-wide socket bring-up (rank / address table / trace prefix),
/// armed by parse_run_flags and carried by every RunConfig common_config
/// builds — like the backend default, so socket launches need no per-bench
/// plumbing.
lb::SocketBringup g_socket_bringup;
/// Process-wide simulator shard count from --shards, carried by every
/// RunConfig common_config builds (0 or 1 = one shard).
int g_sim_shards = 0;

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}
}  // namespace

Flags& define_run_flags(Flags& flags, const RunFlagSpec& spec) {
  if (spec.peers != nullptr) flags.define("peers", spec.peers, "cluster size");
  if (spec.instance) {
    flags.define("jobs", std::to_string(spec.jobs), "flowshop jobs")
        .define("machines", std::to_string(spec.machines), "flowshop machines");
  }
  if (spec.seed) flags.define("seed", "1", "run seed");
  if (spec.csv) flags.define("csv", "false", "emit CSV instead of aligned tables");
  if (spec.backend) {
    flags
        .define("backend", "sim",
                "execution backend (sim|threads|sockets); real-time "
                "backends run fault-free, homogeneous configs")
        .define("rank", "-1", "socket backend: this process's rank")
        .define("peer-addrs", "",
                "socket backend: comma-separated host:port listen address "
                "per rank (identical on every process)")
        .define("socket-trace", "",
                "socket backend: per-process NDJSON trace path prefix "
                "(writes <prefix>.run<k>.rank<r>.ndjson)")
        .define("time-limit-ms", "0",
                "wall-clock watchdog: kill the process (exit 124) after "
                "this many ms; 0 = off");
  }
  if (spec.metrics) {
    flags
        .define("metrics", "",
                "live metrics snapshot stream (path; .prom = Prometheus text "
                "exposition, anything else = NDJSON for tools/olb_top)")
        .define("metrics-interval", "100",
                "metrics flush interval in ms (simulated time on sim, wall "
                "time on threads)");
  }
  if (spec.shards) {
    flags.define("shards", "0",
                 "simulator event-queue shards (0 or 1 = one engine over "
                 "every peer, >=2 = cluster-aligned conservative sharding; "
                 "see docs/SCALING.md)");
  }
  return flags;
}

RunFlags parse_run_flags(const Flags& flags) {
  RunFlags rf;
  if (flags.has("peers")) {
    const std::string peers = flags.get("peers");
    if (peers.find(':') != std::string::npos) {
      // Address-table form: "--peers host:port,host:port,..." both sizes
      // the cluster and provides the socket rendezvous in one flag.
      g_socket_bringup.peers = split_commas(peers);
      rf.peers = static_cast<int>(g_socket_bringup.peers.size());
    } else {
      rf.peers = static_cast<int>(flags.get_int("peers"));
    }
  }
  if (flags.has("jobs")) rf.jobs = static_cast<int>(flags.get_int("jobs"));
  if (flags.has("machines")) rf.machines = static_cast<int>(flags.get_int("machines"));
  if (flags.has("seed")) rf.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (flags.has("csv")) rf.csv = flags.get_bool("csv");
  if (flags.has("backend")) {
    const std::string name = flags.get("backend");
    if (!lb::backend_from_name(name, &rf.backend)) {
      std::fprintf(stderr,
                   "FATAL: unknown --backend '%s' (use sim, threads or "
                   "sockets)\n",
                   name.c_str());
      std::abort();
    }
    g_default_backend = rf.backend;
  }
  if (flags.has("rank")) {
    g_socket_bringup.rank = static_cast<int>(flags.get_int("rank"));
  }
  if (flags.has("peer-addrs")) {
    const std::string addrs = flags.get("peer-addrs");
    if (!addrs.empty()) g_socket_bringup.peers = split_commas(addrs);
  }
  if (flags.has("socket-trace")) {
    g_socket_bringup.trace_prefix = flags.get("socket-trace");
  }
  if (flags.has("time-limit-ms")) {
    const std::int64_t ms = flags.get_int("time-limit-ms");
    if (ms > 0) {
      // Multi-process socket runs can hang forever if a peer dies before
      // bootstrap completes; a detached watchdog turns that into a loud,
      // bounded failure. _Exit skips destructors deliberately — the process
      // is wedged, not cleanly shutting down.
      //
      // The watchdog must be disarmable: a plain detached sleep-then-_Exit
      // races normal process exit, so a run that finished a hair under the
      // limit could still die with a spurious 124 while atexit handlers were
      // flushing output. An atexit hook flips `disarmed` and wakes the
      // thread; the state is heap-leaked because the detached thread may
      // outlive every static destructor.
      struct WatchdogState {
        std::mutex mu;
        std::condition_variable cv;
        bool disarmed = false;
      };
      static WatchdogState* g_watchdog = nullptr;
      if (g_watchdog == nullptr) {
        g_watchdog = new WatchdogState;
        std::atexit([] {
          {
            std::scoped_lock lock(g_watchdog->mu);
            g_watchdog->disarmed = true;
          }
          g_watchdog->cv.notify_all();
        });
        std::thread([ms, state = g_watchdog] {
          std::unique_lock lock(state->mu);
          const bool disarmed = state->cv.wait_for(
              lock, std::chrono::milliseconds(ms),
              [state] { return state->disarmed; });
          if (disarmed) return;  // clean exit beat the deadline
          std::fprintf(stderr,
                       "FATAL: --time-limit-ms watchdog fired after %lld ms "
                       "(hung run or lost peer)\n",
                       static_cast<long long>(ms));
          std::_Exit(124);
        }).detach();
      }
    }
  }
  if (flags.has("shards")) {
    rf.sim_shards = static_cast<int>(flags.get_int("shards"));
    OLB_CHECK_MSG(rf.sim_shards >= 0, "--shards must be >= 0");
    g_sim_shards = rf.sim_shards;
  }
  if (flags.has("metrics")) {
    const std::string path = flags.get("metrics");
    if (!path.empty()) {
      metrics::MetricsHub::Options o;
      o.path = path;
      o.interval_ns = std::max<std::int64_t>(1, flags.get_int("metrics-interval")) *
                      1'000'000;
      // Sized for the writer population: the simulator is one thread; the
      // thread backend shards global instruments across writers. A bench
      // that suppressed --backend (e.g. runtime_speedup, which always runs
      // threads) gets the concurrent-safe sizing — shards only cost memory,
      // a single-writer registry with sharded globals is merely oversized,
      // but the reverse would lose counts.
      o.shards = !flags.has("backend") || rf.backend == lb::Backend::kThreads
                     ? 16
                     : 1;
      g_metrics_hub = std::make_unique<metrics::MetricsHub>(std::move(o));
    }
  }
  return rf;
}

metrics::MetricsHub* metrics_hub() { return g_metrics_hub.get(); }

lb::Strategy parse_strategy_flag(const Flags& flags, const char* flag) {
  const std::string name = flags.get(flag);
  lb::Strategy s;
  if (!lb::strategy_from_name(name, &s)) {
    std::fprintf(stderr, "FATAL: unknown --%s '%s' (use %s)\n", flag, name.c_str(),
                 lb::strategy_names().c_str());
    std::abort();
  }
  return s;
}

Flags& define_fault_flags(Flags& flags) {
  return flags.define("drop", "0", "P(control message dropped)")
      .define("dup", "0", "P(control message duplicated)")
      .define("spike", "0", "P(message hit by a latency spike)")
      .define("spike-ms", "2", "latency-spike magnitude (ms)")
      .define("crashes", "0", "number of random crash victims")
      .define("crash-from-ms", "1", "crash window start (ms)")
      .define("crash-to-ms", "10", "crash window end (ms)")
      .define("fault-salt", "0", "extra key for the fault RNG stream");
}

sim::FaultPlan parse_fault_flags(const Flags& flags, int num_peers) {
  const int crashes = static_cast<int>(flags.get_int("crashes"));
  const auto salt = static_cast<std::uint64_t>(flags.get_int("fault-salt"));
  auto ms = [](double v) { return static_cast<sim::Time>(v * 1e6); };
  sim::FaultPlan plan;
  if (crashes > 0) {
    plan = sim::make_random_crashes(crashes, num_peers,
                                    ms(flags.get_double("crash-from-ms")),
                                    ms(flags.get_double("crash-to-ms")),
                                    mix64(salt ^ 0xfa01));
  }
  plan.link.drop_prob = flags.get_double("drop");
  plan.link.dup_prob = flags.get_double("dup");
  plan.link.spike_prob = flags.get_double("spike");
  plan.link.spike_latency = ms(flags.get_double("spike-ms"));
  plan.salt = salt;
  return plan;
}

Flags& define_churn_flags(Flags& flags) {
  return flags.define("joins", "0", "dormant peers that join mid-run")
      .define("leaves", "0", "initial members that leave gracefully")
      .define("churn-from-ms", "1", "membership window start (ms)")
      .define("churn-to-ms", "10", "membership window end (ms)")
      .define("churn-salt", "0", "extra key for the churn RNG stream");
}

lb::ChurnPlan parse_churn_flags(const Flags& flags, int num_peers) {
  const int joins = static_cast<int>(flags.get_int("joins"));
  const int leaves = static_cast<int>(flags.get_int("leaves"));
  if (joins == 0 && leaves == 0) return {};
  auto ms = [](double v) { return static_cast<sim::Time>(v * 1e6); };
  return lb::make_random_churn(
      joins, leaves, num_peers, ms(flags.get_double("churn-from-ms")),
      ms(flags.get_double("churn-to-ms")),
      mix64(static_cast<std::uint64_t>(flags.get_int("churn-salt")) ^ 0xc401));
}

std::unique_ptr<bb::BBWorkload> make_bb(int index, int jobs, int machines) {
  return std::make_unique<bb::BBWorkload>(
      bb::FlowshopInstance::ta20x20_scaled(index, jobs, machines),
      bb::BoundKind::kOneMachine, bb::CostModel{});
}

std::unique_ptr<uts::UtsWorkload> make_uts(std::uint32_t root_seed, int b0, double q) {
  uts::Params p;
  p.shape = uts::TreeShape::kBinomial;
  p.hash = uts::HashMode::kFast;
  p.b0 = b0;
  p.q = q;
  p.m = 2;
  p.root_seed = root_seed;
  return std::make_unique<uts::UtsWorkload>(p, uts::CostModel{});
}

namespace {
lb::RunConfig common_config(lb::Strategy s, int n, std::uint64_t seed, int dmax,
                            std::uint64_t chunk) {
  lb::RunConfig c;
  c.strategy = s;
  c.num_peers = n;
  c.dmax = dmax;
  c.seed = seed;
  c.net = lb::paper_network(n);
  c.chunk_units = chunk;
  c.backend = g_default_backend;
  c.metrics = g_metrics_hub.get();
  c.sockets = g_socket_bringup;
  c.sim_shards = g_sim_shards;
  return c;
}
}  // namespace

lb::RunConfig bb_config(lb::Strategy s, int n, std::uint64_t seed, int dmax) {
  return common_config(s, n, seed, dmax, Defaults::kChunkBB);
}

lb::RunConfig uts_config(lb::Strategy s, int n, std::uint64_t seed, int dmax) {
  return common_config(s, n, seed, dmax, Defaults::kChunkUTS);
}

lb::RunMetrics run_checked(lb::Workload& workload, const lb::RunConfig& config,
                           const char* what) {
  // A table must not mix simulated and wall seconds, nor shard counts, so a
  // config the list refuses is an error, not a quiet run of another kind.
  const std::string why = lb::unsupported_reason(config);
  if (!why.empty()) {
    std::fprintf(stderr, "FATAL: --backend=%s cannot run %s (%s): %s\n",
                 lb::backend_name(config.backend), what,
                 lb::strategy_name(config.strategy), why.c_str());
    std::abort();
  }
  const lb::RunMetrics metrics = runtime::run(workload, config);
  if (!metrics.ok) {
    std::fprintf(stderr,
                 "FATAL: %s run did not complete cleanly: %s (%s, n=%d)\n",
                 lb::backend_name(config.backend), what,
                 lb::strategy_name(config.strategy), config.num_peers);
    std::abort();
  }
  return metrics;
}

lb::SequentialMetrics run_sequential_on(lb::Workload& workload, lb::Backend backend) {
  const auto start = std::chrono::steady_clock::now();
  lb::SequentialMetrics m = lb::run_sequential(workload);
  if (backend != lb::Backend::kSim) {
    m.exec_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  return m;
}

const char* clock_unit(lb::Backend backend) {
  return backend == lb::Backend::kSim ? "sim-s" : "wall-s";
}

std::ofstream open_output_file(const std::string& path, const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "FATAL: cannot open %s output path '%s'\n", what,
                 path.c_str());
    std::abort();
  }
  return out;
}

void dump_trace_if_requested(const Flags& flags, lb::Workload& workload,
                             lb::RunConfig config, const char* what) {
  const std::string path = flags.get("trace");
  if (path.empty()) return;
  trace::RingTracer tracer(
      static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("trace-limit"))));
  config.tracer = &tracer;
  // A tracer needs one global event order, so the re-run takes one shard
  // even when the measured rows took more (the trace line says so).
  const int measured_shards =
      config.backend == lb::Backend::kSim ? config.sim_shards : 1;
  config.sim_shards = 1;
  // The event counts and derived timeline this reports are filled by the
  // simulator only.
  config.backend = lb::Backend::kSim;
  // This is a diagnostic re-run of an already-measured combination: keep it
  // out of the metrics stream (the re-run would restart simulated time and
  // double-count every counter into the same hub).
  config.metrics = nullptr;
  const auto metrics = run_checked(workload, config, what);

  std::ofstream out = open_output_file(path, "--trace");
  const auto events = tracer.snapshot();
  const bool ndjson = path.size() >= 7 && path.ends_with(".ndjson");
  if (ndjson) {
    trace::write_ndjson(out, events);
  } else {
    trace::PerfettoOptions opts;
    opts.num_actors = config.num_peers;
    opts.work_msg_type = lb::kWork;
    opts.type_name = lb::msg_type_name;
    opts.handling_cost = config.net.msg_handling_cost;
    trace::write_perfetto(out, events, opts);
  }
  std::string shards;
  if (measured_shards >= 2) {
    shards = ", re-run on one shard; the rows ran on " +
             std::to_string(measured_shards);
  }
  std::printf("# trace: %s (%s, %llu events, %llu dropped%s) -> %s\n", what,
              ndjson ? "ndjson" : "perfetto",
              static_cast<unsigned long long>(metrics.trace_events),
              static_cast<unsigned long long>(metrics.trace_dropped),
              shards.c_str(), path.c_str());
}

std::vector<lb::Strategy> parse_strategy_list(const std::string& spec,
                                              bool overlay_only,
                                              const char* flag) {
  std::vector<lb::Strategy> out;
  for (const std::string& item : split_commas(spec)) {
    lb::Strategy s;
    if (!lb::strategy_from_name(item, &s)) {
      std::fprintf(stderr, "FATAL: unknown --%s entry '%s' (use %s)\n", flag,
                   item.c_str(), lb::strategy_names().c_str());
      std::abort();
    }
    if (overlay_only && !lb::strategy_is_overlay(s)) {
      std::fprintf(stderr, "FATAL: --%s wants overlay names, got '%s'\n", flag,
                   item.c_str());
      std::abort();
    }
    out.push_back(s);
  }
  return out;
}

void print_ladder(const Table& table, bool csv,
                  const std::string& expected_shape) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::printf("\n# Expected shape: %s\n", expected_shape.c_str());
}

void print_preamble(const char* experiment, const std::string& notes) {
  std::printf("# %s\n", experiment);
  std::printf("# Reproduction of: Vu, Derbel, Ali, Bendjoudi, Melab — "
              "\"Overlay-Centric Load Balancing\" (CLUSTER 2012)\n");
  std::printf("# Substrate: deterministic cluster simulation; workloads scaled "
              "(see DESIGN.md / EXPERIMENTS.md).\n");
  if (!notes.empty()) std::printf("# %s\n", notes.c_str());
  std::printf("\n");
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return "unknown";
}

std::string scaling_governor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  if (in.good()) std::getline(in, governor);
  return governor.empty() ? "unknown" : governor;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string git_sha() {
  std::string sha;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

void write_fingerprint_json(std::ostream& out, const std::string& sha) {
  out << "  \"git_sha\": \"" << json_escape(sha) << "\",\n"
      << "  \"machine\": {\n"
      << "    \"cpu\": \"" << json_escape(cpu_model()) << "\",\n"
      << "    \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"governor\": \"" << json_escape(scaling_governor()) << "\",\n"
      << "    \"compiler\": \"" << json_escape(__VERSION__) << "\"\n"
      << "  },\n";
}

}  // namespace olb::bench
