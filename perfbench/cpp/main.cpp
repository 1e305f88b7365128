// perfbench: runs one benchmark workload for a fixed wall-clock budget and
// prints one JSON object describing every solve it made. perfbench/run.py
// builds this binary, launches it (one process per rank on sockets_bb_4) and
// turns the raw records into the benchmark's metrics.
//
//   perfbench --workload sim_bb_1k --seed 1 --seconds 20 --trace 0
//
// A solve runs from the backend call to its return. Untraced solves decorate
// only the root work (to time the first step); with --trace 1 a warm-up solve
// is followed by alternating untraced solves and solves under the full Work
// decorator (spans.hpp), so one run yields both figures back to back.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bb/bb_work.hpp"
#include "lb/messages.hpp"
#include "metrics/hub.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"
#include "support/flags.hpp"
#include "support/meminfo.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace lb = olb::lb;

struct Args {
  const WorkloadSpec* spec = nullptr;  ///< the --workload at the --scale
  std::uint64_t seed = 1;  ///< protocol seed of the real-time workloads
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  InstanceSeeds instance;
  /// Self-test: expect one unit (or one makespan step) more than the truth,
  /// so every solve must be reported as failed.
  bool plant_wrong_expectation = false;
  int max_solves = 0;  ///< 0 = as many as fit in --seconds
  double warmup_s = 1.5;
  std::string run_dir = ".";  ///< where a traced threads solve's metrics hub writes
  int rank = -1;                  ///< sockets_bb_4 only: this process's rank
  std::string peer_addrs;         ///< sockets_bb_4 only: "host:port,..." by rank
};

[[noreturn]] void usage_error(const olb::Flags& flags, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  flags.print_usage("perfbench");
  std::exit(2);
}

/// The whole value of --name as a number in [lo, hi]; anything else is a
/// usage error (olb::Flags itself reads "abc" as 0).
template <typename T>
T number_flag(const olb::Flags& flags, const char* name, T lo, T hi) {
  const std::string v = flags.get(name);
  T x{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size() || !(x >= lo && x <= hi)) {
    usage_error(flags, "bad value '" + v + "' for --" + name + " (expected " +
                           std::to_string(lo) + " .. " + std::to_string(hi) + ")");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  olb::Flags flags;
  flags.define("workload", "", "sim_bb_1k, sharded_uts_100k, threads_uts_4 or sockets_bb_4")
      .define("seed", "1", "protocol seed of threads_uts_4 and sockets_bb_4")
      .define("seconds", "10", "time budget of the timed phase")
      .define("trace", "0", "1: alternate untraced solves with traced ones")
      .define("scale", "full", "full, or smoke: millisecond-sized variants for tests")
      .define("uts-root-seed", "1", "UTS instance; others are checked sequentially")
      .define("bb-instance", "0", "flowshop Ta(21+I), I in 0..9, scaled")
      .define("plant", "", "wrong_expectation: every solve must be reported as failed")
      .define("max-solves", "0", "stop after this many solves (0: no cap)")
      .define("warmup-s", "1.5", "seconds of load on every core before the solves")
      .define("run-dir", ".", "where a traced threads solve's metrics hub writes")
      .define("rank", "-1", "sockets_bb_4: this process's rank")
      .define("peer-addrs", "", "sockets_bb_4: host:port of every rank, by rank");
  if (!flags.parse(argc, argv)) std::exit(2);
  Args a;
  a.seed = number_flag<std::uint64_t>(flags, "seed", 0, UINT64_MAX);
  a.seconds = number_flag(flags, "seconds", 1e-3, 3600.0);
  a.trace = number_flag(flags, "trace", 0, 1) == 1;
  const std::string scale = flags.get("scale");
  if (scale != "full" && scale != "smoke") usage_error(flags, "--scale takes full or smoke");
  a.scale = scale == "full" ? Scale::kFull : Scale::kSmoke;
  a.instance.uts_root_seed = number_flag<std::uint32_t>(flags, "uts-root-seed", 0, UINT32_MAX);
  a.instance.bb_instance = number_flag(flags, "bb-instance", 0, 9);
  const std::string plant = flags.get("plant");
  if (!plant.empty() && plant != "wrong_expectation") {
    usage_error(flags, "--plant takes wrong_expectation");
  }
  a.plant_wrong_expectation = !plant.empty();
  a.max_solves = number_flag(flags, "max-solves", 0, 1'000'000);
  a.warmup_s = number_flag(flags, "warmup-s", 0.0, 60.0);
  a.run_dir = flags.get("run-dir");
  a.rank = number_flag(flags, "rank", -1, 1023);
  a.peer_addrs = flags.get("peer-addrs");
  a.spec = find_workload(flags.get("workload"), a.scale);
  if (a.spec == nullptr) usage_error(flags, "unknown --workload '" + flags.get("workload") + "'");
  if (a.spec->backend == lb::Backend::kSockets && (a.rank < 0 || a.peer_addrs.empty())) {
    usage_error(flags, "sockets_bb_4 runs one process per rank: pass --rank and --peer-addrs");
  }
  return a;
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double seconds_between(std::int64_t a, std::int64_t b) { return ns_to_s(b - a); }

std::atomic<std::uint64_t> g_sink{0};

/// host.ref_s: a fixed single-thread integer loop. It makes host speed
/// drift visible next to the solve times; nothing is rescaled by it.
double host_ref_seconds() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < (1u << 24); ++i) x = olb::mix64(x + i);
  const std::int64_t t1 = now_ns();
  g_sink.fetch_add(x, std::memory_order_relaxed);
  return seconds_between(t0, t1);
}

/// Busy-spins `threads` threads for `seconds`. Idle vCPUs on this class of
/// host come back at a fraction of their speed for the first second of load
/// (worst under parallel load), so every workload warms the cores it will use
/// right before the timed phase.
void warm_cores(int threads, double seconds) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([deadline, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t);
      while (now_ns() < deadline) {
        for (int k = 0; k < 4096; ++k) x = olb::mix64(x + static_cast<std::uint64_t>(k));
      }
      g_sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  for (std::string item; std::getline(in, item, ',');) out.push_back(item);
  return out;
}

/// Work spans of one traced solve, folded.
struct WorkLedger {
  double step_s = 0, split_s = 0, merge_s = 0;
  std::uint64_t steps = 0, splits = 0, merges = 0, step_units = 0;
  double last_step_end_s = -1;  ///< backend call -> latest step end
};

/// ThreadNet instruments of one traced threads solve.
struct NetCounters {
  std::uint64_t sends = 0, wakes = 0, wakes_skipped = 0;
  double drain_batch_mean = 0;
  std::int64_t pool_heap_nodes = 0;
};

/// One solve. Its times all come from the solve's span records (see
/// Runner::ledger_from_spans); its counts from the backend's own metrics.
struct SolveRecord {
  bool traced = false;
  bool warmup = false;  ///< a traced run's first solve: verified, not timed
  std::string failure;  ///< empty for a verified solve
  double instance_s = 0;
  double wall_s = 0;          ///< backend call to return
  double first_step_s = -1;   ///< backend call to the first Work::step
  double backend_wall_s = 0;  ///< the backend's own wall_seconds (real-time)
  double done_s = 0;          ///< real-time: wall seconds to root's termination
  SolveOutcome outcome;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0, requests = 0, transfers = 0;
  double queue_delay_s = 0;
  std::vector<std::uint64_t> sent_by_type;
  std::uint64_t peak_rss_bytes = 0;  ///< process high-water mark after the solve
  double overlay_s = 0;    ///< traced: lb::make_overlay_tree
  double call_self_s = 0;  ///< traced: backend-call thread-seconds outside Work calls
  WorkLedger work;
  std::optional<NetCounters> net;
};

class Runner {
 public:
  explicit Runner(const Args& args)
      : args_(args), spec_(*args.spec), bench_(spec_, args.scale, args.instance, args.seed) {}

  int run();

 private:
  SolveRecord solve(bool traced);
  void run_backend(lb::Workload& workload, const lb::RunConfig& config, SolveRecord& r);
  void ledger_from_spans(SolveRecord& r, std::int64_t probed_first_step_ns);
  void print(const std::vector<SolveRecord>& solves, const std::vector<double>& ref_s,
             std::optional<Bench::Sequential> sequential) const;

  const Args& args_;
  const WorkloadSpec& spec_;
  Bench bench_;
  Expectation expect_;
  std::int64_t initial_ub_ = lb::kNoBound;
  std::uint32_t solve_id_ = 0;
  std::vector<Span> structural_spans_;
  std::int64_t run_start_ns_ = now_ns();
};

int Runner::run() {
  const bool sockets = spec_.backend == lb::Backend::kSockets;
  // Expectations and references: before any timing, never inside setup_s.
  expect_ = bench_.expect();
  if (spec_.start_at_optimum) initial_ub_ = expect_.optimum;
  if (args_.plant_wrong_expectation) {
    if (spec_.bb) expect_.optimum += 1;
    else expect_.units += 1;
  }

  std::vector<double> ref_s;
  for (int i = 0; i < 5; ++i) ref_s.push_back(host_ref_seconds());
  // The timed single-thread baseline runs after the host loop has taken the
  // fresh process's slow first fraction of a second.
  std::optional<Bench::Sequential> sequential;
  if (args_.trace) sequential = bench_.run_reference(initial_ub_);

  // Sockets ranks each warm the one core their process runs on.
  warm_cores(sockets ? 1 : spec_.parallelism(), args_.warmup_s);

  // Solves run back to back. A traced run opens with one warm-up solve
  // (verified, left out of the timings, so no traced/untraced pair mixes a
  // first-touch solve with a warm one) and then alternates untraced and
  // traced solves, so both kinds see the same host conditions. Sockets
  // solves cannot be decorated, so theirs all stay untraced.
  int solve_cap = args_.max_solves;
  if (spec_.nominal_solve_s > 0) {
    const int fixed = static_cast<int>(std::ceil(args_.seconds / spec_.nominal_solve_s));
    solve_cap = solve_cap > 0 ? std::min(solve_cap, fixed) : fixed;
    if (args_.trace) solve_cap = std::max(solve_cap, 3);
  }
  std::vector<SolveRecord> solves;
  const std::int64_t t0 = now_ns();
  for (;;) {
    const bool traced = args_.trace && !sockets && solves.size() % 2 == 0 && !solves.empty();
    solves.push_back(solve(traced));
    solves.back().warmup = args_.trace && solves.size() == 1;
    if (solve_cap > 0 && static_cast<int>(solves.size()) >= solve_cap) break;
    const bool both_kinds = !args_.trace || solves.size() >= 3;
    if (spec_.nominal_solve_s == 0 && seconds_between(t0, now_ns()) >= args_.seconds &&
        both_kinds) {
      break;
    }
  }
  print(solves, ref_s, sequential);
  return 0;
}

std::unique_ptr<olb::metrics::MetricsHub> make_hub(const std::string& run_dir, int peers) {
  olb::metrics::MetricsHub::Options o;
  o.path = run_dir + "/perfbench_threads_metrics.prom";
  o.interval_ns = 60'000'000'000;  // one final flush at the end of the run
  o.shards = peers;
  return std::make_unique<olb::metrics::MetricsHub>(o);
}

NetCounters read_net_counters(olb::metrics::MetricsHub& hub) {
  const olb::metrics::Registry& reg = hub.registry();
  NetCounters n;
  if (auto* c = reg.find_counter("olb_net_sends_total")) n.sends = c->value();
  if (auto* c = reg.find_counter("olb_net_wakes_total")) n.wakes = c->value();
  if (auto* c = reg.find_counter("olb_net_wakes_skipped_total")) n.wakes_skipped = c->value();
  if (auto* h = reg.find_histogram("olb_net_drain_batch")) {
    const auto snap = h->snapshot();
    if (snap.count > 0) {
      n.drain_batch_mean = static_cast<double>(snap.sum) / static_cast<double>(snap.count);
    }
  }
  if (auto* g = reg.find_gauge("olb_net_pool_heap_nodes")) n.pool_heap_nodes = g->value();
  return n;
}

SolveRecord Runner::solve(bool traced) {
  SolveRecord r;
  r.traced = traced;
  const std::uint32_t solve = ++solve_id_;
  lb::RunConfig config = bench_.config();
  if (spec_.backend == lb::Backend::kSockets) {
    config.sockets.rank = args_.rank;
    config.sockets.peers = split_commas(args_.peer_addrs);
  }
  // Never on the simulator: a tracer or metrics hub makes run_distributed
  // fall back to one shard (effective_sim_shards).
  std::unique_ptr<olb::metrics::MetricsHub> hub;
  if (traced && spec_.backend == lb::Backend::kThreads) {
    hub = make_hub(args_.run_dir, spec_.peers);
    config.metrics = hub.get();
  }

  std::unique_ptr<lb::Workload> instance;
  std::int64_t probed_first_step_ns = 0;
  {
    const ScopedSpan solve_span(SpanName::kSolve, solve, 0);
    {
      const ScopedSpan span(SpanName::kInstanceBuild, solve, solve_span.id());
      instance = bench_.make_workload(initial_ub_);
    }
    if (traced) {
      const ScopedSpan span(SpanName::kOverlayBuild, solve, solve_span.id());
      const olb::overlay::TreeOverlay tree = lb::make_overlay_tree(config);
    }
    const ScopedSpan call(SpanName::kBackendCall, solve, solve_span.id());
    if (spec_.backend == lb::Backend::kSockets) {
      // The wire codec dispatches on the concrete work types, so socket
      // solves run undecorated.
      run_backend(*instance, config, r);
    } else if (traced) {
      TracedWorkload decorated(*instance, call.id());
      run_backend(decorated, config, r);
    } else {
      FirstStepProbe probe(*instance);
      run_backend(probe, config, r);
      probed_first_step_ns = probe.first_step_ns();
    }
  }
  ledger_from_spans(r, probed_first_step_ns);
  if (hub != nullptr) r.net = read_net_counters(*hub);

  if (spec_.bb) {
    const auto& best = static_cast<const olb::bb::BBWorkload&>(*instance).best();
    const std::vector<int> perm = best.permutation();
    if (!perm.empty()) {
      r.outcome.solution_makespan =
          static_cast<const olb::bb::BBWorkload&>(*instance).instance().makespan(perm);
    }
  }
  r.failure = verify(spec_, expect_, r.outcome);
  r.peak_rss_bytes = olb::support::peak_rss_bytes();
  return r;
}

void Runner::run_backend(lb::Workload& workload, const lb::RunConfig& config,
                         SolveRecord& r) {
  if (spec_.backend == lb::Backend::kSim) {
    const lb::RunMetrics m = lb::run_distributed(workload, config);
    r.outcome = {.completed = m.ok, .units = m.total_units, .bound = m.best_bound,
                 .events = m.events, .exec_s = m.exec_seconds, .shards = m.sim_shards};
    r.windows = m.sim_windows;
    r.messages = m.total_messages;
    r.requests = m.work_requests;
    r.transfers = m.work_transfers;
    r.queue_delay_s = m.queueing_delay_mean;
    r.sent_by_type = m.sent_by_type;
    return;
  }
  const olb::runtime::ThreadRunMetrics m =
      spec_.backend == lb::Backend::kThreads ? olb::runtime::run_threads(workload, config)
                                             : olb::runtime::run_sockets(workload, config);
  r.outcome = {.completed = m.ok, .units = m.total_units, .bound = m.best_bound};
  r.backend_wall_s = m.wall_seconds;
  r.done_s = m.done_seconds;
  r.messages = m.total_messages;
  r.requests = m.work_requests;
  r.transfers = m.work_transfers;
}

/// Every time of a solve comes from its span records: the self times of the
/// instance build and the overlay build, the duration of the backend call,
/// and, on a traced solve, the Work calls folded under that call and the
/// call's own self time.
void Runner::ledger_from_spans(SolveRecord& r, std::int64_t probed_first_step_ns) {
  const Drained d = drain_spans();
  const Span& call = *d.find(SpanName::kBackendCall);
  r.instance_s = ns_to_s(d.self_ns(*d.find(SpanName::kInstanceBuild)));
  r.wall_s = seconds_between(call.start_ns, call.end_ns);
  const std::int64_t first_step_ns =
      r.traced ? (d.step.count > 0 ? d.step.first_start_ns : 0) : probed_first_step_ns;
  if (first_step_ns != 0) r.first_step_s = seconds_between(call.start_ns, first_step_ns);
  if (r.traced) {
    r.overlay_s = ns_to_s(d.self_ns(*d.find(SpanName::kOverlayBuild)));
    r.call_self_s = ns_to_s(d.self_ns(call, spec_.parallelism()));
    WorkLedger& w = r.work;
    w.step_s = ns_to_s(d.step.total_ns);
    w.steps = d.step.count;
    w.step_units = d.step.units;
    w.split_s = ns_to_s(d.split.total_ns);
    w.splits = d.split.count;
    w.merge_s = ns_to_s(d.merge.total_ns);
    w.merges = d.merge.count;
    if (d.step.count > 0) {
      w.last_step_end_s = seconds_between(call.start_ns, d.step.last_end_ns);
    }
  }
  structural_spans_.insert(structural_spans_.end(), d.spans.begin(), d.spans.end());
}

/// Minimal JSON emitter for the flat records below.
class Json {
 public:
  Json& key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return raw(buf);
  }
  Json& num(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& num(std::int64_t v) { return raw(std::to_string(v)); }
  Json& num(int v) { return raw(std::to_string(v)); }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  Json& str(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(q + "\"");
  }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  Json& raw(const std::string& s) {
    sep();
    out_ += s;
    return *this;
  }
  std::string out_;
  bool fresh_ = true;
};

void Runner::print(const std::vector<SolveRecord>& solves, const std::vector<double>& ref_s,
                   std::optional<Bench::Sequential> sequential) const {
  Json j;
  j.open('{');
  j.key("workload").str(spec_.name);
  j.key("scale").str(args_.scale == Scale::kFull ? "full" : "smoke");
  j.key("seed").num(args_.seed);
  j.key("protocol_seed").num(bench_.protocol_seed());
  j.key("uts_root_seed").num(static_cast<std::uint64_t>(args_.instance.uts_root_seed));
  j.key("bb_instance").num(args_.instance.bb_instance);
  j.key("rank").num(args_.rank);
  j.key("backend").str(lb::backend_name(spec_.backend));
  j.key("peers").num(spec_.peers);
  j.key("parallelism").num(spec_.parallelism());
  j.key("compiler").str(__VERSION__);
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("hardware_concurrency").num(static_cast<int>(std::thread::hardware_concurrency()));
  j.key("host_ref_s").open('[');
  for (double v : ref_s) j.num(v);
  j.close(']');
  j.key("peak_rss_bytes").num(olb::support::peak_rss_bytes());
  j.key("expect").open('{');
  j.key("source").str(expect_.source);
  j.key("units").num(expect_.units);
  j.key("min_units").num(expect_.min_units);
  j.key("optimum").num(expect_.optimum);
  j.key("events").num(expect_.events);
  j.key("exec_s").num(expect_.exec_s);
  j.key("shards").num(expect_.shards);
  j.close('}');
  if (sequential) {
    j.key("sequential").open('{');
    j.key("units").num(sequential->units);
    j.key("wall_s").num(sequential->wall_s);
    j.close('}');
  }
  j.key("solves").open('[');
  for (const SolveRecord& r : solves) {
    j.open('{');
    j.key("traced").boolean(r.traced);
    j.key("warmup").boolean(r.warmup);
    j.key("failure").str(r.failure);
    j.key("instance_s").num(r.instance_s);
    j.key("wall_s").num(r.wall_s);
    j.key("first_step_s").num(r.first_step_s);
    j.key("backend_wall_s").num(r.backend_wall_s);
    j.key("done_s").num(r.done_s);
    j.key("completed").boolean(r.outcome.completed);
    j.key("units").num(r.outcome.units);
    j.key("bound").num(r.outcome.bound);
    j.key("events").num(r.outcome.events);
    j.key("exec_s").num(r.outcome.exec_s);
    j.key("shards").num(r.outcome.shards);
    j.key("windows").num(r.windows);
    j.key("messages").num(r.messages);
    j.key("requests").num(r.requests);
    j.key("transfers").num(r.transfers);
    j.key("queue_delay_s").num(r.queue_delay_s);
    j.key("peak_rss_bytes").num(r.peak_rss_bytes);
    j.key("sent_by_type").open('{');
    for (std::size_t t = 0; t < r.sent_by_type.size(); ++t) {
      const char* name = lb::msg_type_name(static_cast<int>(t));
      if (name != nullptr && r.sent_by_type[t] != 0) j.key(name).num(r.sent_by_type[t]);
    }
    j.close('}');
    if (r.traced) {
      const WorkLedger& w = r.work;
      j.key("overlay_s").num(r.overlay_s);
      j.key("call_self_s").num(r.call_self_s);
      j.key("step_s").num(w.step_s);
      j.key("steps").num(w.steps);
      j.key("step_units").num(w.step_units);
      j.key("split_s").num(w.split_s);
      j.key("splits").num(w.splits);
      j.key("merge_s").num(w.merge_s);
      j.key("merges").num(w.merges);
      j.key("last_step_end_s").num(w.last_step_end_s);
    }
    if (r.net) {
      j.key("net").open('{');
      j.key("sends").num(r.net->sends);
      j.key("wakes").num(r.net->wakes);
      j.key("wakes_skipped").num(r.net->wakes_skipped);
      j.key("drain_batch_mean").num(r.net->drain_batch_mean);
      j.key("pool_heap_nodes").num(r.net->pool_heap_nodes);
      j.close('}');
    }
    j.close('}');
  }
  j.close(']');
  // The structural spans of every solve (Work spans are folded per solve
  // above), relative to the start of the run.
  j.key("spans").open('[');
  for (const Span& s : structural_spans_) {
    j.open('{');
    j.key("name").str(span_name(s.name));
    j.key("id").num(static_cast<std::uint64_t>(s.id));
    j.key("parent").num(static_cast<std::uint64_t>(s.parent));
    j.key("solve").num(static_cast<std::uint64_t>(s.solve));
    j.key("start_s").num(seconds_between(run_start_ns_, s.start_ns));
    j.key("end_s").num(seconds_between(run_start_ns_, s.end_ns));
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::Runner runner(args);
  return runner.run();
}
