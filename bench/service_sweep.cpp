// Service sweep — load-balancing-as-a-service under rising offered load:
// one shared overlay fleet multiplexes a stream of UTS and flowshop B&B
// jobs from three priority classes (steady Poisson, bursty on/off, diurnal
// ramp) while the gate's admission control (bounded pending queue, shed on
// overload) protects the fleet. The ladder sweeps a load multiplier over
// the base arrival rates up to saturation and reports per-class sojourn
// and queueing-delay percentiles.
//
// Correctness is load-bearing here, not a side note: every cell runs with
// the full oracle set attached (job-conservation included) on both the
// simulator and the threads backend, every job's exact unit count / B&B
// optimum is checked against its own sequential reference, and the
// admission invariants (queue never exceeds its bound, sheds only when
// full) abort the sweep on violation. --backend=threads is the CI
// service-smoke entry point.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/conformance.hpp"
#include "svc/service.hpp"
#include "trace/export.hpp"

using namespace olb;
using namespace olb::bench;

namespace {

const char* kind_name(svc::JobClass::Kind k) {
  return k == svc::JobClass::Kind::kUts ? "UTS" : "B&B";
}

/// The three-class service mix of one ladder cell. Base rates are scaled
/// by the cell's load multiplier; everything else is pinned by flags.
svc::ServiceConfig build_service(const Flags& flags, const RunFlags& rf,
                                 lb::Strategy strategy, double load) {
  svc::ServiceConfig sc;
  sc.run = uts_config(strategy, rf.peers, rf.seed);
  sc.run.metrics = metrics_hub();
  sc.admission.max_in_service =
      static_cast<std::size_t>(flags.get_int("slots"));
  sc.admission.queue_bound = static_cast<std::size_t>(flags.get_int("queue"));
  sc.wave_interval =
      static_cast<sim::Time>(flags.get_double("wave-ms") * 1e6);
  const auto horizon =
      static_cast<sim::Time>(flags.get_double("horizon-ms") * 1e6);
  const int b0 = static_cast<int>(flags.get_int("uts_b0"));

  auto uts_class = [&](svc::ArrivalKind kind, double rate) {
    svc::JobClass cls;
    cls.kind = svc::JobClass::Kind::kUts;
    cls.arrivals.kind = kind;
    cls.arrivals.rate_per_sec = rate * load;
    cls.arrivals.horizon = horizon;
    cls.arrivals.on_period = sim::milliseconds(20);
    cls.arrivals.off_period = sim::milliseconds(20);
    cls.uts.shape = uts::TreeShape::kBinomial;
    cls.uts.hash = uts::HashMode::kFast;
    cls.uts.b0 = b0;
    cls.uts.q = 0.48;
    cls.uts.m = 2;
    cls.uts.root_seed = 19;
    return cls;
  };
  // Class 0 (highest priority): steady interactive stream. Class 1: the
  // same job shape arriving in bursts. Class 2 (lowest): B&B batch jobs
  // whose rate ramps diurnally to twice the mean by the horizon.
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 40.0));
  sc.classes.push_back(uts_class(svc::ArrivalKind::kBursty, 80.0));
  svc::JobClass batch;
  batch.kind = svc::JobClass::Kind::kFlowshop;
  batch.arrivals.kind = svc::ArrivalKind::kDiurnal;
  batch.arrivals.rate_per_sec = 40.0 * load;
  batch.arrivals.horizon = horizon;
  batch.fs_jobs = 7;
  batch.fs_machines = 4;
  batch.fs_seed = 3;
  sc.classes.push_back(batch);
  return sc;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  define_run_flags(flags, {.peers = "32", .instance = false});
  flags.define("strategy", "btd", "overlay strategy of the shared fleet")
      .define("loads", "0.5,1,2,4,8",
              "comma-separated offered-load multipliers on the base rates")
      .define("horizon-ms", "120", "arrival horizon per class (ms)")
      .define("slots", "3", "jobs in service concurrently")
      .define("queue", "6", "pending-queue bound; arrivals beyond it shed")
      .define("wave-ms", "2", "per-job accounting-wave cadence (ms)")
      .define("uts_b0", "150", "root branching factor of the UTS job shape")
      .define("trace", "",
              "append every cell's merged event timeline to this NDJSON path "
              "(written cell by cell, so a FATAL keeps the failing cell)")
      .define("json", "",
              "also write the per-class latency table as JSON");
  if (!flags.parse(argc, argv)) return 0;
  const RunFlags rf = parse_run_flags(flags);
  const lb::Strategy strategy = parse_strategy_flag(flags, "strategy");
  if (!lb::strategy_is_overlay(strategy)) {
    std::fprintf(stderr, "FATAL: service mode needs an overlay strategy\n");
    return 1;
  }
  if (rf.backend != lb::Backend::kSim && rf.backend != lb::Backend::kThreads) {
    std::fprintf(stderr, "FATAL: service mode runs on sim or threads only\n");
    return 1;
  }

  print_preamble("Service sweep: multi-job ingest with admission control",
                 "three priority classes share one overlay fleet; all "
                 "oracles armed; exact per-job counts/optima required");

  const std::string trace_path = flags.get("trace");
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_out = open_output_file(trace_path, "service trace");
  }

  Table table({"load", "class", "kind", "arrivals", "admitted", "rejected",
               "soj_p50_ms", "soj_p99_ms", "queue_p50_ms", "queue_p99_ms",
               "exec_sec", "checked"});
  std::vector<std::string> json_rows;
  for (double load : flags.get_double_list("loads")) {
    svc::ServiceConfig sc = build_service(flags, rf, strategy, load);

    check::OracleOptions options = check::oracle_options_for(sc.run);
    options.jobs = true;
    check::OracleSet oracles(options);
    trace::VectorTracer capture;
    trace::TeeSink tee(trace_path.empty() ? nullptr : &capture, &oracles);
    sc.run.tracer = &tee;

    const svc::ServiceMetrics m = svc::run_service(sc);
    if (trace_out.is_open()) {
      trace::write_ndjson(trace_out, capture.events());
      trace_out.flush();
    }
    oracles.finish();
    for (const check::Violation& v : oracles.violations()) {
      std::fprintf(stderr, "FATAL: %s\n", check::to_string(v).c_str());
    }
    if (!oracles.violations().empty()) return 1;
    if (!m.ok) {
      std::fprintf(stderr,
                   "FATAL: load %.2f did not complete every admitted job\n",
                   load);
      return 1;
    }
    if (m.peak_pending > sc.admission.queue_bound || m.bad_rejects != 0) {
      std::fprintf(stderr,
                   "FATAL: admission broke its bounds (peak %zu, bound %zu, "
                   "bad rejects %llu)\n",
                   m.peak_pending, sc.admission.queue_bound,
                   static_cast<unsigned long long>(m.bad_rejects));
      return 1;
    }
    for (const svc::JobRecord& rec : m.jobs) {
      if (rec.rejected) continue;
      const bool counting = rec.expected_bound == lb::kNoBound;
      if ((counting && rec.units != rec.expected_units) ||
          rec.bound != rec.expected_bound) {
        std::fprintf(stderr,
                     "FATAL: job %llu diverged from its sequential reference "
                     "(units %llu vs %llu, bound %lld vs %lld)\n",
                     static_cast<unsigned long long>(rec.job),
                     static_cast<unsigned long long>(rec.units),
                     static_cast<unsigned long long>(rec.expected_units),
                     static_cast<long long>(rec.bound),
                     static_cast<long long>(rec.expected_bound));
        return 1;
      }
    }

    for (std::size_t c = 0; c < sc.classes.size(); ++c) {
      std::uint64_t arrivals = 0, admitted = 0, rejected = 0;
      std::vector<double> sojourn_ms, queueing_ms;
      for (const svc::JobRecord& rec : m.jobs) {
        if (rec.job_class != static_cast<int>(c)) continue;
        ++arrivals;
        if (rec.rejected) {
          ++rejected;
          continue;
        }
        ++admitted;
        sojourn_ms.push_back(sim::to_seconds(rec.sojourn()) * 1e3);
        queueing_ms.push_back(sim::to_seconds(rec.queueing()) * 1e3);
      }
      SortedSample soj(std::move(sojourn_ms));
      SortedSample que(std::move(queueing_ms));
      auto pct = [](const SortedSample& s, double p) {
        return s.empty() ? std::string("-") : Table::cell(s.percentile(p), 3);
      };
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "    {\"load\": %g, \"class\": %zu, \"kind\": \"%s\", "
          "\"arrivals\": %llu, \"admitted\": %llu, \"rejected\": %llu, "
          "\"sojourn_p50_ms\": %.3f, \"sojourn_p99_ms\": %.3f, "
          "\"queueing_p50_ms\": %.3f, \"queueing_p99_ms\": %.3f, "
          "\"exec_s\": %.4f}",
          load, c, kind_name(sc.classes[c].kind),
          static_cast<unsigned long long>(arrivals),
          static_cast<unsigned long long>(admitted),
          static_cast<unsigned long long>(rejected), soj.percentile(0.5),
          soj.percentile(0.99), que.percentile(0.5), que.percentile(0.99),
          m.exec_seconds);
      json_rows.push_back(row);
      table.add_row({Table::cell(load, 2),
                     Table::cell(static_cast<std::uint64_t>(c)),
                     kind_name(sc.classes[c].kind), Table::cell(arrivals),
                     Table::cell(admitted), Table::cell(rejected),
                     pct(soj, 0.5), pct(soj, 0.99), pct(que, 0.5),
                     pct(que, 0.99),
                     c == 0 ? Table::cell(m.exec_seconds, 4) : std::string("-"),
                     "oracles"});
    }
  }
  if (!flags.get("json").empty()) {
    std::ofstream js = open_output_file(flags.get("json"), "service JSON");
    js << "{\n  \"experiment\": \"service_sweep\",\n"
       << "  \"strategy\": \"" << lb::strategy_name(strategy) << "\",\n"
       << "  \"backend\": \""
       << (rf.backend == lb::Backend::kSim ? "sim" : "threads") << "\",\n"
       << "  \"peers\": " << rf.peers << ",\n  \"slots\": "
       << flags.get_int("slots") << ",\n  \"queue_bound\": "
       << flags.get_int("queue") << ",\n  \"horizon_ms\": "
       << flags.get_double("horizon-ms") << ",\n  \"classes\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      js << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    js << "  ]\n}\n";
  }
  print_ladder(table, rf.csv,
               "sojourn and queueing delay rise with load, the low class "
               "first (priority inversion never starves the high class); "
               "past saturation the queue bound holds and the overflow is "
               "shed, never queued; every cell's per-job counts and optima "
               "are exact at every load.");
  return 0;
}
