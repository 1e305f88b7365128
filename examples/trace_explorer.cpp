// Trace explorer: run one (workload, strategy, scale, seed) combination with
// the structured tracer attached and dump the timeline for inspection.
//
//   $ ./examples/trace_explorer                          # 100-peer BTD on UTS
//   $ ./examples/trace_explorer --workload bb --strategy MW --peers 200
//   $ ./examples/trace_explorer --out trace.json --ndjson trace.ndjson
//
// The default output, trace.json, is Chrome trace-event JSON: open it at
// https://ui.perfetto.dev (or chrome://tracing) to see one track per peer
// with compute slices, message-handling slices, flow arrows for every work
// transfer, and counters for work-in-flight / idle peers / pending requests.
#include <cstdio>
#include <fstream>
#include <string>

#include "bb/bb_work.hpp"
#include "lb/driver.hpp"
#include "lb/messages.hpp"
#include "simnet/engine.hpp"
#include "support/check.hpp"
#include "bench_common.hpp"
#include "support/flags.hpp"
#include "trace/export.hpp"
#include "uts/uts_work.hpp"

using namespace olb;

namespace {

std::unique_ptr<lb::Workload> make_workload(const std::string& kind) {
  if (kind == "uts") {
    uts::Params p;
    p.shape = uts::TreeShape::kBinomial;
    p.hash = uts::HashMode::kFast;
    p.b0 = 2000;
    p.q = 0.4995;
    p.m = 2;
    p.root_seed = 599;
    return std::make_unique<uts::UtsWorkload>(p, uts::CostModel{});
  }
  if (kind == "bb") {
    return std::make_unique<bb::BBWorkload>(
        bb::FlowshopInstance::ta20x20_scaled(0, 12, 8), bb::BoundKind::kOneMachine,
        bb::CostModel{});
  }
  OLB_CHECK_MSG(false, "unknown --workload (use uts or bb)");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "uts", "workload kind: uts | bb")
      .define("strategy", "BTD", lb::strategy_names())
      .define("peers", "100", "simulated cluster size")
      .define("dmax", "10", "overlay tree degree")
      .define("seed", "1", "run seed")
      .define("out", "trace.json", "Perfetto/Chrome trace output path")
      .define("ndjson", "", "also write raw events as NDJSON here");
  bench::define_fault_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  auto workload = make_workload(flags.get("workload"));
  lb::RunConfig config;
  if (!lb::strategy_from_name(flags.get("strategy"), &config.strategy)) {
    std::fprintf(stderr, "unknown --strategy '%s' (use %s)\n",
                 flags.get("strategy").c_str(), lb::strategy_names().c_str());
    return 1;
  }
  config.num_peers = static_cast<int>(flags.get_int("peers"));
  config.dmax = static_cast<int>(flags.get_int("dmax"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.net = lb::paper_network(config.num_peers);
  config.faults = bench::parse_fault_flags(flags, config.num_peers);

  // Open every output before the (possibly long) run, so a bad path fails
  // in milliseconds instead of after the simulation.
  const std::string out_path = flags.get("out");
  std::ofstream out(out_path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open --out path '%s' for writing\n",
                 out_path.c_str());
    return 1;
  }
  const std::string nd_path = flags.get("ndjson");
  std::ofstream nd_out;
  if (!nd_path.empty()) {
    nd_out.open(nd_path, std::ios::binary);
    if (!nd_out.good()) {
      std::fprintf(stderr, "cannot open --ndjson path '%s' for writing\n",
                   nd_path.c_str());
      return 1;
    }
  }

  trace::VectorTracer tracer;
  config.tracer = &tracer;
  const auto metrics = lb::run_distributed(*workload, config);
  if (!metrics.ok) {
    std::fprintf(stderr, "run did not terminate cleanly\n");
    return 1;
  }

  const auto events = tracer.snapshot();
  {
    trace::PerfettoOptions opts;
    opts.num_actors = config.num_peers;
    opts.work_msg_type = lb::kWork;
    opts.type_name = lb::msg_type_name;
    opts.handling_cost = config.net.msg_handling_cost;
    trace::write_perfetto(out, events, opts);
  }
  if (!nd_path.empty()) trace::write_ndjson(nd_out, events);

  std::printf("%s on %s, %d peers, seed %llu:\n", flags.get("strategy").c_str(),
              flags.get("workload").c_str(), config.num_peers,
              static_cast<unsigned long long>(config.seed));
  std::printf("  %.4f simulated seconds, %llu units, %llu messages\n",
              metrics.exec_seconds,
              static_cast<unsigned long long>(metrics.total_units),
              static_cast<unsigned long long>(metrics.total_messages));
  std::printf("  queueing delay: mean %.3f us, max %.3f us\n",
              metrics.queueing_delay_mean * 1e6, metrics.queueing_delay_max * 1e6);
  std::printf("  %llu trace events -> %s (open at https://ui.perfetto.dev)\n",
              static_cast<unsigned long long>(metrics.trace_events),
              out_path.c_str());
  std::printf("  derived timeline: %zu buckets of %.1f ms\n",
              metrics.work_in_flight.size(),
              static_cast<double>(sim::Tally::kBusyBucket) / 1e6);
  return 0;
}
