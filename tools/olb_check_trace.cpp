// Offline conformance checker for socket-backend runs: reads the
// per-process NDJSON traces a run wrote (--socket-trace), merges them into
// one causally ordered stream (check::merge_causal) and replays it through
// the invariant oracles (src/check).
//
//   $ tools/olb_check_trace --traces a.rank0.ndjson,a.rank1.ndjson
//         --expect-peers 2
//
// Exit status 0 when every oracle is quiet (and, with --expect-peers, every
// rank reached kTerminated); 1 with the violations printed otherwise.
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/trace_merge.hpp"
#include "lb/messages.hpp"
#include "support/flags.hpp"
#include "trace/export.hpp"

int main(int argc, char** argv) {
  using namespace olb;

  Flags flags;
  flags.define("traces", "", "comma-separated per-rank NDJSON trace files")
      .define("work-type", std::to_string(lb::kWork),
              "message type carrying work payloads")
      .define("expect-peers", "0",
              "require exactly this many distinct terminated peers (0 = skip)")
      .define("no-clamp", "true",
              "treat any split-fraction clamp as a violation (fault-free "
              "homogeneous runs never need one)");
  if (!flags.parse(argc, argv)) return 0;

  const std::string traces = flags.get("traces");
  if (traces.empty()) {
    std::fprintf(stderr, "olb_check_trace: --traces is required\n");
    return 2;
  }

  std::vector<std::vector<trace::TraceEvent>> streams;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = traces.find(',', start);
    const std::string path = traces.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      std::fprintf(stderr, "olb_check_trace: cannot open '%s'\n", path.c_str());
      return 2;
    }
    streams.push_back(trace::read_ndjson(in));
    std::printf("# %s: %zu events\n", path.c_str(), streams.back().size());
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  const std::vector<trace::TraceEvent> merged = check::merge_causal(streams);

  check::OracleOptions options;
  options.work_msg_type = static_cast<int>(flags.get_int("work-type"));
  options.faults_possible = false;
  options.expect_no_clamp = flags.get_bool("no-clamp");
  // Socket ranks share no clock and TCP streams are re-driven by reconnects,
  // so per-link id-order FIFO is not a cross-process invariant.
  options.strict_link_fifo = false;

  check::OracleSet oracles(options);
  for (const trace::TraceEvent& e : merged) oracles.record(e);
  oracles.finish();

  std::vector<check::Violation> violations = oracles.violations();

  const int expect_peers = static_cast<int>(flags.get_int("expect-peers"));
  if (expect_peers > 0) {
    std::set<int> terminated;
    for (const trace::TraceEvent& e : merged) {
      if (e.kind == trace::EventKind::kTerminated) terminated.insert(e.actor);
    }
    if (static_cast<int>(terminated.size()) != expect_peers) {
      check::Violation v;
      v.oracle = "peer-count";
      v.detail = std::to_string(terminated.size()) +
                 " distinct terminated peers, expected " +
                 std::to_string(expect_peers);
      violations.push_back(std::move(v));
    }
  }

  if (!violations.empty()) {
    for (const check::Violation& v : violations) {
      std::fprintf(stderr, "VIOLATION %s\n", check::to_string(v).c_str());
    }
    std::fprintf(stderr, "olb_check_trace: %zu violation(s) over %zu merged "
                 "events from %zu file(s)\n",
                 violations.size(), merged.size(), streams.size());
    return 1;
  }
  std::printf("# OK: %zu merged events from %zu file(s), all oracles quiet\n",
              merged.size(), streams.size());
  return 0;
}
