// olb_fuzz — protocol conformance fuzzer (src/check).
//
// Sweeps random (protocol x overlay shape x workload x fault plan x
// schedule seed) tuples, runs each on the simulator with every invariant
// oracle attached, and on the first failure greedily shrinks the tuple to a
// minimal repro. Every case is a pure function of (--base-seed, index), so
// sweeps are resumable and a printed case replays exactly.
//
//   $ ./tools/olb_fuzz --seconds 30                    # sweep for 30 s
//   $ ./tools/olb_fuzz --plant split_bias              # harness self-test:
//                                                      # must FAIL and shrink
//   $ ./tools/olb_fuzz --trace trace.json
//       --repro "strategy=BTD peers=2 dmax=1 workload=0 seed=1 fault=0 sched=0"
//     (one line; deterministic replay of a printed case)
//
// Exit status: 0 = no violation found, 1 = violation (repro printed),
// 2 = bad usage.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "lb/messages.hpp"
#include "support/flags.hpp"
#include "trace/export.hpp"

using namespace olb;

namespace {

bool plant_from_name(const std::string& name, lb::PlantedBug* out) {
  if (name == "none") {
    *out = lb::PlantedBug{};
    return true;
  }
  if (name == "split_bias") {
    out->kind = lb::PlantedBug::Kind::kSplitBias;
    return true;
  }
  if (name == "lost_work") {
    out->kind = lb::PlantedBug::Kind::kLostWork;
    return true;
  }
  return false;
}

bool strategies_from_csv(const std::string& csv,
                         std::vector<lb::Strategy>* out) {
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string name = csv.substr(pos, comma - pos);
    lb::Strategy s;
    if (!lb::strategy_from_name(name, &s)) {
      std::fprintf(stderr, "unknown strategy '%s' (known: %s)\n", name.c_str(),
                   lb::strategy_names().c_str());
      return false;
    }
    out->push_back(s);
    pos = comma + 1;
  }
  return !out->empty();
}

void print_violations(const std::vector<check::Violation>& violations) {
  for (const auto& v : violations) {
    std::printf("  %s\n", check::to_string(v).c_str());
  }
}

/// Re-runs `c` with a recording tracer and writes the stream to `path`
/// (.ndjson -> NDJSON, anything else -> Perfetto JSON).
bool dump_trace(const check::FuzzCase& c, const lb::PlantedBug& plant,
                const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open --trace path '%s' for writing\n",
                 path.c_str());
    return false;
  }
  trace::VectorTracer tracer;
  (void)check::run_case(c, plant, &tracer);
  const auto events = tracer.snapshot();
  if (path.size() >= 7 && path.substr(path.size() - 7) == ".ndjson") {
    trace::write_ndjson(os, events);
  } else {
    trace::PerfettoOptions opts;
    opts.num_actors = c.peers;
    opts.work_msg_type = lb::kWork;
    opts.type_name = lb::msg_type_name;
    trace::write_perfetto(os, events, opts);
  }
  std::printf("wrote %zu trace events to %s\n", events.size(), path.c_str());
  return true;
}

/// CI artifact bundle: the repro string (raw + shrunk) with its violations,
/// and a Perfetto trace of the minimal case.
void write_artifacts(const std::string& dir, const check::FuzzCase& raw,
                     const check::FuzzCase& minimal,
                     const lb::PlantedBug& plant,
                     const std::vector<check::Violation>& violations) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create --out-dir '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return;
  }
  {
    std::ofstream os(dir + "/repro.txt");
    os << "failing case: " << check::format_case(raw) << "\n";
    os << "minimal case: " << check::format_case(minimal) << "\n";
    os << "replay: olb_fuzz --repro \"" << check::format_case(minimal)
       << "\" --trace trace.json\n\n";
    for (const auto& v : violations) os << check::to_string(v) << "\n";
  }
  dump_trace(minimal, plant, dir + "/trace.json");
  std::printf("artifacts written to %s\n", dir.c_str());
}

int report_failure(Flags& flags, const check::FuzzCase& raw,
                   const lb::PlantedBug& plant,
                   const check::ConformanceReport& report) {
  std::printf("FAIL %s\n", check::format_case(raw).c_str());
  print_violations(report.violations);

  check::FuzzCase minimal = raw;
  std::vector<check::Violation> minimal_violations = report.violations;
  if (!flags.get_bool("no-shrink")) {
    const auto shrunk = check::shrink_case(raw, plant);
    minimal = shrunk.minimal;
    minimal_violations = check::run_case(minimal, plant).violations;
    std::printf("shrunk in %d attempts to: %s\n", shrunk.attempts,
                check::format_case(minimal).c_str());
    print_violations(minimal_violations);
  }
  const std::string plant_arg =
      flags.get("plant") == "none" ? "" : " --plant " + flags.get("plant");
  std::printf("replay: olb_fuzz --repro \"%s\"%s --trace trace.json\n",
              check::format_case(minimal).c_str(), plant_arg.c_str());

  const std::string out_dir = flags.get("out-dir");
  if (!out_dir.empty()) {
    write_artifacts(out_dir, raw, minimal, plant, minimal_violations);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("seconds", "30", "wall-clock sweep budget")
      .define("base-seed", "1",
              "sweep key: case i is a pure function of (base-seed, i)")
      .define("max-cases", "0", "stop after N cases (0 = budget only)")
      .define("strategies", "TD,TR,BTD,RWS,MW,AHMW",
              "comma-separated strategies to fuzz")
      .define("plant", "none",
              "protocol mutation the oracles must catch: "
              "none|split_bias|lost_work")
      .define("repro", "",
              "replay one case (a printed case string) instead of sweeping")
      .define("trace", "",
              "with --repro: dump the replay's event stream "
              "(.ndjson -> NDJSON, else Perfetto)")
      .define("no-shrink", "false", "report the raw failing case unshrunk")
      .define("diff", "false",
              "differential-check fault-free cases against the threads "
              "backend, and run every job case on threads too")
      .define("out-dir", "",
              "on failure, write repro.txt + trace.json here (CI artifacts)")
      .define("start-index", "0",
              "first case index to run (shards a sweep; cases are pure "
              "functions of (base-seed, index))")
      .define("verbose", "false",
              "print every case before running it (locates a case that "
              "aborts the process)");
  if (!flags.parse(argc, argv)) return 2;

  lb::PlantedBug plant;
  if (!plant_from_name(flags.get("plant"), &plant)) {
    std::fprintf(stderr, "--plant must be none, split_bias or lost_work\n");
    return 2;
  }
  std::vector<lb::Strategy> allowed;
  if (!strategies_from_csv(flags.get("strategies"), &allowed)) return 2;

  // --repro: one deterministic replay, optionally with a trace dump.
  if (const std::string repro = flags.get("repro"); !repro.empty()) {
    check::FuzzCase c;
    if (!check::parse_case(repro, &c)) {
      std::fprintf(stderr, "cannot parse --repro case '%s'\n", repro.c_str());
      return 2;
    }
    const auto report = check::run_case(c, plant);
    std::printf("%s: %s\n", check::format_case(c).c_str(),
                report.passed() ? "PASS" : "FAIL");
    print_violations(report.violations);
    if (const std::string path = flags.get("trace"); !path.empty()) {
      if (!dump_trace(c, plant, path)) return 2;
    }
    return report.passed() ? 0 : 1;
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(flags.get_int("seconds"));
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(flags.get_int("base-seed"));
  const std::uint64_t max_cases =
      static_cast<std::uint64_t>(flags.get_int("max-cases"));
  const bool diff = flags.get_bool("diff");

  const bool verbose = flags.get_bool("verbose");
  std::uint64_t cases = 0, diffed = 0, thread_jobs = 0;
  for (std::uint64_t i = static_cast<std::uint64_t>(flags.get_int("start-index"));;
       ++i) {
    if (max_cases != 0 && cases >= max_cases) break;
    if (std::chrono::steady_clock::now() >= deadline) break;
    check::FuzzCase c = check::random_case(base_seed, i, allowed);
    // Planted bugs target the single-job protocol paths; with a plant
    // active the sweep budget belongs to plantable cases, so the job
    // dimension is disarmed (still deterministic per command line).
    if (plant.enabled()) c.jobs_id = 0;
    if (verbose) {
      std::fprintf(stderr, "[%llu] %s\n", static_cast<unsigned long long>(i),
                   check::format_case(c).c_str());
      std::fflush(stderr);
    }
    const auto report = check::run_case(c, plant);
    ++cases;
    if (!report.passed()) return report_failure(flags, c, plant, report);

    // Cross-backend differential pass over the single-job cases the threads
    // backend accepts.
    lb::RunConfig config = check::make_case_config(c);
    config.plant = plant;
    lb::RunConfig on_threads = config;
    on_threads.backend = lb::Backend::kThreads;
    if (diff && c.jobs_id == 0 && lb::unsupported_reason(on_threads).empty()) {
      const auto d = check::run_differential(
          [&] { return check::make_case_workload(c); }, config,
          check::case_reference(c));
      ++diffed;
      if (!d.passed()) {
        std::printf("FAIL (differential) %s\n", check::format_case(c).c_str());
        print_violations(d.sim.violations);
        print_violations(d.threads.violations);
        print_violations(d.mismatches);
        std::printf("replay: olb_fuzz --repro \"%s\" --diff\n",
                    check::format_case(c).c_str());
        return 1;
      }
    }
    // The service path on threads: the same job plan, oracles armed, each
    // job checked against its own sequential reference.
    if (diff && c.jobs_id != 0) {
      const auto t = check::run_job_case(c, lb::Backend::kThreads);
      ++thread_jobs;
      if (!t.passed()) {
        std::printf("FAIL (thread job case) %s\n", check::format_case(c).c_str());
        print_violations(t.violations);
        return 1;
      }
    }
    if (cases % 50 == 0) {
      std::printf("... %llu cases clean (%llu differential, %llu thread job)\n",
                  static_cast<unsigned long long>(cases),
                  static_cast<unsigned long long>(diffed),
                  static_cast<unsigned long long>(thread_jobs));
      std::fflush(stdout);
    }
  }
  std::printf("OK: %llu cases, %llu differential, %llu thread job cases, "
              "no violations\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(diffed),
              static_cast<unsigned long long>(thread_jobs));
  return 0;
}
