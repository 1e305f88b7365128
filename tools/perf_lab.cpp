// perf_lab — the repo's reproducible performance laboratory.
//
// Runs a pinned suite of hot-path benchmarks with interleaved repetitions
// (round-robin over the suite, best-of-N per item, so slow thermal / noise
// drift hits every item equally instead of biasing whichever ran last) and
// writes a machine-fingerprinted `BENCH_overlay.json`:
//
//   perf_lab                         # full suite -> BENCH_overlay.json
//   perf_lab --suite smoke           # short CI leg
//   perf_lab --compare old.json new.json [--threshold 0.15]
//
// The suite covers the three hot paths the ROADMAP's "fast as the hardware
// allows" target cares about:
//
//   * BM_EngineEventThroughput — raw simulator event loop (ping-pong actors),
//   * sim_fig5_uts_slice       — a fig5-style BTD/UTS simulation slice
//                                (whole protocol stack over the engine),
//   * runtime_speedup          — overlay-on-threads with a small chunk size,
//                                i.e. the messaging-bound regime where
//                                mailbox overhead dominates,
//   * mailbox_throughput       — the MPSC mailbox alone, producer vs owner.
//
// All metrics are rates (higher is better). `--compare` prints a table of
// old/new/ratio and exits non-zero if any metric regressed by more than
// `--threshold` (default 15%). Comparisons across different machine
// fingerprints are refused (exit 0 with a note) unless `--force` is given —
// a rate measured on another box is not a baseline, it is a different
// experiment. See docs/BENCHMARKING.md for pinning/governor guidance.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/mpsc_mailbox.hpp"
#include "runtime/runtime.hpp"
#include "simnet/engine.hpp"
#include "support/check.hpp"
#include "support/meminfo.hpp"
#include "support/stats.hpp"

using namespace olb;
using namespace olb::bench;

namespace {

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------ fingerprint ---

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (in.good()) std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        const auto start = value.find_first_not_of(" \t");
        return start == std::string::npos ? value : value.substr(start);
      }
    }
  }
  return "unknown";
}

std::string scaling_governor() {
  const std::string g =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  return g.empty() ? "unknown" : g;
}

std::string git_sha() {
  std::string sha;
  if (FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// ------------------------------------------------------- minimal JSON read ---
//
// Just enough of a parser for the files this tool itself writes (and for a
// hand-edited baseline): objects, arrays, strings, numbers, bools/null. No
// unicode escapes — we never emit any.

struct Json {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse(Json* out) {
    pos_ = 0;
    return value(out) && (skip_ws(), pos_ == text_.size());
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::strchr(" \t\r\n", text_[pos_])) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      *out += c;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool value(Json* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Json::Kind::kObj;
      if (consume('}')) return true;
      do {
        std::string key;
        Json v;
        if (!string(&key) || !consume(':') || !value(&v)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
      } while (consume(','));
      return consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::Kind::kArr;
      if (consume(']')) return true;
      do {
        Json v;
        if (!value(&v)) return false;
        out->arr.push_back(std::move(v));
      } while (consume(','));
      return consume(']');
    }
    if (c == '"') {
      out->kind = Json::Kind::kStr;
      return string(&out->str);
    }
    if (literal("true")) {
      out->kind = Json::Kind::kBool;
      out->b = true;
      return true;
    }
    if (literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;
    char* end = nullptr;
    out->num = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    out->kind = Json::Kind::kNum;
    return true;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- suite items ---

/// Ping-pong actors: the raw event-loop throughput micro
/// (BM_EngineEventThroughput).
class Pinger : public sim::Actor {
 public:
  explicit Pinger(int peer) : peer_(peer) {}

 protected:
  void on_start() override {
    if (id() == 0) send(peer_, sim::Message(1));
  }
  void on_message(sim::Message m) override { send(m.src, sim::Message(1)); }

 private:
  int peer_;
};

double engine_event_rate(std::uint64_t events) {
  sim::Engine engine(sim::NetworkConfig{}, 1);
  engine.add_actor(std::make_unique<Pinger>(1));
  engine.add_actor(std::make_unique<Pinger>(0));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = engine.run(sim::kTimeMax, events);
  const double wall = wall_since(t0);
  OLB_CHECK(result.events == events);
  return static_cast<double>(result.events) / wall;
}

double sim_slice_rate(int peers, std::uint32_t uts_seed, int b0, double q,
                      std::uint64_t* nodes_out) {
  auto workload = make_uts(uts_seed, b0, q);
  auto config = uts_config(lb::Strategy::kOverlayBTD, peers, 1);
  config.backend = lb::Backend::kSim;
  const auto t0 = std::chrono::steady_clock::now();
  const auto metrics = lb::run_distributed(*workload, config);
  const double wall = wall_since(t0);
  OLB_CHECK_MSG(metrics.ok, "perf_lab sim slice did not terminate");
  if (nodes_out != nullptr) {
    OLB_CHECK_MSG(*nodes_out == 0 || *nodes_out == metrics.total_units,
                  "sim slice node count drifted between reps");
    *nodes_out = metrics.total_units;
  }
  return static_cast<double>(metrics.total_units) / wall;
}

double threads_rate(int threads, std::uint64_t chunk, std::uint32_t uts_seed,
                    int b0, double q, std::uint64_t* nodes_out) {
  auto workload = make_uts(uts_seed, b0, q);
  auto config = uts_config(lb::Strategy::kOverlayTD, threads, 1);
  config.backend = lb::Backend::kThreads;
  config.chunk_units = chunk;
  config.limits.time_limit = sim::seconds(300.0);
  const auto metrics = runtime::run_threads(*workload, config);
  OLB_CHECK_MSG(metrics.ok, "perf_lab threads slice did not terminate");
  if (nodes_out != nullptr) {
    OLB_CHECK_MSG(*nodes_out == 0 || *nodes_out == metrics.total_units,
                  "threads slice lost or duplicated nodes");
    *nodes_out = metrics.total_units;
  }
  return static_cast<double>(metrics.total_units) / metrics.done_seconds;
}

/// One sharded large-n run (the docs/SCALING.md regime): BTD over 10^5 peers
/// on the conservatively-windowed engine. Gated — the full suite runs it
/// once (not interleaved; a rep costs ~half a minute), smoke skips it.
/// Beyond the nodes/s rate it captures the scale fingerprint the playbook
/// budgets against: effective shard count, window count, peak RSS and bytes
/// per peer, all stamped into the JSON's "scale" object.
struct ScaleInfo {
  int peers = 0;
  int shards_requested = 0;
  int shards = 0;  ///< effective (cluster alignment may clamp the request)
  std::uint64_t windows = 0;
  std::uint64_t nodes = 0;
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t rss_peak_bytes = 0;
  double bytes_per_peer = 0.0;
};

double scale_rate(int peers, int shards, std::uint32_t uts_seed, int b0,
                  double q, ScaleInfo* info) {
  // The exact node count the sharded run must reproduce, outside the timed
  // region.
  const std::uint64_t want = lb::run_sequential(*make_uts(uts_seed, b0, q)).units;
  auto workload = make_uts(uts_seed, b0, q);
  auto config = uts_config(lb::Strategy::kOverlayBTD, peers, 1);
  config.backend = lb::Backend::kSim;
  config.sim_shards = shards;
  if (peers > 1000) {
    // Large-n pacing (docs/SCALING.md): stretch the idle-retry timers in
    // proportion to n, or termination is a request storm. Same rule as
    // fig5_scalability's --scale-pacing.
    const auto pace = static_cast<sim::Time>(peers / 1000);
    config.overlay.retry_delay *= pace;
    config.overlay.bridge_patience *= pace;
    config.limits.event_limit = 4'000'000'000ull;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto metrics = lb::run_distributed(*workload, config);
  const double wall = wall_since(t0);
  OLB_CHECK_MSG(metrics.ok, "perf_lab scale slice did not terminate");
  if (metrics.total_units != want) {
    std::fprintf(stderr,
                 "FATAL: perf_lab scale slice explored %llu units, the "
                 "sequential count is %llu\n",
                 static_cast<unsigned long long>(metrics.total_units),
                 static_cast<unsigned long long>(want));
    std::exit(1);
  }
  if (info != nullptr) {
    info->peers = peers;
    info->shards_requested = shards;
    info->shards = metrics.sim_shards;
    info->windows = metrics.sim_windows;
    info->nodes = metrics.total_units;
    info->wall_seconds = wall;
    info->sim_seconds = metrics.exec_seconds;
    info->rss_peak_bytes = support::peak_rss_bytes();
    info->bytes_per_peer = static_cast<double>(info->rss_peak_bytes) /
                           static_cast<double>(peers);
  }
  return static_cast<double>(metrics.total_units) / wall;
}

double mailbox_rate(std::uint64_t msgs) {
  // The production path: nodes come from the producer's bounded pool and
  // are recycled back to it by the consumer (ThreadNet does exactly this).
  // Pool before box: the mailbox's destructor recycles any leftover nodes
  // into the pool, so the pool must outlive it.
  runtime::MsgNodePool pool;
  runtime::MpscMailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&box, &pool, msgs] {
    for (std::uint64_t i = 0; i < msgs; ++i) {
      box.push(sim::Message(1, static_cast<std::int64_t>(i)), pool);
    }
  });
  sim::Message m;
  std::uint64_t received = 0;
  while (received < msgs) {
    if (box.pop(m)) {
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  const double wall = wall_since(t0);
  return static_cast<double>(msgs) / wall;
}

struct SuiteItem {
  std::string name;
  std::string unit;
  std::function<double()> run;
};

struct MetricResult {
  std::string name;
  std::string unit;
  double best = 0.0;
  double p50 = 0.0;
  std::vector<double> reps;
};

// ------------------------------------------------------------------ output ---

void write_json(const std::string& path, const std::string& suite, int reps,
                const std::string& sha, const std::vector<MetricResult>& results,
                const ScaleInfo* scale) {
  std::ofstream out(path);
  OLB_CHECK_MSG(out.good(), "cannot open --json output path");
  out << "{\n";
  out << "  \"schema\": \"olb-perf-lab-v1\",\n";
  out << "  \"experiment\": \"perf_lab\",\n";
  out << "  \"git_sha\": \"" << json_escape(sha) << "\",\n";
  out << "  \"suite\": \"" << json_escape(suite) << "\",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"machine\": {\n";
  out << "    \"cpu\": \"" << json_escape(cpu_model()) << "\",\n";
  out << "    \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  out << "    \"governor\": \"" << json_escape(scaling_governor()) << "\",\n";
  out << "    \"compiler\": \"" << json_escape(__VERSION__) << "\"\n";
  out << "  },\n";
  if (scale != nullptr) {
    // The docs/SCALING.md fingerprint: shard count and per-peer memory of
    // the gated large-n slice. Absent when the slice did not run (smoke).
    out << "  \"scale\": {\"peers\": " << scale->peers
        << ", \"shards\": " << scale->shards
        << ", \"shards_requested\": " << scale->shards_requested
        << ", \"windows\": " << scale->windows
        << ", \"nodes\": " << scale->nodes
        << ", \"wall_seconds\": " << scale->wall_seconds
        << ", \"sim_seconds\": " << scale->sim_seconds
        << ", \"rss_peak_bytes\": " << scale->rss_peak_bytes
        << ", \"bytes_per_peer\": " << scale->bytes_per_peer << "},\n";
  }
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MetricResult& r = results[i];
    out << "    {\"name\": \"" << json_escape(r.name) << "\", \"unit\": \""
        << json_escape(r.unit) << "\", \"best\": " << r.best
        << ", \"p50\": " << r.p50 << ", \"reps\": [";
    for (std::size_t j = 0; j < r.reps.size(); ++j) {
      out << r.reps[j] << (j + 1 < r.reps.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// ----------------------------------------------------------------- compare ---

bool load_results(const std::string& path, Json* doc, std::string* err) {
  std::ifstream in(path);
  if (!in.good()) {
    *err = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  if (!JsonParser(ss.str()).parse(doc)) {
    *err = "cannot parse " + path;
    return false;
  }
  if (doc->get("results") == nullptr) {
    *err = path + " has no \"results\" array";
    return false;
  }
  return true;
}

std::string machine_key(const Json& doc) {
  const Json* machine = doc.get("machine");
  if (machine == nullptr) return "?";
  std::string cpu = "?", nproc = "?";
  if (const Json* c = machine->get("cpu")) cpu = c->str;
  if (const Json* n = machine->get("nproc")) {
    nproc = std::to_string(static_cast<int>(n->num));
  }
  return cpu + " x" + nproc;
}

int compare_main(const std::string& old_path, const std::string& new_path,
                 double threshold, bool force) {
  Json old_doc, new_doc;
  std::string err;
  if (!load_results(old_path, &old_doc, &err) ||
      !load_results(new_path, &new_doc, &err)) {
    std::fprintf(stderr, "FATAL: %s\n", err.c_str());
    return 2;
  }
  const std::string old_machine = machine_key(old_doc);
  const std::string new_machine = machine_key(new_doc);
  if (old_machine != new_machine) {
    std::printf("# machine fingerprints differ:\n#   old: %s\n#   new: %s\n",
                old_machine.c_str(), new_machine.c_str());
    if (!force) {
      std::printf("# cross-machine rates are not comparable; skipping "
                  "(pass --force to compare anyway)\n");
      return 0;
    }
  }
  auto sha_of = [](const Json& doc) {
    const Json* s = doc.get("git_sha");
    return s != nullptr ? s->str : std::string("?");
  };
  std::printf("# perf_lab compare: old=%s (%s)  new=%s (%s)  threshold=%.0f%%\n",
              old_path.c_str(), sha_of(old_doc).c_str(), new_path.c_str(),
              sha_of(new_doc).c_str(), threshold * 100.0);

  Table table({"metric", "unit", "old_best", "new_best", "new/old", "verdict"});
  bool regressed = false;
  for (const Json& entry : new_doc.get("results")->arr) {
    const Json* name = entry.get("name");
    const Json* best = entry.get("best");
    const Json* unit = entry.get("unit");
    if (name == nullptr || best == nullptr) continue;
    const Json* old_entry = nullptr;
    for (const Json& o : old_doc.get("results")->arr) {
      const Json* n = o.get("name");
      if (n != nullptr && n->str == name->str) {
        old_entry = &o;
        break;
      }
    }
    std::vector<std::string> row = {name->str, unit != nullptr ? unit->str : "?"};
    if (old_entry == nullptr || old_entry->get("best") == nullptr) {
      row.insert(row.end(), {"-", Table::cell(best->num, 0), "-", "NEW"});
      table.add_row(std::move(row));
      continue;
    }
    const double old_best = old_entry->get("best")->num;
    const double ratio = old_best > 0.0 ? best->num / old_best : 0.0;
    const bool bad = ratio < 1.0 - threshold;
    if (bad) regressed = true;
    row.insert(row.end(),
               {Table::cell(old_best, 0), Table::cell(best->num, 0),
                Table::cell(ratio, 3), bad ? "REGRESSION" : "ok"});
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  if (regressed) {
    std::printf("\n# FAIL: at least one metric regressed by more than %.0f%%\n",
                threshold * 100.0);
    return 1;
  }
  std::printf("\n# ok: no metric regressed by more than %.0f%%\n",
              threshold * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--compare old.json new.json` is positional; hand-parse that mode before
  // Flags (which only understands --name=value pairs).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") != 0) continue;
    std::vector<std::string> paths;
    double threshold = 0.15;
    bool force = false;
    for (int j = 1; j < argc; ++j) {
      const std::string arg = argv[j];
      if (arg == "--compare") continue;
      if (arg == "--force") {
        force = true;
      } else if (arg.rfind("--threshold=", 0) == 0) {
        threshold = std::stod(arg.substr(12));
      } else if (arg == "--threshold" && j + 1 < argc) {
        threshold = std::stod(argv[++j]);
      } else if (arg.rfind("--", 0) != 0) {
        paths.push_back(arg);
      } else {
        std::fprintf(stderr, "FATAL: unknown compare flag '%s'\n", arg.c_str());
        return 2;
      }
    }
    if (paths.size() != 2) {
      std::fprintf(stderr,
                   "usage: perf_lab --compare old.json new.json "
                   "[--threshold 0.15] [--force]\n");
      return 2;
    }
    return compare_main(paths[0], paths[1], threshold, force);
  }

  Flags flags;
  flags.define("suite", "full", "suite to run: full or smoke (short CI leg)")
      .define("reps", "0", "interleaved repetitions per metric (0 = suite default)")
      .define("json", "BENCH_overlay.json", "result file")
      .define("sha", "", "git sha to record (default: git rev-parse)")
      .define("engine-events", "0", "events per engine-throughput rep (0 = suite default)")
      .define("sim-peers", "0", "peers for the fig5-style sim slice (0 = suite default)")
      .define("sim-uts-seed", "1", "UTS root seed of the sim slice")
      .define("sim-uts-b0", "0", "UTS b0 of the sim slice (0 = suite default)")
      .define("sim-uts-q", "0.4995", "UTS q of the sim slice")
      .define("rt-threads", "2", "threads for the runtime_speedup slice")
      .define("rt-chunk", "8", "chunk_units for the runtime_speedup slice "
                               "(small = messaging-bound, the hot-path regime)")
      .define("rt-uts-seed", "1", "UTS root seed of the runtime slice")
      .define("rt-uts-b0", "0", "UTS b0 of the runtime slice (0 = suite default)")
      .define("rt-uts-q", "0.4995", "UTS q of the runtime slice")
      .define("mailbox-msgs", "0", "messages per mailbox rep (0 = suite default)")
      .define("scale-peers", "-1",
              "peers for the sharded large-n slice (-1 = suite default: "
              "100000 full / off for smoke; 0 = off)")
      .define("scale-shards", "8", "event-queue shards for the large-n slice")
      .define("scale-uts-seed", "1", "UTS root seed of the large-n slice")
      .define("scale-uts-b0", "2000", "UTS b0 of the large-n slice")
      .define("scale-uts-q", "0.49995", "UTS q of the large-n slice");
  if (!flags.parse(argc, argv)) return 0;

  const std::string suite = flags.get("suite");
  OLB_CHECK_MSG(suite == "full" || suite == "smoke", "--suite must be full|smoke");
  const bool smoke = suite == "smoke";
  auto defaulted = [&](const char* name, std::int64_t full_default,
                       std::int64_t smoke_default) {
    const std::int64_t v = flags.get_int(name);
    return v != 0 ? v : (smoke ? smoke_default : full_default);
  };
  const int reps = static_cast<int>(defaulted("reps", 7, 3));
  const auto engine_events =
      static_cast<std::uint64_t>(defaulted("engine-events", 2000000, 200000));
  const int sim_peers = static_cast<int>(defaulted("sim-peers", 96, 32));
  const int sim_b0 = static_cast<int>(defaulted("sim-uts-b0", 2000, 600));
  const int rt_b0 = static_cast<int>(defaulted("rt-uts-b0", 2000, 600));
  const auto mailbox_msgs =
      static_cast<std::uint64_t>(defaulted("mailbox-msgs", 1000000, 200000));
  const std::int64_t scale_flag = flags.get_int("scale-peers");
  const int scale_peers =
      static_cast<int>(scale_flag >= 0 ? scale_flag : (smoke ? 0 : 100000));

  std::uint64_t sim_nodes = 0, rt_nodes = 0;
  std::vector<SuiteItem> items;
  items.push_back({"BM_EngineEventThroughput", "events/s",
                   [&] { return engine_event_rate(engine_events); }});
  items.push_back({"sim_fig5_uts_slice", "nodes/s", [&] {
                     return sim_slice_rate(
                         sim_peers,
                         static_cast<std::uint32_t>(flags.get_int("sim-uts-seed")),
                         sim_b0, flags.get_double("sim-uts-q"), &sim_nodes);
                   }});
  items.push_back({"runtime_speedup", "nodes/s", [&] {
                     return threads_rate(
                         static_cast<int>(flags.get_int("rt-threads")),
                         static_cast<std::uint64_t>(flags.get_int("rt-chunk")),
                         static_cast<std::uint32_t>(flags.get_int("rt-uts-seed")),
                         rt_b0, flags.get_double("rt-uts-q"), &rt_nodes);
                   }});
  items.push_back({"mailbox_throughput", "msgs/s",
                   [&] { return mailbox_rate(mailbox_msgs); }});

  const std::string sha = flags.get("sha").empty() ? git_sha() : flags.get("sha");
  print_preamble("perf_lab: pinned hot-path suite (interleaved best-of-N)",
                 "suite=" + suite + " reps=" + std::to_string(reps) +
                     " sha=" + sha);

  // Interleaved repetitions: one pass over the whole suite per rep, so
  // machine-state drift (thermal, background load) is spread across items
  // instead of systematically favouring the last-measured one.
  std::vector<std::vector<double>> reps_per_item(items.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      const double rate = items[i].run();
      reps_per_item[i].push_back(rate);
      std::printf("# rep %d/%d  %-28s %14.0f %s\n", rep + 1, reps,
                  items[i].name.c_str(), rate, items[i].unit.c_str());
      std::fflush(stdout);
    }
  }

  std::vector<MetricResult> results;
  Table table({"metric", "unit", "best", "p50", "spread%"});
  for (std::size_t i = 0; i < items.size(); ++i) {
    MetricResult r;
    r.name = items[i].name;
    r.unit = items[i].unit;
    r.reps = reps_per_item[i];
    const SortedSample sample(reps_per_item[i]);
    r.best = sample.max();  // rates: best = fastest rep
    r.p50 = sample.median();
    results.push_back(r);
    const double spread =
        sample.min() > 0.0 ? 100.0 * (sample.max() / sample.min() - 1.0) : 0.0;
    table.add_row({r.name, r.unit, Table::cell(r.best, 0), Table::cell(r.p50, 0),
                   Table::cell(spread, 1)});
  }
  // Gated large-n slice: one shot after the interleave (a rep is ~half a
  // minute at n = 10^5, too heavy to round-robin with the micros).
  ScaleInfo scale;
  if (scale_peers > 0) {
    const double rate = scale_rate(
        scale_peers, static_cast<int>(flags.get_int("scale-shards")),
        static_cast<std::uint32_t>(flags.get_int("scale-uts-seed")),
        static_cast<int>(flags.get_int("scale-uts-b0")),
        flags.get_double("scale-uts-q"), &scale);
    MetricResult r;
    r.name = "sim_sharded_scale";
    r.unit = "nodes/s";
    r.best = r.p50 = rate;
    r.reps = {rate};
    results.push_back(r);
    table.add_row({r.name, r.unit, Table::cell(r.best, 0), Table::cell(r.p50, 0),
                   Table::cell(0.0, 1)});
    std::printf("# scale slice: n=%d shards=%d (requested %d) windows=%llu "
                "wall=%.1fs rss_peak=%.1fMB bytes/peer=%.0f\n",
                scale.peers, scale.shards, scale.shards_requested,
                static_cast<unsigned long long>(scale.windows),
                scale.wall_seconds,
                static_cast<double>(scale.rss_peak_bytes) / (1024.0 * 1024.0),
                scale.bytes_per_peer);
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf("\n# sim slice: %llu nodes; runtime slice: %llu nodes\n",
              static_cast<unsigned long long>(sim_nodes),
              static_cast<unsigned long long>(rt_nodes));

  const std::string json_path = flags.get("json");
  if (!json_path.empty()) {
    write_json(json_path, suite, reps, sha, results,
               scale_peers > 0 ? &scale : nullptr);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}
