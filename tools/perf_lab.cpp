// perf_lab — wall-clock micros of the two hot paths no end-to-end run
// isolates: the simulator's event loop and the thread backend's mailbox.
//
// Runs the suite with interleaved repetitions (one pass over every item per
// rep, so slow thermal / noise drift hits every item equally instead of
// biasing whichever ran last) and writes a machine-fingerprinted
// `BENCH_overlay.json`:
//
//   perf_lab                         # full suite -> BENCH_overlay.json
//   perf_lab --suite smoke           # short CI leg
//   perf_lab --compare old.json [--json new.json] [--threshold 0.15]
//
//   * BM_EngineEventThroughput — raw simulator event loop (ping-pong actors),
//   * mailbox_throughput       — one peer's mailbox alone, producer vs owner.
//
// Whole UTS and B&B runs on every execution path are perfbench's workloads
// (perfbench/README.md), and the large-n ladder is fig5_scalability
// --big_scales (docs/SCALING.md); both verify every solve.
//
// Both metrics are rates (higher is better). `--compare` prints a table of
// old/new/ratio and exits 1 if any metric regressed by more than
// `--threshold` (default 15%, a fraction in (0, 1)). Comparisons across
// different machine fingerprints are refused (exit 0 with a note) unless
// `--force` is given — a rate measured on another box is not a baseline, it
// is a different experiment. A bad flag or threshold, or an unreadable file,
// exits 2. See docs/BENCHMARKING.md for pinning/governor guidance.
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
#include "runtime/mailbox.hpp"
#include "simnet/engine.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

using namespace olb;
using namespace olb::bench;

namespace {

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
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

double mailbox_rate(std::uint64_t msgs) {
  // The owner takes whole batches, as ThreadNet's peer loop does, and
  // yields while the box is empty.
  runtime::Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&box, msgs] {
    for (std::uint64_t i = 0; i < msgs; ++i) {
      box.push(sim::Message(1, static_cast<std::int64_t>(i)));
    }
  });
  std::vector<sim::Message> batch;
  std::uint64_t received = 0;
  while (received < msgs) {
    box.take(batch);
    if (batch.empty()) std::this_thread::yield();
    received += batch.size();
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
                const std::string& sha, const std::vector<MetricResult>& results) {
  std::ofstream out = open_output_file(path, "--json");
  out << "{\n";
  out << "  \"schema\": \"olb-perf-lab-v1\",\n";
  out << "  \"experiment\": \"perf_lab\",\n";
  out << "  \"suite\": \"" << suite << "\",\n";
  out << "  \"reps\": " << reps << ",\n";
  write_fingerprint_json(out, sha);
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MetricResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"unit\": \"" << r.unit
        << "\", \"best\": " << r.best << ", \"p50\": " << r.p50
        << ", \"reps\": [";
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

/// A flag value perf_lab cannot use: reported the way Flags reports one
/// that does not parse, with exit status 2.
int usage_error(const char* flag, const std::string& value, const char* expected) {
  std::fprintf(stderr, "FATAL: --%s: '%s' is not %s\n", flag, value.c_str(), expected);
  return 2;
}

/// Per-suite sizes: the full suite for committed numbers, smoke for CI.
struct Suite {
  int reps;
  std::uint64_t engine_events;  ///< per BM_EngineEventThroughput rep
  std::uint64_t mailbox_msgs;   ///< per mailbox_throughput rep
};
constexpr Suite kFullSuite{7, 2'000'000, 1'000'000};
constexpr Suite kSmokeSuite{3, 200'000, 200'000};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("suite", "full", "suite to run: full or smoke (short CI leg)")
      .define("reps", "0", "interleaved repetitions per metric (0 = suite default)")
      .define("json", "BENCH_overlay.json", "result file; with --compare, the new side")
      .define("sha", "", "git sha to record (default: git describe --always --dirty)")
      .define("compare", "",
              "baseline JSON: compare --json against it instead of running")
      .define("threshold", "0.15",
              "--compare fails on a best rate below (1 - threshold) x baseline; "
              "in (0, 1)")
      .define("force", "false", "--compare across differing machine fingerprints");
  // Exit 2, not 0: a mistyped gate invocation must not read as a pass.
  if (!flags.parse(argc, argv)) return 2;

  if (!flags.get("compare").empty()) {
    const double threshold = flags.get_double("threshold");
    if (!(threshold > 0.0 && threshold < 1.0)) {
      return usage_error("threshold", flags.get("threshold"), "in (0, 1)");
    }
    return compare_main(flags.get("compare"), flags.get("json"), threshold,
                        flags.get_bool("force"));
  }

  const std::string suite = flags.get("suite");
  if (suite != "full" && suite != "smoke") {
    return usage_error("suite", suite, "full or smoke");
  }
  const Suite& sizes = suite == "smoke" ? kSmokeSuite : kFullSuite;
  const std::int64_t reps_flag = flags.get_int("reps");
  if (reps_flag < 0) return usage_error("reps", flags.get("reps"), "0 or more");
  const int reps = reps_flag > 0 ? static_cast<int>(reps_flag) : sizes.reps;

  std::vector<SuiteItem> items;
  items.push_back({"BM_EngineEventThroughput", "events/s",
                   [&] { return engine_event_rate(sizes.engine_events); }});
  items.push_back({"mailbox_throughput", "msgs/s",
                   [&] { return mailbox_rate(sizes.mailbox_msgs); }});

  const std::string sha = flags.get("sha").empty() ? git_sha() : flags.get("sha");
  print_preamble("perf_lab: engine and mailbox micros (interleaved best-of-N)",
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
  std::printf("\n");
  table.print(std::cout);

  const std::string json_path = flags.get("json");
  if (!json_path.empty()) {
    write_json(json_path, suite, reps, sha, results);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}
