// olb_top: live per-peer load monitor, `top` for an in-flight run.
//
// Tails the NDJSON snapshot stream a bench writes under --metrics=<path>
// (see metrics/export.hpp for the line format), keeps the latest value of
// every (instrument, peer) pair, and redraws a per-peer table — queue depth,
// in-flight requests, units done, request/serve/decline counts, idle-episode
// sojourn percentiles — every --interval-ms. Run it in a second terminal:
//
//   ./bench/fig5_scalability --backend=threads --metrics=/tmp/m.ndjson &
//   ./tools/olb_top --file=/tmp/m.ndjson
//
// Parsing is a hand-rolled scan for the flat one-line objects the exporter
// emits — no JSON library, matching the repo's no-new-deps rule. Unknown
// names/keys are ignored, so the tool keeps working as instruments grow.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "support/flags.hpp"
#include "support/table.hpp"

using namespace olb;

namespace {

/// Scans `line` for `"key":<number>` and parses the number (integers only —
/// every value the exporter emits is integral). Returns false if absent.
bool scan_int(const std::string& line, const std::string& key, std::int64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

/// Scans for `"key":"value"`.
bool scan_str(const std::string& line, const std::string& key, std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

/// Latest observed value of one (name, peer) instrument.
struct Latest {
  std::int64_t v = 0;    // counter/gauge value
  std::int64_t p50 = 0;  // histogram percentiles (ns)
  std::int64_t p99 = 0;
  std::int64_t count = 0;
};

struct Model {
  std::map<std::pair<std::string, int>, Latest> latest;
  std::int64_t t_ns = 0;  ///< timestamp of the newest snapshot seen

  void ingest(const std::string& line) {
    std::string name;
    std::int64_t peer = -1;
    if (!scan_str(line, "name", &name)) return;
    scan_int(line, "peer", &peer);
    Latest& slot = latest[{name, static_cast<int>(peer)}];
    std::int64_t v = 0;
    if (scan_int(line, "v", &v)) slot.v = v;
    scan_int(line, "p50", &slot.p50);
    scan_int(line, "p99", &slot.p99);
    scan_int(line, "count", &slot.count);
    if (scan_int(line, "t", &v) && v > t_ns) t_ns = v;
  }

  std::int64_t value(const char* name, int peer) const {
    const auto it = latest.find({name, peer});
    return it == latest.end() ? 0 : it->second.v;
  }
  const Latest* find(const char* name, int peer) const {
    const auto it = latest.find({name, peer});
    return it == latest.end() ? nullptr : &it->second;
  }

  /// Every peer id that has reported any instrument, ascending.
  std::vector<int> peers() const {
    std::vector<int> out;
    for (const auto& [key, unused] : latest) {
      (void)unused;
      if (key.second >= 0) out.push_back(key.second);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void render(const Model& model, int top_n, bool clear) {
  if (clear) std::printf("\x1b[H\x1b[2J");  // home + clear screen

  std::vector<int> peers = model.peers();
  const std::size_t total_peers = peers.size();
  // Busiest first when the cluster is larger than the screen.
  std::stable_sort(peers.begin(), peers.end(), [&](int a, int b) {
    return model.value("olb_peer_queue_depth", a) >
           model.value("olb_peer_queue_depth", b);
  });
  if (top_n > 0 && peers.size() > static_cast<std::size_t>(top_n)) {
    peers.resize(static_cast<std::size_t>(top_n));
  }

  std::int64_t queue_sum = 0, units_sum = 0;
  Table table({"peer", "queue", "inflight", "units", "req", "serve", "decl",
               "idle", "sojourn_p50_ms", "sojourn_p99_ms"});
  for (int p : peers) {
    const std::int64_t queue = model.value("olb_peer_queue_depth", p);
    const std::int64_t units = model.value("olb_peer_units_total", p);
    queue_sum += queue;
    units_sum += units;
    const Latest* sojourn = model.find("olb_peer_sojourn_ns", p);
    table.add_row({Table::cell(static_cast<std::int64_t>(p)), Table::cell(queue),
                   Table::cell(model.value("olb_peer_inflight_requests", p)),
                   Table::cell(units),
                   Table::cell(model.value("olb_peer_requests_total", p)),
                   Table::cell(model.value("olb_peer_serves_total", p)),
                   Table::cell(model.value("olb_peer_declines_total", p)),
                   Table::cell(model.value("olb_peer_idle_episodes_total", p)),
                   Table::cell(sojourn ? to_ms(sojourn->p50) : 0.0, 3),
                   Table::cell(sojourn ? to_ms(sojourn->p99) : 0.0, 3)});
  }

  std::printf("olb_top — t=%.1f ms  peers=%zu  queue_sum=%lld  units_sum=%lld\n",
              to_ms(model.t_ns), total_peers,
              static_cast<long long>(queue_sum),
              static_cast<long long>(units_sum));
  // Backend-global lines, whichever backend wrote the stream.
  const std::int64_t sim_events = model.value("olb_sim_events_total", -1);
  if (sim_events > 0) {
    std::printf("sim: events=%lld queue_len=%lld\n",
                static_cast<long long>(sim_events),
                static_cast<long long>(model.value("olb_sim_queue_len", -1)));
  }
  const std::int64_t net_sends = model.value("olb_net_sends_total", -1);
  if (net_sends > 0) {
    std::printf("net: sends=%lld wakes=%lld wakes_skipped=%lld\n",
                static_cast<long long>(net_sends),
                static_cast<long long>(model.value("olb_net_wakes_total", -1)),
                static_cast<long long>(
                    model.value("olb_net_wakes_skipped_total", -1)));
  }
  if (total_peers > peers.size()) {
    std::printf("(showing busiest %zu of %zu peers; --top to change)\n",
                peers.size(), total_peers);
  }
  std::printf("\n");
  table.print(std::cout);
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("file", "", "NDJSON metrics stream to tail (required)")
      .define("interval-ms", "500", "redraw interval")
      .define("top", "40", "max peer rows shown (busiest first; 0 = all)")
      .define("once", "false", "read what is there, render once, exit")
      .define("no-clear", "false", "do not clear the screen between redraws");
  if (!flags.parse(argc, argv)) return 0;
  const std::string path = flags.get("file");
  if (path.empty()) {
    std::fprintf(stderr, "usage: olb_top --file=<metrics.ndjson> "
                         "[--interval-ms=500] [--top=40] [--once]\n");
    return 2;
  }
  const bool once = flags.get_bool("once");
  const bool clear = !flags.get_bool("no-clear") && !once;
  const int top_n = static_cast<int>(flags.get_int("top"));
  const auto interval =
      std::chrono::milliseconds(std::max<std::int64_t>(50, flags.get_int("interval-ms")));

  Model model;
  std::ifstream in;
  std::string line;
  // Tail loop: keep the stream open, read whatever new complete lines have
  // appeared, re-render, sleep. The file may not exist yet (bench still
  // starting) — keep retrying until it does.
  for (;;) {
    if (!in.is_open()) {
      in.open(path);
      if (!in.is_open()) {
        if (once) {
          std::fprintf(stderr, "olb_top: cannot open '%s'\n", path.c_str());
          return 1;
        }
        std::this_thread::sleep_for(interval);
        continue;
      }
    }
    bool saw = false;
    while (std::getline(in, line)) {
      model.ingest(line);
      saw = true;
    }
    in.clear();  // EOF is transient while the producer is alive
    (void)saw;
    render(model, top_n, clear);
    if (once) return 0;
    std::this_thread::sleep_for(interval);
  }
}
