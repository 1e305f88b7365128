// MetricsHub: owns the Registry, the flush schedule, and the output sink.
//
// A hub is created once (by bench_common from --metrics, or directly in
// tests) and handed to a backend:
//
//  * sim::Engine::set_metrics(hub)       — the engine calls hub->flush() from
//    its hot loop whenever simulated time crosses the next interval, so the
//    cadence is in *simulated* milliseconds and runs are deterministic.
//  * runtime::ThreadNet::set_metrics(hub) — the net calls start_sampler(),
//    which spawns one wall-clock thread that flushes every interval of
//    *wall* milliseconds.
//
// flush() is serialized by a mutex: the write path never blocks, but two
// snapshots never interleave in the output file. Format is picked from the
// path extension: ".prom" truncates and rewrites a Prometheus text
// exposition each flush (scrape semantics); anything else appends NDJSON
// lines (tail semantics, what olb_top consumes).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "metrics/metrics.hpp"

namespace olb::metrics {

class MetricsHub {
 public:
  enum class Format { kNdjson, kPrometheus };

  struct Options {
    std::string path;  ///< ".prom" = Prometheus rewrite, else NDJSON append
    std::int64_t interval_ns = 100'000'000;  ///< flush cadence (100 ms)
    int shards = 1;  ///< 1 on the simulator, #threads-ish on ThreadNet
  };

  explicit MetricsHub(Options opts);
  ~MetricsHub();

  MetricsHub(const MetricsHub&) = delete;
  MetricsHub& operator=(const MetricsHub&) = delete;

  Registry& registry() { return registry_; }
  std::int64_t interval_ns() const { return opts_.interval_ns; }
  const std::string& path() const { return opts_.path; }
  Format format() const { return format_; }

  /// Snapshots the registry at `t_ns` and writes it to the sink. Safe from
  /// any thread; serialized internally.
  void flush(std::uint64_t t_ns);

  /// Spawns the wall-clock sampler thread: every interval it runs
  /// flush(now_ns()). Used by the thread backend, where no hot loop can
  /// own the cadence. stop_sampler() performs one final flush and joins.
  void start_sampler(std::function<std::uint64_t()> now_ns);
  void stop_sampler();

  std::uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }

  static Format format_for_path(std::string_view path);

 private:
  Options opts_;
  Format format_;
  Registry registry_;

  std::mutex flush_mu_;
  std::ofstream out_;  // NDJSON mode: held open across flushes
  std::atomic<std::uint64_t> flushes_{0};

  std::thread sampler_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
};

}  // namespace olb::metrics
