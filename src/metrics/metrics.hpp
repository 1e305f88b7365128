// Live metrics: named counters, gauges and log-linear histograms that are
// cheap enough to leave on during a measured run.
//
// Traces (src/trace) answer "what happened, in order" after the fact; this
// layer answers "what is the cluster doing right now" while a run is in
// flight — queue depths, in-flight requests, serve rates and sojourn-time
// percentiles, snapshotted on a time window and exported as Prometheus text
// or an NDJSON time series (src/metrics/export.hpp, hub.hpp).
//
// Design constraints, in order:
//
//  * Zero cost when off. Every instrumentation site goes through the inline
//    helpers at the bottom (inc/record), which test a pointer that is null
//    unless a MetricsHub was attached — one predicted branch, the same
//    discipline as trace::emit.
//  * One write path for both backends. A Registry is built with a shard
//    count: 1 on the simulator (writes compile to plain load/store on an
//    uncontended atomic — field cost), >1 on the thread backend (writers are
//    spread over cache-line-padded shards and use relaxed fetch_add; the
//    merge happens at snapshot time, never on the write path). Per-peer
//    instruments are single-cell and rely on the actor contract — every
//    hook runs on the owning thread — so they take the plain-store path on
//    both backends.
//  * Reads never stop writers. snapshot() sums the shards with relaxed
//    loads; a snapshot is consistent per-cell, not across cells, which is
//    what monitoring needs (and all a lock-free design can promise).
//
// Histograms use HdrHistogram-style log-linear bucketing: values below 32
// are exact, above that each power-of-two range is cut into 16 linear
// sub-buckets, giving a worst-case relative error of 1/16 (~6%) over the
// full range [0, 2^48) with 720 fixed buckets — no configuration, no
// allocation on record().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace olb::metrics {

class Registry;

/// Returns this thread's shard slot in [0, shards): threads are assigned
/// round-robin on first use and keep their slot for life. shards == 1 short
/// circuits before the thread-local is touched.
int current_shard(int shards);

namespace detail {
/// One padded counter cell; the padding keeps two shards from false-sharing
/// a cache line when different threads hammer adjacent cells.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic event count. Sharded writers, merged reads.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (single_writer_) {
      // Owner-thread (or simulator) path: a relaxed load+store pair compiles
      // to the same code as a plain field increment.
      auto& c = cells_[0].v;
      c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
      return;
    }
    cells_[static_cast<std::size_t>(current_shard(shards_))].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class Registry;
  Counter(int shards, bool single_writer)
      : cells_(static_cast<std::size_t>(single_writer ? 1 : shards)),
        shards_(single_writer ? 1 : shards),
        single_writer_(single_writer) {}

  std::vector<detail::Cell> cells_;
  int shards_;
  bool single_writer_;
};

/// Point-in-time signed value. Gauges have a single writer by contract (the
/// owning actor or the engine), so set() is a plain relaxed store;
/// concurrent readers see the latest published value.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) {
    v_.store(v_.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear histogram of non-negative 64-bit values (typically ns).
class Histogram {
 public:
  /// Exact buckets below kSubBuckets; 1/16 relative resolution above.
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBits;  // 32
  static constexpr int kMaxExponent = 48;
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << kMaxExponent) - 1;
  /// 32 exact + 16 per power-of-two range [2^5, 2^48).
  static constexpr std::size_t kNumBuckets =
      kSubBuckets + (kMaxExponent - kSubBits) * (kSubBuckets / 2);

  static std::size_t bucket_of(std::uint64_t v);
  /// Inclusive upper bound of bucket `idx` (lower bound is the previous
  /// bucket's upper bound + 1, or 0 for bucket 0).
  static std::uint64_t bucket_upper(std::size_t idx);

  void record(std::uint64_t v);

  /// Merged read-side view; percentile() interpolates inside a bucket, so
  /// results agree with an exact sample within the bucket resolution.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /// (bucket index, count) for every non-empty bucket, ascending.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    /// p in [0,1]; 0 for an empty histogram.
    double percentile(double p) const;
  };
  Snapshot snapshot() const;

  std::uint64_t count() const;

 private:
  friend class Registry;
  Histogram(int shards, bool single_writer);

  struct Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    Shard() : counts(kNumBuckets) {}
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  bool single_writer_;
};

enum class Kind { kCounter, kGauge, kHistogram };

/// One instrument's merged state at snapshot time.
struct SnapshotEntry {
  std::string name;
  int peer = -1;  ///< per-peer label; -1 = cluster/engine-global
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  Histogram::Snapshot hist;
};

/// All instruments at one point in time; `t_ns` is simulated ns (simulator
/// backend) or wall ns since run start (thread backend).
struct MetricsSnapshot {
  std::uint64_t t_ns = 0;
  std::vector<SnapshotEntry> entries;
};

/// Get-or-create registry of named instruments. Creation takes a mutex (it
/// happens at run setup, never on the hot path); the returned pointers are
/// stable for the registry's lifetime and are what instrumented code holds.
///
/// `peer` labels an instrument with a peer id; per-peer instruments
/// (peer >= 0) are single-cell and MUST only be written from the actor hooks
/// of that peer (the backends guarantee those run on one thread). Global
/// instruments (peer == -1) are sharded and safe from any thread.
class Registry {
 public:
  explicit Registry(int shards = 1);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name, int peer = -1);
  Gauge* gauge(std::string_view name, int peer = -1);
  Histogram* histogram(std::string_view name, int peer = -1);

  /// Looks an instrument up without creating it (tests, exporters).
  Counter* find_counter(std::string_view name, int peer = -1) const;
  Gauge* find_gauge(std::string_view name, int peer = -1) const;
  Histogram* find_histogram(std::string_view name, int peer = -1) const;

  MetricsSnapshot snapshot(std::uint64_t t_ns) const;

  int shards() const { return shards_; }
  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    int peer;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  Entry* get_or_create(std::string_view name, int peer, Kind kind);
  const Entry* find(std::string_view name, int peer, Kind kind) const;

  mutable std::mutex mu_;
  int shards_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Per-actor protocol-event counters, armed by Actor::on_metrics and bumped
/// at the emit_trace funnel — every protocol already marks requests, serves,
/// declines, retries and idle episodes there, so deriving the counters at
/// the funnel instruments all four strategies without touching their code.
/// Heap-allocated per actor only when a hub attaches; actor classes with
/// more instruments derive from it, so one pointer owns them all.
struct ActorEventCounters {
  ActorEventCounters() = default;
  virtual ~ActorEventCounters() = default;
  ActorEventCounters(const ActorEventCounters&) = delete;
  ActorEventCounters& operator=(const ActorEventCounters&) = delete;

  Counter* requests = nullptr;  ///< kRequest (RWS steals, overlay req*, MW asks)
  Counter* serves = nullptr;    ///< kServe
  Counter* declines = nullptr;  ///< kNoServe
  Counter* retries = nullptr;   ///< kRetry
  Counter* idle = nullptr;      ///< kIdleBegin (idle episodes entered)
};

// --- the instrumentation-site helpers -------------------------------------
// All hot-path call sites go through these: a null instrument (metrics off)
// costs one predicted-not-taken branch.

inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) [[unlikely]] c->inc(n);
}

inline void record(Histogram* h, std::uint64_t v) {
  if (h != nullptr) [[unlikely]] h->record(v);
}

}  // namespace olb::metrics
