// Tests for the live metrics layer (src/metrics): log-linear histogram
// bucket math and percentile accuracy against the exact order statistics in
// support/stats, lossless sharded merges under real thread contention, the
// two exporter formats, and end-to-end instrumentation through both
// backends — including the guarantee the whole layer is built on: attaching
// a metrics hub must not change a run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lb/driver.hpp"
#include "metrics/export.hpp"
#include "metrics/hub.hpp"
#include "metrics/metrics.hpp"
#include "runtime/runtime.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

using metrics::Histogram;

// ------------------------------------------------------------ bucket math ---

TEST(MetricsHistogram, ValuesBelowSubBucketsAreExact) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), v);
    EXPECT_EQ(Histogram::bucket_upper(v), v);
  }
}

TEST(MetricsHistogram, BucketUppersAreStrictlyMonotonic) {
  for (std::size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::bucket_upper(i - 1), Histogram::bucket_upper(i)) << i;
  }
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kNumBuckets - 1),
            Histogram::kMaxValue);
}

TEST(MetricsHistogram, BucketOfItsOwnUpperIsIdentity) {
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i)), i) << i;
    // The next value up must land in the next bucket.
    if (i + 1 < Histogram::kNumBuckets) {
      EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i) + 1), i + 1) << i;
    }
  }
}

TEST(MetricsHistogram, RelativeErrorIsBoundedBySubBucketWidth) {
  // The documented contract: any recorded value is reported (by its bucket
  // upper bound) within 1/16 of its true magnitude.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t v = rng() & Histogram::kMaxValue;
    const std::uint64_t upper = Histogram::bucket_upper(Histogram::bucket_of(v));
    ASSERT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / 16.0 + 1.0)
        << v;
  }
}

// ------------------------------------------------- percentile vs. exact ---

/// Records `xs` into a fresh single-shard histogram and checks p50/p90/p99
/// against the exact order statistics of the same sample.
void check_percentiles(const std::vector<std::uint64_t>& xs) {
  metrics::Registry registry(1);
  Histogram* h = registry.histogram("h");
  std::vector<double> exact;
  exact.reserve(xs.size());
  for (std::uint64_t v : xs) {
    h->record(v);
    exact.push_back(static_cast<double>(v));
  }
  const SortedSample sample(std::move(exact));
  const Histogram::Snapshot snap = h->snapshot();
  ASSERT_EQ(snap.count, xs.size());
  for (double p : {0.50, 0.90, 0.99}) {
    const double want = sample.percentile(p);
    const double got = snap.percentile(p);
    // Bucket resolution is 1/16 (~6.25%); allow a little interpolation slack
    // on top plus an absolute epsilon for the exact small-value buckets.
    EXPECT_NEAR(got, want, want * 0.08 + 2.0) << "p=" << p;
  }
  EXPECT_EQ(snap.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(snap.max, *std::max_element(xs.begin(), xs.end()));
}

TEST(MetricsHistogram, PercentilesMatchExactSampleBimodal) {
  // Two well-separated modes — the shape where a mean hides everything and
  // percentile estimation must not smear across the gap. 30% slow puts the
  // mode boundary at rank 0.70, safely away from the queried percentiles:
  // exactly *at* a boundary the exact order statistics interpolate across
  // the gap while the bucket walk stays on one side, and both answers are
  // defensible.
  std::mt19937_64 rng(42);
  std::normal_distribution<double> fast(2'000.0, 150.0);
  std::normal_distribution<double> slow(900'000.0, 40'000.0);
  std::vector<std::uint64_t> xs;
  for (int i = 0; i < 20000; ++i) {
    const double v = (i % 10 < 7) ? fast(rng) : slow(rng);
    xs.push_back(static_cast<std::uint64_t>(std::max(0.0, v)));
  }
  check_percentiles(xs);
}

TEST(MetricsHistogram, PercentilesMatchExactSampleHeavyTail) {
  // Pareto-ish tail spanning five orders of magnitude, the sojourn-time
  // shape under a starving cluster.
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::uint64_t> xs;
  for (int i = 0; i < 20000; ++i) {
    const double x = 1.0 - u(rng);
    xs.push_back(static_cast<std::uint64_t>(100.0 / std::pow(x, 1.3)));
  }
  check_percentiles(xs);
}

TEST(MetricsHistogram, SumAndClampAtMaxValue) {
  metrics::Registry registry(1);
  Histogram* h = registry.histogram("h");
  h->record(5);
  h->record(10);
  h->record(~std::uint64_t{0});  // clamps to kMaxValue, must not crash
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 15u + Histogram::kMaxValue);
  EXPECT_EQ(snap.max, Histogram::kMaxValue);
  EXPECT_EQ(snap.min, 5u);
}

TEST(MetricsHistogram, EmptyPercentileIsZero) {
  metrics::Registry registry(1);
  const auto snap = registry.histogram("h")->snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.percentile(0.99), 0.0);
}

// ------------------------------------------------------- sharded writes ---

TEST(MetricsConcurrency, ShardedCounterLosesNoIncrements) {
  // Global (peer == -1) instruments in a multi-shard registry must take the
  // fetch_add path; hammer one from many threads and count.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200'000;
  metrics::Registry registry(kThreads);
  metrics::Counter* c = registry.counter("olb_test_total");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c->inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(MetricsConcurrency, ShardedHistogramLosesNoRecords) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  metrics::Registry registry(kThreads);
  Histogram* h = registry.histogram("olb_test_ns");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([h, t] {
      // Distinct per-thread values so a lost write shows in sum, not just
      // count.
      const auto v = static_cast<std::uint64_t>(t + 1);
      for (std::uint64_t i = 0; i < kPerThread; ++i) h->record(v);
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum += static_cast<std::uint64_t>(t + 1) * kPerThread;
  }
  EXPECT_EQ(snap.sum, want_sum);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, static_cast<std::uint64_t>(kThreads));
}

TEST(MetricsConcurrency, SnapshotDuringWritesIsSane) {
  // Reads must never block or corrupt writers: snapshot while 4 threads
  // write, then check the final merged totals are exact.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100'000;
  metrics::Registry registry(kThreads);
  metrics::Counter* c = registry.counter("olb_test_total");
  Histogram* h = registry.histogram("olb_test_ns");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c, h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c->inc();
        h->record(i & 1023);
      }
    });
  }
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const auto snap = registry.snapshot(static_cast<std::uint64_t>(probe));
    for (const auto& e : snap.entries) {
      if (e.kind == metrics::Kind::kCounter) {
        EXPECT_GE(e.counter, last);  // monotonic across snapshots
        last = e.counter;
      }
    }
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
  EXPECT_EQ(h->count(), kThreads * kPerThread);
}

// ------------------------------------------------------------- registry ---

TEST(MetricsRegistry, GetOrCreateIsIdempotentAndPeerScoped) {
  metrics::Registry registry(1);
  metrics::Counter* a = registry.counter("olb_x_total", 3);
  EXPECT_EQ(registry.counter("olb_x_total", 3), a);
  EXPECT_NE(registry.counter("olb_x_total", 4), a);
  EXPECT_NE(registry.counter("olb_y_total", 3), a);
  EXPECT_EQ(registry.find_counter("olb_x_total", 3), a);
  EXPECT_EQ(registry.find_counter("olb_x_total", 5), nullptr);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, PerClassServiceHistogramsAreDisjoint) {
  // The service gate keys its per-class latency histograms by class id in
  // the peer slot ("olb_svc_sojourn_ns", class). Recordings must never
  // bleed across classes, and the exporter must label the classes apart.
  metrics::Registry registry(1);
  Histogram* high = registry.histogram("olb_svc_sojourn_ns", 0);
  Histogram* low = registry.histogram("olb_svc_sojourn_ns", 1);
  ASSERT_NE(high, low);
  EXPECT_EQ(registry.histogram("olb_svc_sojourn_ns", 0), high);
  high->record(10);
  high->record(20);
  low->record(1000);
  const auto hs = high->snapshot();
  const auto ls = low->snapshot();
  EXPECT_EQ(hs.count, 2u);
  EXPECT_EQ(hs.sum, 30u);
  EXPECT_EQ(ls.count, 1u);
  EXPECT_EQ(ls.sum, 1000u);
  std::ostringstream out;
  metrics::write_prometheus(out, registry.snapshot(1));
  const std::string text = out.str();
  EXPECT_NE(text.find("olb_svc_sojourn_ns_count{peer=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("olb_svc_sojourn_ns_count{peer=\"1\"} 1"),
            std::string::npos);
}

// ------------------------------------------------------------- exporters ---

TEST(MetricsExport, PrometheusTextExposition) {
  metrics::Registry registry(1);
  registry.counter("olb_requests_total", 2)->inc(7);
  registry.gauge("olb_queue_depth", 2)->set(-3);
  Histogram* h = registry.histogram("olb_sojourn_ns", 2);
  h->record(10);
  h->record(100);
  std::ostringstream out;
  metrics::write_prometheus(out, registry.snapshot(123));
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE olb_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("olb_requests_total{peer=\"2\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE olb_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("olb_queue_depth{peer=\"2\"} -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE olb_sojourn_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("olb_sojourn_ns_bucket{peer=\"2\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("olb_sojourn_ns_sum{peer=\"2\"} 110"), std::string::npos);
  EXPECT_NE(text.find("olb_sojourn_ns_count{peer=\"2\"} 2"), std::string::npos);
}

TEST(MetricsExport, NdjsonTimeSeries) {
  metrics::Registry registry(1);
  registry.counter("olb_serves_total", 0)->inc(4);
  registry.gauge("olb_inflight", 0)->set(1);
  Histogram* h = registry.histogram("olb_wait_ns", 0);
  for (int i = 1; i <= 100; ++i) h->record(static_cast<std::uint64_t>(i));
  std::ostringstream out;
  metrics::write_ndjson(out, registry.snapshot(42));
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"t\":42,\"name\":\"olb_serves_total\",\"peer\":0,"
                      "\"kind\":\"counter\",\"v\":4}"),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gauge\",\"v\":1}"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"olb_wait_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":100"), std::string::npos);
  EXPECT_NE(text.find("\"p50\":"), std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
  // One JSON object per line, every line closed.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(MetricsExport, SkipsZeroCountersAndEmptyHistogramsKeepsGauges) {
  metrics::Registry registry(1);
  registry.counter("olb_never_total");
  registry.histogram("olb_never_ns");
  registry.gauge("olb_zero_gauge");  // 0 is a real reading — must appear
  std::ostringstream prom, nd;
  metrics::write_prometheus(prom, registry.snapshot(1));
  metrics::write_ndjson(nd, registry.snapshot(1));
  EXPECT_EQ(prom.str().find("olb_never"), std::string::npos);
  EXPECT_EQ(nd.str().find("olb_never"), std::string::npos);
  EXPECT_NE(prom.str().find("olb_zero_gauge 0"), std::string::npos);
  EXPECT_NE(nd.str().find("\"name\":\"olb_zero_gauge\""), std::string::npos);
}

// ------------------------------------------------------------ end-to-end ---

uts::Params small_uts() {
  uts::Params p;
  p.hash = uts::HashMode::kFast;
  p.b0 = 200;
  p.q = 0.47;
  p.m = 2;
  p.root_seed = 77;
  return p;
}

lb::RunConfig small_config(int peers) {
  lb::RunConfig config;
  config.strategy = lb::Strategy::kOverlayTD;
  config.num_peers = peers;
  config.net = lb::paper_network(peers);
  config.chunk_units = 64;
  return config;
}

TEST(MetricsEndToEnd, SimRunPopulatesInstrumentsAndStreamsSnapshots) {
  const std::string path = "test_metrics_sim.ndjson";
  metrics::MetricsHub::Options o;
  o.path = path;
  o.interval_ns = 1'000'000;  // 1 simulated ms
  metrics::MetricsHub hub(std::move(o));

  uts::UtsWorkload workload(small_uts(), uts::CostModel{});
  lb::RunConfig config = small_config(8);
  // BTD so the root actually runs counter probe waves — pure tree mode (TD)
  // declares termination from pending flags alone and never launches one.
  config.strategy = lb::Strategy::kOverlayBTD;
  config.metrics = &hub;
  const auto run = lb::run_distributed(workload, config);
  ASSERT_TRUE(run.ok);

  const metrics::Registry& reg = hub.registry();
  // Engine instruments.
  metrics::Counter* events = reg.find_counter("olb_sim_events_total");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->value(), 0u);
  // Per-peer funnel counters and sampled gauges exist for every peer.
  std::uint64_t serves = 0;
  for (int p = 0; p < 8; ++p) {
    metrics::Counter* s = reg.find_counter("olb_peer_serves_total", p);
    ASSERT_NE(s, nullptr) << p;
    serves += s->value();
    EXPECT_NE(reg.find_gauge("olb_peer_queue_depth", p), nullptr) << p;
    EXPECT_NE(reg.find_histogram("olb_peer_sojourn_ns", p), nullptr) << p;
    metrics::Counter* units = reg.find_counter("olb_peer_units_total", p);
    ASSERT_NE(units, nullptr) << p;
  }
  EXPECT_GT(serves, 0u) << "nobody served work in a 8-peer run?";
  // Units counters must add up to the workload's node count exactly.
  std::uint64_t units_total = 0;
  for (int p = 0; p < 8; ++p) {
    units_total += reg.find_counter("olb_peer_units_total", p)->value();
  }
  EXPECT_EQ(units_total, run.total_units);
  // The root's termination-wave histogram saw at least one wave.
  metrics::Histogram* wave = reg.find_histogram("olb_term_wave_ns", 0);
  ASSERT_NE(wave, nullptr);
  EXPECT_GT(wave->count(), 0u);
  // Snapshots actually streamed to the file on the simulated-ms interval.
  EXPECT_GT(hub.flushes(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  ASSERT_TRUE(std::getline(in, first_line));
  EXPECT_NE(first_line.find("\"name\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsEndToEnd, AttachingMetricsDoesNotPerturbTheRun) {
  // The load-bearing guarantee: metrics only read protocol state, so a sim
  // run with a hub attached must produce the exact same event timeline —
  // fault-free, and with link drops plus a crash feeding the engine's fault
  // counters.
  sim::FaultPlan faulty;
  faulty.link.drop_prob = 0.05;
  faulty.add_crash(3, sim::microseconds(400));
  for (const sim::FaultPlan& faults : {sim::FaultPlan{}, faulty}) {
    SCOPED_TRACE(faults.enabled() ? "faulty" : "fault-free");
    uts::UtsWorkload w1(small_uts(), uts::CostModel{});
    trace::VectorTracer t1;
    lb::RunConfig c1 = small_config(6);
    c1.faults = faults;
    c1.tracer = &t1;
    const auto r1 = lb::run_distributed(w1, c1);
    ASSERT_TRUE(r1.ok);

    const std::string path = "test_metrics_identity.ndjson";
    metrics::MetricsHub::Options o;
    o.path = path;
    o.interval_ns = 500'000;  // aggressively frequent: 0.5 simulated ms
    metrics::MetricsHub hub(std::move(o));
    uts::UtsWorkload w2(small_uts(), uts::CostModel{});
    trace::VectorTracer t2;
    lb::RunConfig c2 = small_config(6);
    c2.faults = faults;
    c2.tracer = &t2;
    c2.metrics = &hub;
    const auto r2 = lb::run_distributed(w2, c2);
    ASSERT_TRUE(r2.ok);

    EXPECT_EQ(r1.total_units, r2.total_units);
    EXPECT_EQ(r1.total_messages, r2.total_messages);
    EXPECT_EQ(r1.exec_seconds, r2.exec_seconds);
    const auto& e1 = t1.events();
    const auto& e2 = t2.events();
    ASSERT_EQ(e1.size(), e2.size());
    for (std::size_t i = 0; i < e1.size(); ++i) {
      EXPECT_EQ(e1[i].time, e2[i].time) << i;
      EXPECT_EQ(e1[i].kind, e2[i].kind) << i;
      EXPECT_EQ(e1[i].actor, e2[i].actor) << i;
      EXPECT_EQ(e1[i].peer, e2[i].peer) << i;
      EXPECT_EQ(e1[i].type, e2[i].type) << i;
      EXPECT_EQ(e1[i].a, e2[i].a) << i;
      EXPECT_EQ(e1[i].b, e2[i].b) << i;
    }

    const metrics::Registry& reg = hub.registry();
    metrics::Counter* dropped = reg.find_counter("olb_sim_msgs_dropped_total");
    metrics::Counter* crashes = reg.find_counter("olb_sim_crashes_total");
    ASSERT_NE(dropped, nullptr);
    ASSERT_NE(crashes, nullptr);
    EXPECT_EQ(dropped->value(), r2.msgs_dropped);
    EXPECT_EQ(crashes->value(), r2.peers_crashed);
    if (faults.enabled()) {
      EXPECT_GT(r2.msgs_dropped, 0u);
      EXPECT_EQ(r2.peers_crashed, 1u);
    }
    std::remove(path.c_str());
  }
}

TEST(MetricsEndToEnd, ThreadsRunExportsPerPeerTelemetry) {
  const std::string path = "test_metrics_threads.ndjson";
  metrics::MetricsHub::Options o;
  o.path = path;
  o.interval_ns = 5'000'000;  // 5 wall ms
  o.shards = 8;
  metrics::MetricsHub hub(std::move(o));

  uts::UtsWorkload workload(small_uts(), uts::CostModel{});
  lb::RunConfig config = small_config(4);
  config.backend = lb::Backend::kThreads;
  config.metrics = &hub;
  const auto run = runtime::run_threads(workload, config);
  ASSERT_TRUE(run.ok);

  const metrics::Registry& reg = hub.registry();
  metrics::Counter* sends = reg.find_counter("olb_net_sends_total");
  ASSERT_NE(sends, nullptr);
  EXPECT_GT(sends->value(), 0u);
  ASSERT_NE(reg.find_histogram("olb_net_drain_batch"), nullptr);
  std::uint64_t units_total = 0;
  for (int p = 0; p < 4; ++p) {
    metrics::Counter* units = reg.find_counter("olb_peer_units_total", p);
    ASSERT_NE(units, nullptr) << p;
    units_total += units->value();
    EXPECT_NE(reg.find_gauge("olb_peer_queue_depth", p), nullptr) << p;
  }
  // The final post-join poll must bring the units counters to the exact
  // node count — telemetry that disagrees with the run result is worse
  // than none.
  EXPECT_EQ(units_total, run.total_units);
  // The sampler thread flushed at least once (final flush is guaranteed).
  EXPECT_GE(hub.flushes(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_queue_gauge = false;
  while (std::getline(in, line)) {
    if (line.find("olb_peer_queue_depth") != std::string::npos) {
      saw_queue_gauge = true;
      break;
    }
  }
  EXPECT_TRUE(saw_queue_gauge);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace olb
