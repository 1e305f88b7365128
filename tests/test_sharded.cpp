// Tests for the sharded simulator (src/simnet/sharded_engine):
//
//  * shard layout — cluster alignment, even split, lookahead selection;
//  * the identity invariant — one shard is the SAME timeline as the plain
//    engine (CI additionally diffs NDJSON traces byte-for-byte);
//  * multi-shard correctness — exact UTS unit counts (the schedule-
//    independent invariant), run-to-run determinism of the threaded
//    coordinator, a pinned four-shard trajectory, threaded == serial,
//    cross-shard FIFO under conservative windows;
//  * the memory canaries behind the docs/SCALING.md bytes-per-peer budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "lb/overlay_lb.hpp"
#include "metrics/hub.hpp"
#include "simnet/engine.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/sharded_engine.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace olb {
namespace {

using test_util::base_config;
using test_util::uts_params;

// ------------------------------------------------------------ shard layout ---

TEST(ShardLayout, EvenSplitUsesIntraLookahead) {
  sim::NetworkConfig net;  // single cluster
  sim::ShardedEngine eng(net, 1, 10, 4);
  EXPECT_EQ(eng.num_shards(), 4);
  EXPECT_EQ(eng.lookahead(), net.intra_latency);
  // Even split: 10 peers over 4 shards = 2,3,2,3 (bases 0,2,5,7,10).
  EXPECT_EQ(eng.shard_base(0), 0);
  EXPECT_EQ(eng.shard_base(4), 10);
  for (int s = 0; s < 4; ++s) {
    const int width = eng.shard_base(s + 1) - eng.shard_base(s);
    EXPECT_GE(width, 2);
    EXPECT_LE(width, 3);
  }
  EXPECT_EQ(eng.shard_of(0), 0);
  EXPECT_EQ(eng.shard_of(9), 3);
}

TEST(ShardLayout, ClusterAlignedUsesInterLookahead) {
  // paper_network(1000): two clusters (capacity 736). Shards must sit on
  // cluster boundaries so every cross-shard link is a cross-cluster link,
  // which is what buys the 10x larger lookahead window.
  const auto net = lb::paper_network(1000);
  ASSERT_EQ(net.cluster_capacity, 736);
  sim::ShardedEngine eng(net, 1, 1000, 8);
  EXPECT_EQ(eng.num_shards(), 2);  // clamped to the cluster count
  EXPECT_EQ(eng.lookahead(), net.inter_latency);
  EXPECT_EQ(eng.shard_base(1), 736);  // the cluster boundary
  EXPECT_EQ(eng.shard_of(735), 0);
  EXPECT_EQ(eng.shard_of(736), 1);
}

TEST(ShardLayout, SingleShardHasNoAlignmentConstraint) {
  const auto net = lb::paper_network(1000);
  sim::ShardedEngine eng(net, 1, 1000, 1);
  EXPECT_EQ(eng.num_shards(), 1);
  EXPECT_EQ(eng.shard_base(1), 1000);
}

// -------------------------------------------------- identity & determinism ---

// Field-by-field equality of everything a timeline determines. Byte-level
// trace identity is CI's job (scripts diff NDJSON dumps); metrics equality
// over these many observables is the in-process proxy.
void expect_identical_metrics(const lb::RunMetrics& a, const lb::RunMetrics& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_units, b.total_units);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.work_requests, b.work_requests);
  EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
  EXPECT_DOUBLE_EQ(a.last_compute_seconds, b.last_compute_seconds);
  ASSERT_EQ(a.final_state.size(), b.final_state.size());
  for (std::size_t i = 0; i < a.final_state.size(); ++i) {
    EXPECT_EQ(a.final_state[i].units_done, b.final_state[i].units_done);
    EXPECT_EQ(a.final_state[i].holds_work, b.final_state[i].holds_work);
  }
}

TEST(ShardedIdentity, OneShardMatchesPlainEngine) {
  // sim_shards 0 and 1 both run the sharded engine with one shard, so they
  // are the same code path; this pins that 0 stays accepted and means one
  // shard. Same timeline, so every metric is equal.
  const auto params = uts_params(3);
  auto plain = base_config(lb::Strategy::kOverlayBTD, 24, 4, 7);
  plain.sim_shards = 0;
  auto wrapped = plain;
  wrapped.sim_shards = 1;
  uts::UtsWorkload w1(params, uts::CostModel{});
  uts::UtsWorkload w2(params, uts::CostModel{});
  const auto m1 = lb::run_distributed(w1, plain);
  const auto m2 = lb::run_distributed(w2, wrapped);
  EXPECT_EQ(m2.sim_shards, 1);
  expect_identical_metrics(m1, m2);
}

TEST(ShardedRun, ExactUnitsAndDeterminism) {
  // Multi-shard runs follow a different (but valid) timeline — each shard
  // draws from its own jitter stream — so schedule-dependent metrics move.
  // Two invariants survive: UTS unit counts are exact, and the threaded
  // coordinator is deterministic run-to-run.
  const auto params = uts_params(5);
  for (int shards : {2, 3}) {
    auto config = base_config(lb::Strategy::kOverlayBTD, 12, 4, 11);
    config.sim_shards = shards;
    uts::UtsWorkload ref(params, uts::CostModel{});
    const auto seq = lb::run_sequential(ref);
    uts::UtsWorkload w1(params, uts::CostModel{});
    uts::UtsWorkload w2(params, uts::CostModel{});
    const auto m1 = lb::run_distributed(w1, config);
    const auto m2 = lb::run_distributed(w2, config);
    ASSERT_TRUE(m1.ok) << "hang with sim_shards=" << shards;
    EXPECT_EQ(m1.sim_shards, shards);
    EXPECT_GT(m1.sim_windows, 0u);
    EXPECT_EQ(m1.total_units, seq.units) << "lost/duplicated work";
    expect_identical_metrics(m1, m2);
    EXPECT_EQ(m1.sim_windows, m2.sim_windows);
  }
}

TEST(ShardedRun, FourShardTrajectoryIsPinned) {
  // Tracing refuses more than one shard, so the pinned trace set never sees
  // a multi-shard timeline. This pins one: any change to how windows are
  // cut, how cross-shard arrivals are handed over or in which order they
  // are stamped moves at least one of these numbers. 3000 peers on the
  // paper network are five 736-peer clusters, so four cluster-aligned
  // shards and the 200us inter-cluster lookahead; the idle timers are
  // paced x3 (n / 1000, docs/SCALING.md).
  uts::Params params = uts_params(1, 500, 0.499);
  lb::RunConfig config;
  config.strategy = lb::Strategy::kOverlayBTD;
  config.num_peers = 3000;
  config.seed = 1;
  config.net = lb::paper_network(3000);
  config.chunk_units = 64;
  config.sim_shards = 4;
  config.overlay.retry_delay *= 3;
  config.overlay.bridge_patience *= 3;
  uts::UtsWorkload ref(params, uts::CostModel{});
  const auto seq = lb::run_sequential(ref);
  uts::UtsWorkload w(params, uts::CostModel{});
  const auto m = lb::run_distributed(w, config);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.sim_shards, 4);
  EXPECT_EQ(seq.units, 256'973u);
  EXPECT_EQ(m.total_units, seq.units);
  // Keeping the newest of a child's reported aggregates (OverlayPeer::
  // on_req_up) lets the root see the balance 4.25 us sooner than when an
  // overtaken kReqUp overwrote it: 38 events and 2 messages fewer.
  EXPECT_EQ(m.events, 1'066'079u);
  EXPECT_EQ(m.sim_windows, 160u);
  EXPECT_EQ(m.total_messages, 215'882u);
  EXPECT_NEAR(m.exec_seconds, 0.031349308, 1e-9);
}

/// Forwards a hop-counted token to a peer drawn from its own RNG stream and
/// folds every delivery (time, sender, token, hops left) into a digest.
class TokenForwarder : public sim::Actor {
 public:
  explicit TokenForwarder(int hops) : hops_(hops) {}
  std::uint64_t digest = 0;
  int delivered = 0;

 protected:
  void on_start() override { forward(sim::Message(1, id(), hops_)); }
  void on_message(sim::Message m) override {
    ++delivered;
    digest = mix64(digest ^ static_cast<std::uint64_t>(now()));
    digest = mix64(digest ^ (static_cast<std::uint64_t>(m.src) << 32) ^
                   static_cast<std::uint64_t>(m.a));
    digest = mix64(digest ^ static_cast<std::uint64_t>(m.b));
    if (m.b > 0) forward(sim::Message(1, m.a, m.b - 1));
  }

 private:
  void forward(sim::Message m) {
    send(static_cast<int>(rng().below(static_cast<std::uint64_t>(num_peers()))),
         std::move(m));
  }
  int hops_;
};

TEST(ShardedRun, ThreadedMatchesSerial) {
  // The worker pool must be an execution detail: the threaded window loop
  // produces, actor for actor, the deliveries of running the shards one
  // after another on one thread. Clusters of 8 give one aligned shard per
  // cluster. Four shards fit the cores of most hosts, so their waiters
  // spin first; eight outnumber the cores of small hosts (CI's included),
  // where waiters block at once.
  constexpr int kHops = 400;
  sim::NetworkConfig net;
  net.cluster_capacity = 8;
  for (int shards : {4, 8}) {
    const int peers = 8 * shards;
    std::vector<std::uint64_t> digests[2];
    std::uint64_t windows[2] = {0, 0};
    for (int threaded = 0; threaded < 2; ++threaded) {
      sim::ShardedEngine eng(net, 5, peers, shards, threaded == 1);
      ASSERT_EQ(eng.num_shards(), shards);
      std::vector<TokenForwarder*> fleet;
      for (int i = 0; i < peers; ++i) {
        auto a = std::make_unique<TokenForwarder>(kHops);
        fleet.push_back(a.get());
        eng.add_actor(std::move(a));
      }
      const auto result = eng.run();
      ASSERT_TRUE(result.quiesced);
      int delivered = 0;
      for (const TokenForwarder* p : fleet) {
        digests[threaded].push_back(p->digest);
        delivered += p->delivered;
      }
      EXPECT_EQ(delivered, peers * (kHops + 1));
      windows[threaded] = eng.windows_run();
    }
    EXPECT_GT(windows[0], 100u);
    EXPECT_EQ(windows[0], windows[1]) << shards << " shards";
    EXPECT_EQ(digests[0], digests[1]) << shards << " shards";
  }
}

TEST(ShardedRun, RWSAcrossShardsKeepsExactUnits) {
  const auto params = uts_params(2);
  auto config = base_config(lb::Strategy::kRWS, 12, 4, 13);
  config.sim_shards = 4;
  uts::UtsWorkload ref(params, uts::CostModel{});
  const auto seq = lb::run_sequential(ref);
  uts::UtsWorkload w(params, uts::CostModel{});
  const auto m = lb::run_distributed(w, config);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.total_units, seq.units);
}

TEST(ShardedRunDeathTest, SingleOrderFeaturesRefuseShards) {
  // Features needing one global event order refuse a sharded run instead of
  // quietly running it on one shard: the runner aborts naming the feature.
  // On one shard the list accepts the same configs.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  trace::VectorTracer tracer;
  metrics::MetricsHub::Options hub_options;
  hub_options.path = "never-written.prom";  // Prometheus hubs write on flush
  metrics::MetricsHub hub(hub_options);
  const auto base = base_config(lb::Strategy::kOverlayBTD, 12, 4, 3);
  auto traced = base;
  traced.tracer = &tracer;
  auto metered = base;
  metered.metrics = &hub;
  auto faulty = base;
  faulty.faults.link.drop_prob = 0.01;
  auto perturbed = base;
  perturbed.perturb.seed = 9;
  perturbed.perturb.shuffle_ties = true;
  auto lost_work = base;
  lost_work.plant.kind = lb::PlantedBug::Kind::kLostWork;
  const struct {
    lb::RunConfig config;
    const char* feature;
  } rows[] = {
      {traced, "tracing"},
      {metered, "live metrics"},
      {faulty, "fault injection"},
      {perturbed, "schedule perturbation"},
      {lost_work, "the lost-work bug plant"},
  };
  const auto params = uts_params(4);
  for (auto row : rows) {
    EXPECT_EQ(lb::unsupported_reason(row.config), "") << row.feature;
    row.config.sim_shards = 4;
    uts::UtsWorkload w(params, uts::CostModel{});
    EXPECT_DEATH(lb::run_distributed(w, row.config),
                 std::string(row.feature) + " needs a single global event order")
        << row.feature;
  }
}

// --------------------------------------------------------- cross-shard FIFO ---

constexpr int kBurst = 32;

/// Sends a numbered burst to its partner in one on_start (same timestamp).
class Burster : public sim::Actor {
 public:
  explicit Burster(int partner) : partner_(partner) {}

 protected:
  void on_start() override {
    for (int i = 0; i < kBurst; ++i) {
      send(partner_, sim::Message(1, i));
    }
  }
  void on_message(sim::Message) override {}

 private:
  int partner_;
};

/// Records the arrival order of its partner's burst.
class Recorder : public sim::Actor {
 public:
  std::vector<std::int64_t> seen;

 protected:
  void on_message(sim::Message m) override { seen.push_back(m.a); }
};

TEST(ShardedFifo, CrossShardBurstArrivesInSendOrder) {
  // Zero jitter: all kBurst messages carry the same latency, so FIFO per
  // (src, dst) pair is the engine's ordering obligation. Cross-shard
  // delivery goes outbox -> barrier -> inject_arrival; the destination
  // stamps its own arrival sequence, so drain order must preserve send
  // order — this is the invariant the conservative windows must not break.
  sim::NetworkConfig net;
  net.latency_jitter = 0;
  for (int shards : {1, 2}) {
    sim::ShardedEngine eng(net, 42, 2, shards, /*threaded=*/shards > 1);
    eng.add_actor(std::make_unique<Burster>(1));
    auto rec = std::make_unique<Recorder>();
    Recorder* recorder = rec.get();
    eng.add_actor(std::move(rec));
    const auto result = eng.run();
    EXPECT_TRUE(result.quiesced);
    ASSERT_EQ(recorder->seen.size(), static_cast<std::size_t>(kBurst));
    for (int i = 0; i < kBurst; ++i) {
      EXPECT_EQ(recorder->seen[static_cast<std::size_t>(i)], i)
          << "reordered at " << i << " with " << shards << " shard(s)";
    }
  }
}

TEST(ShardedFifo, PingPongAcrossTheBarrierQuiesces) {
  // Request/response across the shard boundary: each reply is handed over
  // into the *next* window. The lookahead invariant (arrival time >=
  // destination now, OLB_CHECK'd in take_arrivals_from) would abort here if
  // the window math ever let a message land in a shard's past. Thousands of
  // one-message windows make this the stress test of the threaded barrier:
  // a lost wake hangs it, a missing happens-before is a TSan report.
  class Pinger : public sim::Actor {
   public:
    Pinger(int partner, int hops) : partner_(partner), hops_(hops) {}
    int received = 0;

   protected:
    void on_start() override {
      if (id() == 0) send(partner_, sim::Message(1));
    }
    void on_message(sim::Message m) override {
      ++received;
      if (received < hops_) send(m.src, sim::Message(1));
    }

   private:
    int partner_;
    int hops_;
  };
  constexpr int kHops = 2000;
  for (bool threaded : {false, true}) {
    sim::NetworkConfig net;
    sim::ShardedEngine eng(net, 9, 2, 2, threaded);
    auto a = std::make_unique<Pinger>(1, kHops);
    auto b = std::make_unique<Pinger>(0, kHops);
    Pinger* pa = a.get();
    Pinger* pb = b.get();
    eng.add_actor(std::move(a));
    eng.add_actor(std::move(b));
    const auto result = eng.run();
    EXPECT_TRUE(result.quiesced);
    // The partner that hits its hop budget stops replying, so the chain is
    // 2 * hops - 1 receipts long.
    EXPECT_EQ(pa->received + pb->received, 2 * kHops - 1);
    EXPECT_GE(eng.windows_run(), 2u * kHops - 1);  // a window per receipt
  }
}

// --------------------------------------------------------- memory canaries ---

TEST(ShardedMemory, EventQueueAccountsItsHeapStorage) {
  sim::EventQueue q;
  EXPECT_EQ(q.memory_bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    q.emplace(static_cast<sim::Time>(i), 0, static_cast<std::uint64_t>(i), 0,
              sim::Event::Kind::kArrival);
  }
  const std::size_t full = q.memory_bytes();
  EXPECT_GE(full, 100 * sizeof(sim::Event));
  while (!q.empty()) q.pop();
  // Slab semantics: capacity is the high-water mark, it never shrinks
  // (draining can only add freelist capacity).
  EXPECT_GE(q.memory_bytes(), full);
}

TEST(ShardedMemory, HotStructSizesStayPacked) {
  // The scale budget (docs/SCALING.md) counts these per queued event / per
  // message / per peer. Growing any of them silently is a bytes-per-peer
  // regression at n = 10^5-10^6; this canary makes the growth a conscious
  // decision.
  EXPECT_LE(sizeof(sim::Message), 56u);
  EXPECT_LE(sizeof(sim::Event), 64u);  // one cache line per slab slot
  EXPECT_LE(sizeof(lb::OverlayPeer), 640u);
}

TEST(ShardedMemory, QueueBytesPerPeerStaysBounded) {
  // A thousand idle-after-startup actors: the engine-side queue footprint
  // per peer must stay far inside the low-KB budget (the protocol layers
  // add their own state on top; docs/SCALING.md has the full table).
  class Quiet : public sim::Actor {
   protected:
    void on_message(sim::Message) override {}
  };
  sim::ShardedEngine eng(sim::NetworkConfig{}, 1, 1000, 4, false);
  for (int i = 0; i < 1000; ++i) eng.add_actor(std::make_unique<Quiet>());
  const auto result = eng.run();
  EXPECT_TRUE(result.quiesced);
  EXPECT_LT(eng.queue_memory_bytes() / 1000, std::size_t{512});
}

}  // namespace
}  // namespace olb
