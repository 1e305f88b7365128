// Tests for the shared-memory backend (src/runtime): mailbox correctness
// under concurrency, the real-time Host's pass order and send ids, and the
// overlay protocol on real threads
// reproducing the simulator's execution-order-independent invariants —
// exact UTS node counts and exact B&B optima — across strategies, thread
// counts and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bb/bb_work.hpp"
#include "metrics/hub.hpp"
#include "runtime/host.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/runtime.hpp"
#include "trace/trace.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

// ----------------------------------------------------------------- mailbox ---

TEST(Mailbox, FifoAndPayloadOnOneThread) {
  runtime::Mailbox box;
  for (int i = 0; i < 100; ++i) box.push(sim::Message(i, i * 10));
  sim::Message with_payload(100);
  with_payload.payload = std::make_unique<sim::MsgPayload>();
  box.push(std::move(with_payload));
  std::vector<sim::Message> batch;
  box.take(batch);
  ASSERT_EQ(batch.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].type, i);
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].a, i * 10);
  }
  EXPECT_NE(batch.back().payload, nullptr);
  box.take(batch);
  EXPECT_TRUE(batch.empty());
}

TEST(Mailbox, NoLossAndPerProducerOrderUnderConcurrentProducers) {
  // N producers push a tagged sequence each while the owner takes batches;
  // every message must arrive exactly once and in per-producer order (run
  // under TSan to check the locking too).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  runtime::Mailbox box;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) box.push(sim::Message(p, i));
    });
  }
  std::vector<std::int64_t> next_expected(kProducers, 0);
  int received = 0;
  std::size_t max_batch = 0;
  std::vector<sim::Message> batch;
  while (received < kProducers * kPerProducer) {
    box.take(batch);
    for (const sim::Message& m : batch) {
      ASSERT_GE(m.type, 0);
      ASSERT_LT(m.type, kProducers);
      EXPECT_EQ(m.a, next_expected[static_cast<std::size_t>(m.type)]++);
      ++received;
    }
    max_batch = std::max(max_batch, batch.size());
  }
  for (auto& t : producers) t.join();
  box.take(batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_GT(max_batch, 1u);  // batching actually happened at least once
}

TEST(Mailbox, SleeperWakesPromptlyOnPushAndOnStop) {
  // No lost wakeup: a push or a wake() that lands while the owner is blocked
  // in sleep_until must end the sleep at once, not at its 10 s deadline.
  // The owner's stop() runs under the mailbox lock just before it blocks,
  // so once `checked` is set, the next push or wake() cannot get the lock
  // until the owner is waiting.
  using Clock = std::chrono::steady_clock;
  runtime::Mailbox box;
  std::atomic<bool> checked{false};
  std::atomic<bool> stop{false};
  Clock::time_point woke_at;
  const auto start_sleeper = [&] {
    checked.store(false);
    return std::thread([&] {
      box.sleep_until(Clock::now() + std::chrono::seconds(10), [&] {
        checked.store(true);
        return stop.load();
      });
      woke_at = Clock::now();
    });
  };
  const auto wait_until_asleep = [&] {
    while (!checked.load()) std::this_thread::yield();
  };

  std::thread owner = start_sleeper();
  wait_until_asleep();
  const auto pushed_at = Clock::now();
  EXPECT_TRUE(box.push(sim::Message(1)));  // found the owner asleep
  owner.join();
  EXPECT_LT(woke_at - pushed_at, std::chrono::milliseconds(500));
  std::vector<sim::Message> batch;
  box.take(batch);
  EXPECT_EQ(batch.size(), 1u);

  owner = start_sleeper();
  wait_until_asleep();
  const auto stopped_at = Clock::now();
  stop.store(true);
  box.wake();
  owner.join();
  EXPECT_LT(woke_at - stopped_at, std::chrono::milliseconds(500));
}

// -------------------------------------------------------------------- host ---

/// A transport whose clock the test sets. Sends and timers go through the
/// Host of the sending actor, as on the real-time backends; sent messages
/// are kept for inspection.
class FakeTransport final : public sim::Transport {
 public:
  explicit FakeTransport(int n) : n_(n) {}

  sim::Time now = 0;
  trace::TraceSink* tracer = nullptr;
  std::vector<runtime::Host*> hosts;  ///< by actor id
  std::vector<sim::Message> sent;

  sim::Time transport_now() const override { return now; }
  int transport_num_peers() const override { return n_; }
  trace::TraceSink* transport_tracer() const override { return tracer; }
  void transport_send(sim::Actor& from, int dst, sim::Message m) override {
    hosts[static_cast<std::size_t>(from.id())]->count_send(m, dst);
    sent.push_back(std::move(m));
  }
  void transport_set_timer(sim::Actor& from, sim::Time delay,
                           std::int64_t tag) override {
    hosts[static_cast<std::size_t>(from.id())]->set_timer(delay, tag);
  }

 private:
  int n_;
};

/// Logs every hook it gets ("m<a>", "t<tag>", "c") and lets the test call
/// its services.
class LoggingActor final : public sim::Actor {
 public:
  explicit LoggingActor(std::vector<std::string>& log) : log_(log) {}
  using sim::Actor::send;
  using sim::Actor::set_timer;
  using sim::Actor::start_compute;

 protected:
  void on_message(sim::Message m) override {
    log_.push_back("m" + std::to_string(m.a));
  }
  void on_timer(std::int64_t tag) override {
    log_.push_back("t" + std::to_string(tag));
  }
  void on_compute_done() override { log_.push_back("c"); }

 private:
  std::vector<std::string>& log_;
};

/// One LoggingActor per id 0..n-1, each in its Host on `net`.
struct HostedActors {
  HostedActors(FakeTransport& net, int n) {
    hosts.reserve(static_cast<std::size_t>(n));
    for (int id = 0; id < n; ++id) {
      auto actor = std::make_unique<LoggingActor>(log);
      actors.push_back(actor.get());
      hosts.emplace_back(std::move(actor), net, id, /*seed=*/1);
    }
    for (runtime::Host& h : hosts) net.hosts.push_back(&h);
    for (runtime::Host& h : hosts) h.start();
  }
  std::vector<std::string> log;
  std::vector<LoggingActor*> actors;
  std::vector<runtime::Host> hosts;
};

std::vector<sim::Message> batch_of(std::initializer_list<int> tags) {
  std::vector<sim::Message> batch;
  for (int tag : tags) batch.emplace_back(0, tag);
  return batch;
}

TEST(Host, StepDeliversThenFiresDueTimersInDeadlineOrderThenEndsTheSpan) {
  FakeTransport net(1);
  HostedActors h(net, 1);
  LoggingActor& actor = *h.actors[0];
  actor.set_timer(30, 2);
  actor.set_timer(10, 1);
  actor.set_timer(100, 3);
  actor.start_compute(5);
  std::vector<sim::Message> batch = batch_of({1, 2, 3});

  net.now = 50;
  EXPECT_TRUE(h.hosts[0].step(batch));
  EXPECT_EQ(h.log, (std::vector<std::string>{"m1", "m2", "m3", "t1", "t2", "c"}));
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(h.hosts[0].computing());
}

TEST(Host, TimersNotYetDueStayArmed) {
  FakeTransport net(1);
  HostedActors h(net, 1);
  runtime::Host& host = h.hosts[0];
  h.actors[0]->set_timer(100, 7);
  h.actors[0]->set_timer(40, 6);
  EXPECT_EQ(host.next_timer(), 40);
  std::vector<sim::Message> batch;

  net.now = 39;
  EXPECT_FALSE(host.step(batch));
  EXPECT_TRUE(h.log.empty());
  net.now = 40;  // due exactly at its deadline
  EXPECT_TRUE(host.step(batch));
  EXPECT_EQ(h.log, (std::vector<std::string>{"t6"}));
  EXPECT_EQ(host.next_timer(), 100);
  net.now = 99;
  EXPECT_FALSE(host.step(batch));
  net.now = 1000;
  EXPECT_TRUE(host.step(batch));
  EXPECT_EQ(h.log, (std::vector<std::string>{"t6", "t7"}));
  EXPECT_EQ(host.next_timer(), sim::kTimeMax);
}

TEST(Host, StepReturnsFalseWhenNothingRan) {
  FakeTransport net(1);
  HostedActors h(net, 1);
  std::vector<sim::Message> batch;
  EXPECT_FALSE(h.hosts[0].step(batch));
  h.actors[0]->start_compute(5);
  EXPECT_TRUE(h.hosts[0].computing());
  EXPECT_TRUE(h.hosts[0].step(batch));  // ending the span counts
  EXPECT_FALSE(h.hosts[0].step(batch));
  batch = batch_of({4});
  EXPECT_TRUE(h.hosts[0].step(batch));
  EXPECT_EQ(h.log, (std::vector<std::string>{"c", "m4"}));
}

TEST(Host, SendIdsFromSeveralHostsNeverCollide) {
  constexpr int kPeers = 3;
  FakeTransport net(kPeers);
  HostedActors h(net, kPeers);
  // Uneven and interleaved: peer p sends 50 * (p + 1) messages.
  for (int round = 0; round < 150; ++round) {
    for (int p = 0; p < kPeers; ++p) {
      if (round >= 50 * (p + 1)) continue;
      h.actors[static_cast<std::size_t>(p)]->send((p + 1) % kPeers,
                                                  sim::Message(p));
    }
  }
  ASSERT_EQ(net.sent.size(), 300u);
  std::set<std::uint32_t> ids;
  for (const sim::Message& m : net.sent) {
    EXPECT_NE(m.id, 0u);
    EXPECT_EQ(m.type, m.src);
    EXPECT_EQ(m.dst, (m.src + 1) % kPeers);
    ids.insert(m.id);
  }
  EXPECT_EQ(ids.size(), net.sent.size());
  for (int p = 0; p < kPeers; ++p) {
    const runtime::Host& host = h.hosts[static_cast<std::size_t>(p)];
    EXPECT_EQ(host.sent(), 50u * static_cast<unsigned>(p + 1));
    EXPECT_EQ(host.sent_of_type(p), host.sent());
    EXPECT_EQ(host.sent_of_type(p + 1), 0u);
  }
}

TEST(Host, DeliveryTracesTheInboxWaitOnlyOfStampedArrivals) {
  // Threads never stamp arrivals, so their deliveries must read a wait of
  // 0; a socket arrival stamped at the epoch (before the start barrier)
  // still reads its whole wait.
  trace::VectorTracer tracer;
  FakeTransport net(1);
  net.tracer = &tracer;
  HostedActors h(net, 1);
  std::vector<sim::Message> batch = batch_of({1, 2, 3});
  batch[1].arrived_at = 0;
  batch[2].arrived_at = 20;
  net.now = 50;
  h.hosts[0].step(batch);
  std::vector<std::int64_t> waits;
  for (const trace::TraceEvent& e : tracer.events()) {
    if (e.kind == trace::EventKind::kMsgDeliver) waits.push_back(e.b);
  }
  EXPECT_EQ(waits, (std::vector<std::int64_t>{0, 50, 30}));
}

// ------------------------------------------- overlay protocol on threads ---

// Big enough (~10^4-10^5 nodes) that idle peers' requests arrive while the
// root still holds work, so real transfers happen on the thread backend;
// small enough that the full sweep stays seconds-fast.
uts::Params small_uts(std::uint32_t seed) {
  uts::Params p;
  p.shape = uts::TreeShape::kBinomial;
  p.hash = uts::HashMode::kFast;
  p.b0 = 500;
  p.q = 0.49;
  p.m = 2;
  p.root_seed = seed;
  return p;
}

lb::RunConfig threads_config(lb::Strategy s, int n, std::uint64_t seed) {
  lb::RunConfig c;
  c.strategy = s;
  c.num_peers = n;
  c.dmax = 3;
  c.seed = seed;
  c.backend = lb::Backend::kThreads;
  c.limits.time_limit = sim::seconds(60.0);  // wall watchdog
  return c;
}

TEST(RuntimeThreads, UtsNodeCountsExact) {
  // The tentpole acceptance check: node counts are execution-order
  // independent, so every (strategy, threads, seed) combination must
  // reproduce the sequential count exactly — whatever interleaving the
  // real threads produce.
  std::vector<int> thread_counts = {1, 2, 4};
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }
  for (auto strategy : {lb::Strategy::kOverlayTD, lb::Strategy::kOverlayTR,
                        lb::Strategy::kOverlayBTD}) {
    for (int threads : thread_counts) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto params = small_uts(static_cast<std::uint32_t>(seed * 5 + 3));
        const auto expected = uts::count_tree(params).nodes;
        uts::UtsWorkload workload(params, uts::CostModel{});
        const auto m = runtime::run_threads(
            workload, threads_config(strategy, threads, seed));
        ASSERT_TRUE(m.ok) << lb::strategy_name(strategy) << " threads=" << threads
                          << " seed=" << seed;
        EXPECT_EQ(m.total_units, expected)
            << lb::strategy_name(strategy) << " threads=" << threads
            << " seed=" << seed;
      }
    }
  }
}

TEST(RuntimeThreads, FlowshopOptimumExact) {
  // B&B on threads: the proved optimum must match the sequential reference
  // whatever the work distribution was.
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 9, 5);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  for (int threads : {1, 2, 4}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
      const auto m = runtime::run_threads(
          workload, threads_config(lb::Strategy::kOverlayBTD, threads, seed));
      ASSERT_TRUE(m.ok) << "threads=" << threads << " seed=" << seed;
      EXPECT_EQ(workload.best().makespan(), reference.optimum);
      EXPECT_EQ(m.best_bound, reference.optimum);
    }
  }
}

TEST(RuntimeThreads, MessageAccountingIsCoherent) {
  // Even with the bigger instance below, a single-core host serialises the
  // four worker threads so hard that work may never move; the transfer
  // assertions are genuinely thread-count-dependent.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >= 2 hardware threads for cross-peer transfers";
  }
  // Bigger than small_uts: the run must span many OS scheduler timeslices,
  // or on a single-CPU host peer 0 can finish the whole instance before the
  // idle peers' requests are even scheduled — and then nothing transfers.
  auto params = small_uts(11);
  params.b0 = 2000;
  params.q = 0.499;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto m = runtime::run_threads(
      workload, threads_config(lb::Strategy::kOverlayBTD, 4, 7));
  ASSERT_TRUE(m.ok);
  // Setup (kSizeUp/kSizeDown), requests and the termination broadcast all
  // count; the totals must at least cover requests + transfers.
  EXPECT_GE(m.total_messages, m.work_requests + m.work_transfers);
  EXPECT_GT(m.total_messages, 0u);
  // The instance outlives the idle peers' first requests by orders of
  // magnitude, so the protocol must actually have moved work.
  EXPECT_GT(m.work_requests, 0u);
  EXPECT_GT(m.work_transfers, 0u);
  EXPECT_GT(m.done_seconds, 0.0);
  EXPECT_GE(m.wall_seconds, m.done_seconds);
}

TEST(RuntimeThreadsDeathTest, RejectsNonOverlayStrategies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto params = small_uts(1);
  uts::UtsWorkload workload(params, uts::CostModel{});
  auto lost_work = threads_config(lb::Strategy::kOverlayBTD, 2, 1);
  lost_work.plant.kind = lb::PlantedBug::Kind::kLostWork;
  const struct {
    lb::RunConfig config;
    const char* message;
  } rows[] = {
      {threads_config(lb::Strategy::kRWS, 2, 1), "overlay"},
      {lost_work, "lost-work plant"},
  };
  for (const auto& row : rows) {
    EXPECT_DEATH(runtime::run_threads(workload, row.config), row.message);
  }
}

TEST(Runtime, UnsupportedReasonIsTheOneListOfBackendLimits) {
  trace::VectorTracer tracer;
  metrics::MetricsHub::Options hub_options;
  hub_options.path = "never-written.prom";  // Prometheus hubs write on flush
  metrics::MetricsHub hub(hub_options);

  lb::RunConfig overlay;
  overlay.strategy = lb::Strategy::kOverlayBTD;
  overlay.num_peers = 2;
  lb::RunConfig rws = overlay;
  rws.strategy = lb::Strategy::kRWS;
  lb::RunConfig faults = overlay;
  faults.faults.link.drop_prob = 0.1;
  lb::RunConfig slow = overlay;
  slow.het.fraction = 0.5;
  lb::RunConfig lost_work = overlay;
  lost_work.plant.kind = lb::PlantedBug::Kind::kLostWork;
  lb::RunConfig split_bias = overlay;
  split_bias.plant.kind = lb::PlantedBug::Kind::kSplitBias;
  lb::RunConfig traced = overlay;
  traced.tracer = &tracer;
  lb::RunConfig metered = overlay;
  metered.metrics = &hub;
  lb::RunConfig ranked = overlay;
  ranked.sockets.rank = 0;
  ranked.sockets.peers = {"127.0.0.1:1", "127.0.0.1:2"};
  lb::RunConfig ranked_traced = ranked;
  ranked_traced.tracer = &tracer;
  lb::RunConfig ranked_metered = ranked;
  ranked_metered.metrics = &hub;
  lb::RunConfig wrong_table = ranked;
  wrong_table.num_peers = 3;

  using B = lb::Backend;
  const struct {
    B backend;
    const lb::RunConfig& config;
    const char* name;
    bool accepted;
  } rows[] = {
      // The simulator runs everything.
      {B::kSim, rws, "rws", true},
      {B::kSim, faults, "faults", true},
      {B::kSim, slow, "slow", true},
      {B::kSim, lost_work, "lost_work", true},
      {B::kSim, traced, "traced", true},
      {B::kSim, metered, "metered", true},
      // Real-time backends: overlay strategies, no simulator concepts.
      {B::kThreads, overlay, "overlay", true},
      {B::kThreads, rws, "rws", false},
      {B::kThreads, faults, "faults", false},
      {B::kThreads, slow, "slow", false},
      {B::kThreads, lost_work, "lost_work", false},
      {B::kThreads, split_bias, "split_bias", true},
      {B::kThreads, traced, "traced", true},
      {B::kThreads, metered, "metered", true},
      {B::kSockets, ranked, "ranked", true},
      {B::kSockets, rws, "rws", false},
      {B::kSockets, faults, "faults", false},
      {B::kSockets, slow, "slow", false},
      {B::kSockets, lost_work, "lost_work", false},
      // Sockets also need a bring-up and take no in-process sinks.
      {B::kSockets, overlay, "unconfigured", false},
      {B::kSockets, ranked_traced, "ranked_traced", false},
      {B::kSockets, ranked_metered, "ranked_metered", false},
      {B::kSockets, wrong_table, "wrong_table", false},
  };
  for (const auto& row : rows) {
    const std::string why = runtime::unsupported_reason(row.backend, row.config);
    EXPECT_EQ(why.empty(), row.accepted)
        << lb::backend_name(row.backend) << " / " << row.name << ": '" << why
        << "'";
  }
}

}  // namespace
}  // namespace olb
