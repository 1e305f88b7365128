// Unit tests for the discrete-event engine: ordering, busy-server queueing,
// compute/message interleaving, timers, latency model, determinism.
#include <gtest/gtest.h>

#include <vector>

#include "simnet/engine.hpp"
#include "simnet/event_queue.hpp"

namespace olb::sim {
namespace {

// ------------------------------------------------------------ event queue ---

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  for (Time t : {50, 10, 30, 20, 40}) {
    Event e;
    e.time = t;
    e.seq = static_cast<std::uint64_t>(t);
    q.push(std::move(e));
  }
  Time prev = -1;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GT(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueue, TiesBreakBySequence) {
  EventQueue q;
  for (std::uint64_t s : {3u, 1u, 2u, 0u}) {
    Event e;
    e.time = 7;
    e.seq = s;
    q.push(std::move(e));
  }
  for (std::uint64_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(q.pop().seq, expect);
  }
}

TEST(EventQueue, SingleElementPopKeepsMessageIntact) {
  // Regression: at heap size 1 front and back alias, and the old pop
  // self-move-assigned the element — undefined for the Message's
  // unique_ptr payload (in practice it nulled it).
  EventQueue q;
  Event e;
  e.time = 5;
  e.seq = 1;
  e.msg = Message(7, 42);
  e.msg.payload = std::make_unique<MsgPayload>();
  q.push(std::move(e));
  const Event out = q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(out.time, 5);
  EXPECT_EQ(out.msg.type, 7);
  EXPECT_EQ(out.msg.a, 42);
  EXPECT_NE(out.msg.payload, nullptr);
}

TEST(EventQueue, SlabReuseNeverAliasesLiveEvent) {
  // Arena canary: pop() moves an Event out and recycles its slot; later
  // emplace() calls reuse that slot. Messages popped earlier must stay
  // intact — each carries a heap payload, so any aliasing write through a
  // recycled slot is an ASan-visible use-after-move/overwrite, and the
  // canary values below catch it in plain builds too.
  EventQueue q;
  for (std::uint64_t i = 0; i < 64; ++i) {
    Event& e = q.emplace(static_cast<Time>(i), 0, i, 0, Event::Kind::kArrival);
    e.msg = Message(static_cast<int>(i), static_cast<std::int64_t>(i) * 1000);
    e.msg.payload = std::make_unique<MsgPayload>();
    e.msg.b = static_cast<std::int64_t>(i);
  }
  std::vector<Message> held;
  for (std::uint64_t i = 0; i < 32; ++i) held.push_back(q.pop().msg);
  // Refill through the freelist: these land in the 32 just-recycled slots.
  for (std::uint64_t i = 64; i < 96; ++i) {
    Event& e = q.emplace(static_cast<Time>(i), 0, i, 0, Event::Kind::kArrival);
    e.msg = Message(static_cast<int>(i), static_cast<std::int64_t>(i) * 1000);
    e.msg.payload = std::make_unique<MsgPayload>();
    e.msg.b = static_cast<std::int64_t>(i);
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(held[i].type, static_cast<int>(i));
    EXPECT_EQ(held[i].a, static_cast<std::int64_t>(i) * 1000);
    ASSERT_NE(held[i].payload, nullptr);
    EXPECT_EQ(held[i].b, static_cast<std::int64_t>(i));
  }
  // Drain the rest: ordering and payloads must line up despite recycling.
  for (std::uint64_t i = 32; i < 96; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.seq, i);
    ASSERT_NE(e.msg.payload, nullptr);
    EXPECT_EQ(e.msg.b, static_cast<std::int64_t>(i));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TopDropTopMatchesPop) {
  // The engine's in-place consumption path: top() + drop_top() must see the
  // same event pop() would return, and drop_top() must recycle the slot.
  EventQueue q;
  for (Time t : {30, 10, 20}) {
    Event& e = q.emplace(t, 0, static_cast<std::uint64_t>(t), 0,
                         Event::Kind::kWake);
    e.msg = Message(static_cast<int>(t), t);
  }
  EXPECT_EQ(q.peek_time(), 10);
  {
    Event& top = q.top();
    EXPECT_EQ(top.time, 10);
    EXPECT_EQ(top.msg.a, 10);
    q.drop_top();
  }
  const Event e = q.pop();
  EXPECT_EQ(e.time, 20);
  EXPECT_EQ(q.top().time, 30);
  q.drop_top();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressAgainstSortedReference) {
  Xoshiro256 rng(5);
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> ref;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    Event e;
    e.time = static_cast<Time>(rng.below(1000));
    e.seq = i;
    ref.emplace_back(e.time, e.seq);
    q.push(std::move(e));
  }
  std::sort(ref.begin(), ref.end());
  for (const auto& [t, s] : ref) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, t);
    EXPECT_EQ(e.seq, s);
  }
}

// ----------------------------------------------------------------- actors ---

/// Records every delivery with its timestamp.
class Recorder : public Actor {
 public:
  struct Delivery {
    Time at;
    int type;
    std::int64_t a;
    int src;
  };
  std::vector<Delivery> deliveries;
  Time compute_on_type = -1;   ///< start_compute(a) when receiving this type
  int reply_to_type = -1;      ///< send a type-99 reply on this type
  std::vector<Time> compute_done_at;

 protected:
  void on_message(Message m) override {
    deliveries.push_back({now(), m.type, m.a, m.src});
    if (m.type == compute_on_type) start_compute(m.a);
    if (m.type == reply_to_type) send(m.src, Message(99));
  }
  void on_compute_done() override { compute_done_at.push_back(now()); }
  void on_timer(std::int64_t tag) override {
    deliveries.push_back({now(), kTimerMsgType, tag, id()});
  }
  friend class Starter;
};

/// Sends a scripted list of (delay-ignored) messages from on_start.
class Starter : public Actor {
 public:
  std::vector<Message> to_send;
  int dst = 1;

 protected:
  void on_start() override {
    for (auto& m : to_send) send(dst, std::move(m));
    to_send.clear();
  }
  void on_message(Message) override {}
};

NetworkConfig zero_jitter() {
  NetworkConfig net;
  net.latency_jitter = 0;
  net.intra_latency = microseconds(10);
  net.msg_handling_cost = microseconds(3);
  return net;
}

TEST(Engine, MessageLatencyAndHandlingCost) {
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(5);
  auto r = std::make_unique<Recorder>();
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  const auto result = engine.run();
  EXPECT_TRUE(result.quiesced);
  ASSERT_EQ(recorder->deliveries.size(), 1u);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(10));
  EXPECT_EQ(engine.stats(1).msgs_received, 1u);
  EXPECT_EQ(engine.stats(1).overhead_time, microseconds(3));
}

TEST(Engine, BusyServerSerialisesDeliveries) {
  // Two messages arrive (almost) together; the second is delivered only
  // after the first's handling cost has elapsed.
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(5);
  s->to_send.emplace_back(5);
  auto r = std::make_unique<Recorder>();
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(recorder->deliveries.size(), 2u);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(10));
  EXPECT_EQ(recorder->deliveries[1].at, microseconds(13));  // +handling cost
  // Queueing delay is accounted on a bare engine with nothing attached: the
  // second message waited one handling cost behind the first.
  EXPECT_EQ(engine.queueing_delay_samples(), 2u);
  EXPECT_EQ(engine.queueing_delay_max(), microseconds(3));
}

TEST(Engine, MessagesServicedAtComputeBoundary) {
  // The recorder starts a long compute on message type 1; a later message
  // must wait until the span ends, and on_compute_done fires after it.
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  Message first(1);
  first.a = microseconds(100);  // compute duration
  s->to_send.push_back(std::move(first));
  s->to_send.emplace_back(2);
  auto r = std::make_unique<Recorder>();
  r->compute_on_type = 1;
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(recorder->deliveries.size(), 2u);
  // First message at t=10us, handled for 3us, then computes 100us.
  // Second message arrived ~t=10us but waits until 113us.
  EXPECT_EQ(recorder->deliveries[1].at, microseconds(113));
  ASSERT_EQ(recorder->compute_done_at.size(), 1u);
  // compute_done only after the queued message was serviced (message priority
  // at chunk boundaries).
  EXPECT_EQ(recorder->compute_done_at[0], microseconds(116));
}

TEST(Engine, TimerFiresAtRequestedDelay) {
  class TimerActor : public Actor {
   public:
    Time fired_at = -1;

   protected:
    void on_start() override { set_timer(microseconds(250), 7); }
    void on_message(Message) override {}
    void on_timer(std::int64_t tag) override {
      EXPECT_EQ(tag, 7);
      fired_at = now();
    }
  };
  Engine engine(zero_jitter(), 1);
  auto t = std::make_unique<TimerActor>();
  auto* timer = t.get();
  engine.add_actor(std::move(t));
  engine.run();
  EXPECT_EQ(timer->fired_at, microseconds(250));
}

TEST(Engine, RequestReplyRoundTrip) {
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(4);
  auto r = std::make_unique<Recorder>();
  r->reply_to_type = 4;
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  EXPECT_EQ(engine.stats(0).msgs_received, 1u);  // the type-99 reply
  EXPECT_EQ(engine.stats(1).msgs_sent, 1u);
}

TEST(Engine, InterClusterLatencyApplies) {
  NetworkConfig net = zero_jitter();
  net.cluster_capacity = 1;  // every peer its own cluster
  net.inter_latency = microseconds(500);
  Engine engine(net, 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(5);
  auto r = std::make_unique<Recorder>();
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(recorder->deliveries.size(), 1u);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(500));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine(NetworkConfig{}, 99);  // jitter enabled
    auto s = std::make_unique<Starter>();
    for (int i = 0; i < 20; ++i) s->to_send.emplace_back(5);
    auto r = std::make_unique<Recorder>();
    auto* recorder = r.get();
    engine.add_actor(std::move(s));
    engine.add_actor(std::move(r));
    engine.run();
    std::vector<Time> times;
    for (const auto& d : recorder->deliveries) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, EventLimitStopsRun) {
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  for (int i = 0; i < 50; ++i) s->to_send.emplace_back(5);
  engine.add_actor(std::move(s));
  engine.add_actor(std::make_unique<Recorder>());
  const auto result = engine.run(kTimeMax, 10);
  EXPECT_FALSE(result.quiesced);
  EXPECT_EQ(result.events, 10u);
}

TEST(Engine, TimeLimitStopsRun) {
  class SlowTicker : public Actor {
   protected:
    void on_start() override { set_timer(seconds(1.0), 0); }
    void on_message(Message) override {}
    void on_timer(std::int64_t) override { set_timer(seconds(1.0), 0); }
  };
  Engine engine(zero_jitter(), 1);
  engine.add_actor(std::make_unique<SlowTicker>());
  const auto result = engine.run(seconds(5.5));
  EXPECT_FALSE(result.quiesced);
  EXPECT_LE(result.end_time, seconds(5.5));
}

TEST(Engine, BusyHistogramAccumulatesComputeTime) {
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  Message m(1);
  m.a = milliseconds(3);
  s->to_send.push_back(std::move(m));
  auto r = std::make_unique<Recorder>();
  r->compute_on_type = 1;
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  Time total = 0;
  for (Time t : engine.busy_histogram()) total += t;
  EXPECT_EQ(total, milliseconds(3));
}

TEST(Network, ClusterAssignmentIsBlockwise) {
  NetworkConfig net;
  net.cluster_capacity = 4;
  Network network(net, 1);
  EXPECT_EQ(network.cluster_of(0), 0);
  EXPECT_EQ(network.cluster_of(3), 0);
  EXPECT_EQ(network.cluster_of(4), 1);
  EXPECT_EQ(network.cluster_of(9), 2);
}

TEST(Network, JitterStaysWithinBound) {
  NetworkConfig net;
  net.intra_latency = microseconds(20);
  net.latency_jitter = microseconds(4);
  Network network(net, 3);
  for (int i = 0; i < 1000; ++i) {
    const Time l = network.latency(0, 1);
    ASSERT_GE(l, microseconds(20));
    ASSERT_LT(l, microseconds(24));
  }
}

}  // namespace
}  // namespace olb::sim
