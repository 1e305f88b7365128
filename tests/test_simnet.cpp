// Unit tests for the discrete-event engine: ordering, busy-server queueing,
// compute/message interleaving, timers, latency model, determinism.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "simnet/engine.hpp"
#include "simnet/event_queue.hpp"

namespace olb::sim {
namespace {

// ------------------------------------------------------------ event queue ---

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  for (Time t : {50, 10, 30, 20, 40}) {
    q.emplace(t, 0, static_cast<std::uint64_t>(t), 0, Event::Kind::kArrival)
        .msg.a = t;
  }
  Time prev = -1;
  while (!q.empty()) {
    const Time t = q.peek_time();
    EXPECT_GT(t, prev);
    EXPECT_EQ(q.pop().msg.a, t);  // the body travels with its key
    prev = t;
  }
}

TEST(EventQueue, TiesBreakBySequence) {
  EventQueue q;
  for (std::uint64_t s : {3u, 1u, 2u, 0u}) {
    q.emplace(7, 0, s, 0, Event::Kind::kArrival).msg.a =
        static_cast<std::int64_t>(s);
  }
  for (std::uint64_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(q.peek_time(), 7);
    EXPECT_EQ(q.pop().msg.a, static_cast<std::int64_t>(expect));
  }
}

TEST(EventQueue, SingleElementPopKeepsMessageIntact) {
  // Regression: at heap size 1 front and back alias, and the old pop
  // self-move-assigned the element — undefined for the Message's
  // unique_ptr payload (in practice it nulled it).
  EventQueue q;
  Event& e = q.emplace(5, 0, 1, 3, Event::Kind::kArrival);
  e.msg = Message(7, 42);
  e.msg.dst = 3;
  e.msg.payload = std::make_unique<MsgPayload>();
  EXPECT_EQ(q.peek_time(), 5);
  const Event out = q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(out.msg.type, 7);
  EXPECT_EQ(out.msg.a, 42);
  EXPECT_EQ(out.msg.dst, 3);
  EXPECT_NE(out.msg.payload, nullptr);
}

TEST(EventQueue, EmplaceStoresTheTargetInMsgDst) {
  // The slot carries no separate destination field: every kind names its
  // target through msg.dst, including kinds that never carry a message.
  EventQueue q;
  q.emplace(2, 0, 0, 11, Event::Kind::kWake);
  q.emplace(1, 0, 1, 12, Event::Kind::kCrash);
  EXPECT_EQ(q.top().kind, Event::Kind::kCrash);
  EXPECT_EQ(q.top().msg.dst, 12);
  q.drop_top();
  EXPECT_EQ(q.top().kind, Event::Kind::kWake);
  EXPECT_EQ(q.top().msg.dst, 11);
  q.drop_top();
  EXPECT_TRUE(q.empty());
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
    EXPECT_EQ(q.peek_time(), static_cast<Time>(i));
    const Event e = q.pop();
    EXPECT_EQ(e.msg.type, static_cast<int>(i));
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
    EXPECT_EQ(top.msg.a, 10);
    q.drop_top();
  }
  EXPECT_EQ(q.peek_time(), 20);
  const Event e = q.pop();
  EXPECT_EQ(e.msg.a, 20);
  EXPECT_EQ(q.peek_time(), 30);
  EXPECT_EQ(q.top().msg.a, 30);
  q.drop_top();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DetachedSlotSurvivesLaterTraffic) {
  // The inbox path: detach_top() takes the event off the schedule but the
  // slot stays allocated, so later emplace/pop traffic must neither reuse
  // nor clobber it until release().
  EventQueue q;
  Event& first = q.emplace(1, 0, 0, 4, Event::Kind::kArrival);
  first.msg = Message(9, 99);
  first.msg.dst = 4;
  first.msg.payload = std::make_unique<MsgPayload>();
  const std::uint32_t kept = q.detach_top();
  EXPECT_TRUE(q.empty());
  for (std::uint64_t i = 0; i < 32; ++i) {
    q.emplace(static_cast<Time>(2 + i), 0, 1 + i, 0, Event::Kind::kArrival)
        .msg.a = static_cast<std::int64_t>(i);
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(q.pop().msg.a, static_cast<std::int64_t>(i));
  }
  Event& still = q.slot(kept);
  EXPECT_EQ(still.msg.type, 9);
  EXPECT_EQ(still.msg.a, 99);
  EXPECT_EQ(still.msg.dst, 4);
  ASSERT_NE(still.msg.payload, nullptr);
  still.msg.payload.reset();
  q.release(kept);
  // The released slot is recycled by the next emplace.
  Event& reused = q.emplace(50, 0, 50, 1, Event::Kind::kWake);
  EXPECT_EQ(&reused, &q.slot(kept));
  EXPECT_EQ(reused.msg.dst, 1);
}

TEST(EventQueue, StressAgainstSortedReference) {
  Xoshiro256 rng(5);
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> ref;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const auto t = static_cast<Time>(rng.below(1000));
    q.emplace(t, 0, i, 0, Event::Kind::kArrival).msg.a =
        static_cast<std::int64_t>(i);
    ref.emplace_back(t, i);
  }
  std::sort(ref.begin(), ref.end());
  for (const auto& [t, s] : ref) {
    EXPECT_EQ(q.peek_time(), t);
    EXPECT_EQ(q.pop().msg.a, static_cast<std::int64_t>(s));
  }
}

TEST(EventQueue, LanesAndHeapMatchASortedReference) {
  // Drives the queue the way an engine does — a clock that follows the
  // served events, an insertion sequence that only grows — and checks every
  // served event, and how many events wait in the heap, against a model: a
  // sorted (time, tie, seq) reference plus the placement each event must
  // get. Lanes are claimed for 0, 5 us, 10 ms and 1 ms; a fifth delay
  // (2 ms) finds every lane taken. Jittered arrivals, tie-shuffled events
  // and events at a lane's exact time but filed with emplace() go to the
  // heap, so equal times meet across lanes and heap. The 10 ms lane holds
  // thousands of events, so its ring grows and wraps many times.
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  constexpr std::array<Time, 5> kDelays{0, microseconds(5), milliseconds(10),
                                        milliseconds(1), milliseconds(2)};
  Xoshiro256 rng(11);
  EventQueue q;
  std::set<Key> ref;
  std::set<std::uint64_t> heap_filed;  // seqs the heap must hold
  Time now = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint32_t> detached;
  std::size_t lane_filed = 0, served = 0;

  const auto file = [&](Event& e, Time t, std::uint64_t tie, std::uint64_t s,
                        bool heap) {
    e.msg.a = static_cast<std::int64_t>(s);
    e.msg.b = static_cast<std::int64_t>(tie);
    ref.emplace(t, tie, s);
    if (heap) {
      heap_filed.insert(s);
    } else {
      ++lane_filed;
    }
  };
  const auto file_after = [&](std::size_t d) {
    const std::uint64_t s = seq++;
    file(q.emplace_after(now, kDelays[d], s, 0, Event::Kind::kWake),
         now + kDelays[d], 0, s, d == 4);
  };
  const auto check_front = [&] {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.heap_size(), heap_filed.size());
    ASSERT_EQ(q.empty(), ref.empty());
    if (ref.empty()) return;
    const auto& [t, tie, s] = *ref.begin();
    ASSERT_EQ(q.peek_time(), t);
    ASSERT_EQ(q.top().msg.a, static_cast<std::int64_t>(s));
    ASSERT_EQ(q.top().msg.b, static_cast<std::int64_t>(tie));
  };
  // Takes the reference's front off the model; returns its seq.
  const auto serve = [&] {
    const auto [t, tie, s] = *ref.begin();
    ref.erase(ref.begin());
    heap_filed.erase(s);
    now = t;
    ++served;
    return static_cast<std::int64_t>(s);
  };

  for (std::size_t d = 0; d < 4; ++d) file_after(d);  // claims the lanes
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t r = rng.below(100);
    if (r < 45) {
      file_after(rng.below(kDelays.size()));
    } else if (r < 57) {
      // A jittered arrival, one in four at exactly a lane's time.
      const Time t = rng.below(4) == 0
                         ? now + kDelays[rng.below(2)]
                         : now + microseconds(20) + static_cast<Time>(rng.below(4000));
      const std::uint64_t s = seq++;
      file(q.emplace(t, 0, s, 0, Event::Kind::kArrival), t, 0, s, true);
    } else if (r < 60) {
      // A tie-shuffled event at a lane's time: only the heap may hold it.
      const Time t = now + kDelays[rng.below(kDelays.size())];
      const std::uint64_t tie = 1 + rng.below(1000);
      const std::uint64_t s = seq++;
      file(q.emplace(t, tie, s, 0, Event::Kind::kWake), t, tie, s, true);
    } else if (!ref.empty()) {
      check_front();
      const std::int64_t s = serve();
      switch (rng.below(3)) {
        case 0:
          q.drop_top();
          break;
        case 1:
          ASSERT_EQ(q.pop().msg.a, s);
          break;
        default:
          // An inbox keeps the slot a while, then hands it back.
          detached.push_back(q.detach_top());
          if (detached.size() > 8) {
            q.release(detached.front());
            detached.erase(detached.begin());
          }
      }
    }
    if (op % 64 == 0) check_front();
  }
  while (!ref.empty()) {
    check_front();
    serve();
    q.drop_top();
  }
  check_front();
  EXPECT_GT(lane_filed, 50000u);
  EXPECT_GT(served, 100000u);
}

TEST(EventQueueDeathTest, LaneRefusesAnEventAheadOfItsTail) {
  // A lane is sorted because its caller's clock never goes back; a caller
  // whose clock did would silently misorder the run, so the lane aborts.
  EventQueue q;
  q.emplace_after(100, milliseconds(1), 0, 0, Event::Kind::kWake);
  EXPECT_DEATH(q.emplace_after(99, milliseconds(1), 1, 0, Event::Kind::kWake),
               "key order");
}

TEST(EventQueue, MemoryBytesCountsTheLaneRings) {
  // One delay's events fill a ring of 24-byte entries beside the 64-byte
  // slots; the heap's 32-byte entries stay unallocated.
  constexpr std::size_t kEvents = 4000;
  EventQueue q;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    q.emplace_after(static_cast<Time>(i), milliseconds(10), i, 0,
                    Event::Kind::kArrival);
  }
  EXPECT_EQ(q.heap_size(), 0u);
  EXPECT_GE(q.memory_bytes(), kEvents * (sizeof(Event) + 24));
  while (!q.empty()) q.drop_top();
  EXPECT_GE(q.memory_bytes(), kEvents * (sizeof(Event) + 24));  // never shrinks
}

TEST(EventQueue, FreedSlotsAreReusedLastInFirstOut) {
  // The free list runs through Event::next: the most recently released slot
  // is the next one filled, from the heap and the lanes alike.
  EventQueue q;
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 8; ++i) {
    q.emplace_after(0, static_cast<Time>(i % 2), i, 0, Event::Kind::kWake);
  }
  while (!q.empty()) slots.push_back(q.detach_top());
  for (const std::uint32_t s : slots) q.release(s);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Event& e = i % 3 == 0
                   ? q.emplace(5, 0, 100 + i, 0, Event::Kind::kWake)
                   : q.emplace_after(5, 0, 100 + i, 0, Event::Kind::kWake);
    EXPECT_EQ(&e, &q.slot(slots[slots.size() - 1 - i])) << "fill " << i;
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

/// Sends a scripted list of (delay-ignored) messages from on_start, and
/// records when each reply arrives.
class Starter : public Actor {
 public:
  std::vector<Message> to_send;
  int dst = 1;
  std::vector<std::pair<Time, int>> replies;  ///< (arrival, type)

 protected:
  void on_start() override {
    for (auto& m : to_send) send(dst, std::move(m));
    to_send.clear();
  }
  void on_message(Message m) override { replies.emplace_back(now(), m.type); }
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
  s->to_send.emplace_back(5);  // a = 0: a zero-length compute on delivery
  auto r = std::make_unique<Recorder>();
  r->compute_on_type = 5;
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  const auto result = engine.run();
  EXPECT_TRUE(result.quiesced);
  ASSERT_EQ(recorder->deliveries.size(), 1u);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(10));
  // The handling cost holds the receiver for 3 us after the delivery, so
  // even an empty compute span ends only then.
  EXPECT_EQ(recorder->compute_done_at, std::vector<Time>{microseconds(13)});
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
  EXPECT_EQ(engine.tally().queue_delay_samples, 2u);
  EXPECT_EQ(engine.tally().queue_delay_max, microseconds(3));
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
  auto* starter = s.get();
  auto r = std::make_unique<Recorder>();
  r->reply_to_type = 4;
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  // One type-99 reply, recorded by the sender one round trip after its send.
  ASSERT_EQ(starter->replies.size(), 1u);
  EXPECT_EQ(starter->replies[0].second, 99);
  EXPECT_EQ(starter->replies[0].first, microseconds(20));
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
  for (Time t : engine.tally().busy) total += t;
  EXPECT_EQ(total, milliseconds(3));
}

// ------------------------------------------------- slot-resident inboxes ---

/// A payload that carries a marker and counts its own destruction.
struct MarkedPayload : MsgPayload {
  MarkedPayload(std::int64_t m, double units, int* destroyed)
      : marker(m), units_(units), destroyed_(destroyed) {}
  ~MarkedPayload() override {
    if (destroyed_ != nullptr) ++*destroyed_;
  }
  double amount() const override { return units_; }
  std::int64_t marker;

 private:
  double units_;
  int* destroyed_;
};

/// Sends one marked payload to `dst` every `gap`, `count` in total.
class Drip : public Actor {
 public:
  Drip(int dst, int count, Time gap) : dst_(dst), count_(count), gap_(gap) {}

 protected:
  void on_start() override { set_timer(0, 0); }
  void on_timer(std::int64_t) override {
    Message m(1, sent_);
    m.payload = std::make_unique<MarkedPayload>(1000 + sent_, 1.0, nullptr);
    send(dst_, std::move(m));
    if (++sent_ < count_) set_timer(gap_, 0);
  }
  void on_message(Message) override {}

 private:
  int dst_;
  int count_;
  Time gap_;
  int sent_ = 0;
};

/// Bounces a type-2 message back and forth with `partner` for `hops` hops.
class PingPong : public Actor {
 public:
  PingPong(int partner, int hops, bool serve)
      : partner_(partner), hops_(hops), serve_(serve) {}
  int received = 0;

 protected:
  void on_start() override {
    if (serve_) send(partner_, Message(2));
  }
  void on_message(Message) override {
    ++received;
    if (received < hops_) send(partner_, Message(2));
  }

 private:
  int partner_;
  int hops_;
  bool serve_;
};

/// Computes for `busy` from t=0, then records every message it is handed.
class BusyRecorder : public Actor {
 public:
  explicit BusyRecorder(Time busy) : busy_(busy) {}
  struct Got {
    Time at;
    std::int64_t a;
    std::int64_t marker;  ///< -1 when the message had no payload
  };
  std::vector<Got> got;
  std::vector<int> peers_down;

 protected:
  void on_start() override { start_compute(busy_); }
  void on_message(Message m) override {
    const auto* p = static_cast<const MarkedPayload*>(m.payload.get());
    got.push_back({now(), m.a, p != nullptr ? p->marker : -1});
  }
  void on_peer_down(int peer) override { peers_down.push_back(peer); }

 private:
  Time busy_;
};

TEST(Engine, InboxKeepsArrivalOrderWhileSlotsRecycle) {
  // A busy actor's inbox lives in the event slab: 64 payload messages sit
  // in their slots while a ping-pong pair churns the freelist around them.
  // Every message must come out in arrival order with its payload intact —
  // a slot freed early would be recycled and overwritten by the pair.
  Engine engine(zero_jitter(), 1);
  auto busy = std::make_unique<BusyRecorder>(milliseconds(5));
  BusyRecorder* rec = busy.get();
  engine.add_actor(std::move(busy));                                   // 0
  engine.add_actor(std::make_unique<Drip>(0, 64, microseconds(20)));   // 1
  auto ping = std::make_unique<PingPong>(3, 200, true);
  auto pong = std::make_unique<PingPong>(2, 200, false);
  PingPong* pi = ping.get();
  PingPong* po = pong.get();
  engine.add_actor(std::move(ping));                                   // 2
  engine.add_actor(std::move(pong));                                   // 3
  const auto result = engine.run();
  EXPECT_TRUE(result.quiesced);
  // The pair finished its whole exchange while the inbox was still full.
  EXPECT_EQ(pi->received + po->received, 399);
  ASSERT_EQ(rec->got.size(), 64u);
  for (std::size_t i = 0; i < rec->got.size(); ++i) {
    EXPECT_EQ(rec->got[i].a, static_cast<std::int64_t>(i));
    EXPECT_EQ(rec->got[i].marker, 1000 + static_cast<std::int64_t>(i));
    EXPECT_GE(rec->got[i].at, milliseconds(5));  // all waited for the compute
  }
}

TEST(Engine, CrashDestroysQueuedInboxAndAccountsItsPayloads) {
  // The crash-time inbox sweep: the victim is mid-compute with two payload
  // messages (5 and 7 units) and one control message queued. None may be
  // delivered, both payloads must be charged to the work-lost ledger and
  // destroyed, and the survivors must hear of the crash.
  int destroyed = 0;
  class Feeder : public Actor {
   public:
    explicit Feeder(int* destroyed) : destroyed_(destroyed) {}
    std::vector<int> peers_down;

   protected:
    void on_start() override {
      Message five(1, 5);
      five.payload = std::make_unique<MarkedPayload>(5, 5.0, destroyed_);
      send(0, std::move(five));
      Message seven(1, 7);
      seven.payload = std::make_unique<MarkedPayload>(7, 7.0, destroyed_);
      send(0, std::move(seven));
      send(0, Message(3));  // control message, no payload
    }
    void on_message(Message) override {}
    void on_peer_down(int peer) override { peers_down.push_back(peer); }

   private:
    int* destroyed_;
  };
  Engine engine(zero_jitter(), 1);
  auto victim = std::make_unique<BusyRecorder>(milliseconds(2));
  BusyRecorder* v = victim.get();
  auto feeder = std::make_unique<Feeder>(&destroyed);
  Feeder* f = feeder.get();
  auto bystander = std::make_unique<BusyRecorder>(0);
  BusyRecorder* b = bystander.get();
  engine.add_actor(std::move(victim));     // 0
  engine.add_actor(std::move(feeder));     // 1
  engine.add_actor(std::move(bystander));  // 2
  FaultPlan plan;
  plan.add_crash(0, milliseconds(1));  // the messages arrived at 10 us
  plan.detection_delay = microseconds(50);
  engine.set_faults(plan);
  const auto result = engine.run();
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(engine.tally().crashes, 1u);
  EXPECT_TRUE(v->got.empty());
  EXPECT_DOUBLE_EQ(engine.tally().work_lost_units, 12.0);
  EXPECT_EQ(destroyed, 2);  // before the engine (and its slab) goes away
  EXPECT_EQ(f->peers_down, std::vector<int>{0});
  EXPECT_EQ(b->peers_down, std::vector<int>{0});
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
