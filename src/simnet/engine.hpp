// Discrete-event simulation engine with queueing-accurate actors.
//
// Every peer of the simulated cluster is an Actor with single-server FIFO
// semantics: handling a message occupies the actor for
// NetworkConfig::msg_handling_cost, and application compute occupies it for
// the durations the actor requests via start_compute(). Messages that arrive
// while the actor is busy wait in its inbox. At a compute-chunk boundary all
// queued messages are serviced before the next chunk starts — the same
// behaviour as a message-passing worker that polls its channel between work
// chunks. These semantics are what make hot-spot effects (e.g. the
// Master-Worker collapse at high core counts in the paper's Fig. 4) emerge
// from first principles instead of being scripted.
//
// Determinism: all randomness (latency jitter, per-actor RNG streams) is
// derived from the engine seed, and simultaneous events are ordered by a
// global insertion counter, so a run is a pure function of (actors, config,
// seed). Where an event is filed — the queue's heap, or the FIFO lane for
// its delay (timers, and wakes at once or one msg_handling_cost later; see
// event_queue.hpp) — never changes when it is served, and neither does
// whether it holds a slab slot (wakes and lane timers do not).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "metrics/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/faults.hpp"
#include "simnet/message.hpp"
#include "simnet/network.hpp"
#include "simnet/perturb.hpp"
#include "simnet/tally.hpp"
#include "simnet/time.hpp"
#include "simnet/transport.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace olb::runtime {
class Host;  // one actor hosted in real time (src/runtime), befriended below
}

namespace olb::metrics {
class MetricsHub;  // src/metrics/hub.hpp; engine.cpp sees the full type
}

namespace olb::sim {

class Engine;

/// Base class for protocol peers. Subclasses implement the protocol by
/// overriding the on_* hooks and calling send()/start_compute()/set_timer()
/// from inside them. All hooks run with the actor exclusively scheduled
/// (simulator) or on the actor's own thread of control (runtime::Host);
/// either way no locking is ever needed inside a hook.
class Actor {
 public:
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  int id() const { return id_; }

  /// Relative compute speed of this peer (1.0 = nominal). Durations passed
  /// to start_compute() are divided by it — the knob for simulating
  /// heterogeneous hardware. Set before run().
  void set_speed(double speed) {
    OLB_CHECK(speed > 0.0);
    speed_ = speed;
  }
  double speed() const { return speed_; }

  /// True once fault injection has fail-stopped this actor.
  bool crashed() const { return crashed_; }

 protected:
  Actor() = default;

  /// Called once at simulated time 0, before any message delivery.
  virtual void on_start() {}

  /// Called for each delivered application message.
  virtual void on_message(Message m) = 0;

  /// Called when a timer set with set_timer() fires.
  virtual void on_timer(std::int64_t tag) { (void)tag; }

  /// Fault injection: called the instant this actor fail-stops, after its
  /// inbox has been discarded. Must release any held work and return the
  /// application units destroyed with it (for the work-lost ledger). The
  /// actor receives no further hooks after this.
  virtual double on_crashed() { return 0.0; }

  /// Fault injection: failure-detector notification that `peer` crashed,
  /// delivered `FaultPlan::detection_delay` after the crash. Never called
  /// in fault-free runs.
  virtual void on_peer_down(int peer) { (void)peer; }

  /// Called when a compute span started with start_compute() completes and
  /// all messages that arrived during the span have been serviced.
  virtual void on_compute_done() {}

  /// Called once at run start when a metrics hub is attached: create this
  /// actor's instruments from the registry and stash the pointers. The base
  /// implementation arms the protocol-event counters (requests, serves,
  /// declines, retries, idle episodes) that emit_trace derives for every
  /// strategy; overriders must call it.
  virtual void on_metrics(metrics::Registry& registry);

  /// Metrics sampling hook, called on the owning thread (simulator: at every
  /// snapshot flush; thread backend: periodically inside the actor's own
  /// loop and before it sleeps). Recompute-and-set gauges from current state
  /// here — sampled gauges can never drift, unlike incrementally-maintained
  /// ones. Never called unless a hub is attached.
  virtual void on_metrics_poll() {}

  // --- services available inside hooks ---

  Time now() const;
  void send(int dst, Message m);
  /// Occupies this actor for `duration / speed()`; on_compute_done() fires
  /// afterwards. At most one compute span may be outstanding.
  void start_compute(Time duration);
  bool computing() const { return compute_pending_; }
  void set_timer(Time delay, std::int64_t tag);
  Xoshiro256& rng() { return rng_; }
  /// Cluster size (peer ids are dense 0..num_peers()-1 on both backends).
  int num_peers() const;
  /// Records a protocol-level trace event on this actor's track (no-op
  /// unless a tracer is attached to the engine).
  void emit_trace(trace::EventKind kind, int peer = -1, int type = 0,
                  std::int64_t a = 0, std::int64_t b = 0);

  /// The instruments armed by on_metrics; null until a hub attaches.
  metrics::ActorEventCounters* instruments() const { return mcounters_.get(); }
  /// Lets an on_metrics override install an extended instrument struct
  /// before calling its base, which then fills the event counters in place.
  void set_instruments(std::unique_ptr<metrics::ActorEventCounters> i) {
    mcounters_ = std::move(i);
  }

 private:
  friend class Engine;
  friend class olb::runtime::Host;

  /// Attaches this actor to `transport` as peer `id`, with its RNG stream
  /// derived from (seed, id) — the one derivation every backend shares, so
  /// protocol randomness (child order, bridge partners) matches across
  /// backends per (seed, id).
  void bind(Transport& transport, int id, std::uint64_t seed);

  // Field order packs id_ against the flag block: one 8-byte line holds the
  // id plus all four bools instead of two half-empty ones — 8 bytes per
  // actor, which is a whole level of the overlay at 10^6 peers
  // (docs/SCALING.md has the per-peer budget).
  Transport* transport_ = nullptr;
  double speed_ = 1.0;
  Xoshiro256 rng_;

  Time busy_until_ = 0;
  int id_ = -1;
  bool started_ = false;
  bool compute_pending_ = false;
  bool wake_pending_ = false;
  bool crashed_ = false;
  /// Simulator inbox: delivered arrivals stay in their event-slab slots,
  /// linked head to tail through Event::next (kNoSlot when empty). The
  /// real-time backends keep their own mailboxes and never touch these.
  std::uint32_t inbox_head_ = kNoSlot;
  std::uint32_t inbox_tail_ = kNoSlot;
  /// Messages this actor sent (the simulator's per-peer message load; the
  /// real-time backends count sends in a sim::Tally).
  std::uint64_t msgs_sent_ = 0;
  /// Armed by on_metrics, bumped at the emit_trace funnel (see engine.cpp);
  /// null until a hub attaches. Subclasses extend the struct (see
  /// set_instruments), so all of an actor's instruments sit behind this one
  /// pointer instead of inline in every peer.
  std::unique_ptr<metrics::ActorEventCounters> mcounters_;
};

class Engine final : public Transport {
 public:
  Engine(NetworkConfig config, std::uint64_t seed);

  /// Takes ownership; returns the actor's id (dense, starting at id_base —
  /// 0 unless this engine is a shard). All actors must be added before run().
  int add_actor(std::unique_ptr<Actor> actor);

  int num_actors() const { return static_cast<int>(actors_.size()); }
  Actor& actor(int id) { return *local(id); }
  std::uint64_t msgs_sent(int id) const { return local(id)->msgs_sent_; }

  // --- shard support (ShardedEngine, sharded_engine.hpp) ---

  /// Declares this engine shard `shard` of a partition of the global id
  /// space: shard s owns the contiguous ids [bases[s], bases[s + 1]), and
  /// bases.back() is the global peer count. Actor ids, their RNG streams
  /// and transport_num_peers() all use global values, so a shard's actors
  /// are bit-identical to the same actors inside an unsharded engine.
  /// Sends to another shard's peers go to the outbox for that shard instead
  /// of the event queue. Call before add_actor(). The default state (no
  /// partition) means unsharded: every peer is local and num_peers() ==
  /// num_actors().
  void configure_shard(std::vector<int> bases, int shard);
  bool is_local(int id) const {
    return id >= id_base_ && id < id_base_ + num_actors();
  }

  /// Moves the arrivals `source` sent to this shard since the last call
  /// into the event queue, in send order, and empties that outbox. Each
  /// stamps this engine's own insertion sequence, so cross-shard delivery
  /// order is exactly the order of these calls. The sending engine already
  /// counted the messages, so totals summed over shards stay per-message.
  /// Aborts if an arrival would land in this shard's past: conservative
  /// lookahead rules that out (see sharded_engine.hpp).
  void take_arrivals_from(Engine& source);

  /// Earliest arrival time among the sends still waiting in this engine's
  /// outboxes, kTimeMax when they are all empty. Tracked at send time, so
  /// the coordinator can pick the next window base before the arrivals
  /// are handed over.
  Time earliest_outbound() const;

  /// One-shot: queues the start wakes and any fault-plan events. run() calls
  /// it implicitly; the sharded coordinator calls it before its first window
  /// so next_event_time() sees the start wakes when picking the window base.
  void schedule_startup();

  /// Earliest pending event time, kTimeMax when the queue is empty — the
  /// coordinator's window-base input.
  Time next_event_time() const {
    return queue_.empty() ? kTimeMax : queue_.peek_time();
  }

  /// Bytes of heap storage behind the event queue (whose slab also holds
  /// every actor's queued inbox messages) and the cross-shard outboxes.
  std::size_t queue_memory_bytes() const;

  struct RunResult {
    Time end_time = 0;          ///< time of the last processed event
    std::uint64_t events = 0;   ///< events processed
    bool quiesced = false;      ///< event queue drained (natural completion)
  };

  /// Runs until the event queue drains or a limit is hit.
  RunResult run(Time time_limit = kTimeMax,
                std::uint64_t event_limit = ~std::uint64_t{0});

  Time now() const { return now_; }

  /// Installs a fault plan (validated against the actor count, so call
  /// after all actors are added and before run()). A disabled plan is a
  /// no-op: the run stays byte-identical to one that never called this.
  void set_faults(const FaultPlan& plan) {
    OLB_CHECK_MSG(!running_, "faults must be configured before run()");
    injector_.configure(plan, num_actors(), seed_);
    link_faults_on_ = injector_.link_active();
  }

  /// Installs a schedule perturbation (see perturb.hpp): random tie-breaking
  /// among simultaneous events and/or bounded extra latency jitter, driven
  /// by a dedicated RNG stream so the actors' own streams are untouched.
  /// Call before run(). A disabled perturbation (the default) is a strict
  /// no-op: the run stays byte-identical to one that never called this.
  void set_perturbation(const SchedulePerturbation& p) {
    OLB_CHECK_MSG(!running_, "perturbation must be configured before run()");
    if (!p.enabled()) return;
    perturb_ties_ = p.shuffle_ties;
    perturb_jitter_ = p.extra_jitter;
    perturb_rng_ = Xoshiro256(mix64(p.seed ^ 0x70657274ull) ^ mix64(seed_));
  }

  /// Conformance-harness bug plant: silently discards the nth payload-
  /// carrying message instead of delivering it — a "lost transfer" the
  /// oracles must catch. 0 (default) disables. Call before run().
  void set_planted_payload_drop(int nth) {
    OLB_CHECK_MSG(!running_, "bug plants must be configured before run()");
    planted_drop_nth_ = nth;
  }

  /// What this engine counted: its actors' sends, their compute spans, the
  /// inbox queueing delay of application messages and the fault tallies.
  const Tally& tally() const { return tally_; }

  /// Attaches a trace sink (not owned; must outlive run()). nullptr (the
  /// default) disables tracing at the cost of one branch per event site.
  void set_tracer(trace::TraceSink* tracer) { tracer_ = tracer; }
  trace::TraceSink* tracer() const { return tracer_; }

  /// Attaches a live-metrics hub (not owned; must outlive run()). The engine
  /// registers its own instruments, arms every actor's via on_metrics, and
  /// flushes a snapshot whenever simulated time crosses the hub's interval —
  /// so the cadence is deterministic simulated milliseconds. nullptr (the
  /// default) disables metrics and leaves the snapshot deadline at kTimeMax;
  /// metrics only *read* actor state, so runs stay byte-identical with or
  /// without a hub.
  void set_metrics(metrics::MetricsHub* hub);
  metrics::MetricsHub* metrics_hub() const { return metrics_hub_; }

 private:
  friend class Actor;

  /// Maps a global actor id to the owned actor (ids are global everywhere;
  /// only the storage index is shard-relative).
  const std::unique_ptr<Actor>& local(int id) const {
    OLB_CHECK(is_local(id));
    return actors_[static_cast<std::size_t>(id - id_base_)];
  }

  // Transport services (Actor dispatches here; see transport.hpp).
  Time transport_now() const override { return now_; }
  int transport_num_peers() const override {
    return global_peers_ >= 0 ? global_peers_ : num_actors();
  }
  trace::TraceSink* transport_tracer() const override { return tracer_; }
  void transport_send(Actor& from, int dst, Message m) override {
    send_from(from, dst, std::move(m));
  }
  void transport_set_timer(Actor& from, Time delay, std::int64_t tag) override;
  void transport_compute_started(Actor& from, Time duration) override;

  void send_from(Actor& from, int dst, Message m);
  /// Cold continuation of send_from for a destination on another shard.
  void send_remote(Message&& m, Time at);
  void schedule_wake(Actor& a, Time at);
  void service(Actor& a, Time t);
  RunResult run_loop(Time time_limit, std::uint64_t event_limit);
  /// Polls every live actor's gauges, updates the engine's own instruments,
  /// and flushes a snapshot stamped `now_`. Cold path (once per interval).
  void flush_metrics(std::uint64_t events_so_far);

  /// The random tie-break key of the next event when tie shuffling is
  /// active, 0 otherwise (preserving FIFO order). Every event insertion
  /// draws it once, next to stamping the insertion sequence.
  std::uint64_t draw_tie() {
    if (perturb_ties_) [[unlikely]] return perturb_rng_();
    return 0;
  }
  /// Files an event with a body into the queue's heap. Returns the
  /// slab-resident event so callers fill the message in place — no
  /// whole-Event moves on the send path. The reference dies at the next
  /// queue operation.
  Event& emplace_event(Time at, int dst, Event::Kind kind) {
    const std::uint64_t tie = draw_tie();
    return queue_.emplace(at, tie, next_seq_++, dst, kind);
  }
  void push_arrival(Message&& m, Time at);
  /// Moves the oldest inbox message out of its slab slot and frees the
  /// slot. Precondition: the inbox is not empty.
  Message pop_inbox(Actor& a);
  /// Cold continuation of send_from when link faults are enabled: fate
  /// draw, spike accounting, drop/duplicate handling.
  void send_faulty(Actor& from, int dst, Message&& m, Time latency);
  void arrival_at_crashed(Message m);
  void apply_crash(int peer);
  void apply_stall(int peer, Time duration);

  NetworkConfig config_;
  Network network_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Actor>> actors_;
  EventQueue queue_;
  std::uint64_t next_seq_ = 0;
  Tally tally_;
  Time now_ = 0;
  bool running_ = false;
  // Shard state (see configure_shard; inert in unsharded engines).
  int id_base_ = 0;
  int global_peers_ = -1;
  int shard_ = 0;
  std::vector<int> shard_bases_;
  /// A message bound for another shard: the send-side work (stats, latency
  /// draw) is already done; `at` is the arrival time at the destination.
  struct RemoteSend {
    Time at;
    Message msg;  ///< src/dst are global ids
  };
  /// The sends to one other shard since it last took them, in send order,
  /// and the earliest of their arrival times (kTimeMax when empty).
  struct Outbox {
    std::vector<RemoteSend> sends;
    Time earliest = kTimeMax;
  };
  std::vector<Outbox> outboxes_;  ///< indexed by destination shard
  /// One-shot guards: the windowed sharded driver calls run() thousands of
  /// times per simulation, so start wakes and fault-plan events must be
  /// scheduled exactly once, not per call.
  bool startup_scheduled_ = false;
  // Fault injection (inactive by default; every hot-path probe is one
  // predicted-not-taken branch, and zero-fault runs take none of them).
  FaultInjector injector_;
  bool link_faults_on_ = false;
  // Schedule perturbation (off by default; the tie stamp is one
  // predicted-not-taken branch per event, the jitter one per send).
  bool perturb_ties_ = false;
  Time perturb_jitter_ = 0;
  Xoshiro256 perturb_rng_;
  /// Last scheduled arrival per ordered (src, dst) link, indexed
  /// src * num_actors() + dst; allocated lazily on the jittered send path
  /// only, so unperturbed runs never touch it. Keeps extra_jitter from
  /// reordering a link (see send_from).
  std::vector<Time> perturb_link_last_;
  // Conformance-harness bug plant (see set_planted_payload_drop).
  int planted_drop_nth_ = 0;
  int planted_payload_seen_ = 0;
  trace::TraceSink* tracer_ = nullptr;
  // Live metrics: nothing below but metrics_next_ is touched unless a hub is
  // attached, and the run loop reads that one deadline per event.
  metrics::MetricsHub* metrics_hub_ = nullptr;
  Time metrics_next_ = kTimeMax;  ///< next snapshot deadline (simulated)
  struct EngineInstruments {
    metrics::Counter* events = nullptr;
    metrics::Gauge* queue_len = nullptr;
    metrics::Counter* dropped = nullptr;
    metrics::Counter* duplicated = nullptr;
    metrics::Counter* spikes = nullptr;
    metrics::Counter* crashes = nullptr;
    metrics::Gauge* work_lost = nullptr;
  } em_;
  // Deltas since the last flush (the tally holds plain counts; the
  // counters advance by difference at each snapshot).
  std::uint64_t m_last_events_ = 0;
  std::uint64_t m_last_dropped_ = 0;
  std::uint64_t m_last_duplicated_ = 0;
  std::uint64_t m_last_spikes_ = 0;
  std::uint64_t m_last_crashes_ = 0;
};

}  // namespace olb::sim
