// Shared-memory execution substrate: the protocol actors of src/lb running
// one-per-thread over real work, with sim::Engine's delivery machinery
// replaced by one mutex-guarded mailbox per peer (runtime/mailbox.hpp).
//
// The seam is sim::Transport (simnet/transport.hpp): protocol code calls
// Actor's services exactly as under the simulator, but here
//
//   * now()            is the wall clock (ns since run start),
//   * send()           pushes into the receiver's Mailbox, which wakes the
//                      receiver only when it is asleep,
//   * start_compute()  is pure bookkeeping — the work already burned real
//                      CPU inside Work::step(); the flag makes the peer loop
//                      drain its mailbox before the next chunk, preserving
//                      the simulator's poll-between-chunks semantics,
//   * set_timer()      goes to a thread-local min-heap (timers are always
//                      self-addressed) serviced by the peer's own loop.
//
// Each hook still runs exclusively on the actor's own thread, so protocol
// classes need no locking — the same single-threaded contract the simulator
// gives them.
//
// What ThreadNet does NOT provide: fault injection, heterogeneity speed
// scaling (speed is whatever the hardware does), or determinism — message
// interleavings are real. Runs are checked for protocol invariants instead
// of byte-reproducibility. Tracing IS available via set_tracer() with a
// thread-safe sink (trace::LockedSink): timestamps are wall-clock ns and
// the recorded *stream order* is causal per message (send before deliver),
// which is what the conformance oracles consume.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/mailbox.hpp"
#include "simnet/engine.hpp"

namespace olb::runtime {

class ThreadNet final : public sim::Transport {
 public:
  /// `seed` feeds the per-actor RNG streams with the same derivation the
  /// simulator uses, so seed-dependent protocol choices (random child
  /// order, bridge partners) cover the same space on both backends.
  explicit ThreadNet(std::uint64_t seed) : seed_(seed) {
    time_is_free_ = false;  // now() is a real clock read here
  }

  /// Takes ownership; returns the actor's id (dense, starting at 0).
  /// All actors must be added before run().
  int add_actor(std::unique_ptr<sim::Actor> actor);

  int num_actors() const { return static_cast<int>(hosts_.size()); }
  sim::Actor& actor(int id) { return *hosts_[static_cast<std::size_t>(id)]->actor; }
  const sim::ActorStats& stats(int id) const {
    return hosts_[static_cast<std::size_t>(id)]->actor->stats_;
  }

  /// A peer's thread exits once this returns true for its actor (checked
  /// between handler invocations, on the actor's own thread).
  using ExitPredicate = std::function<bool(const sim::Actor&)>;

  struct RunResult {
    double wall_seconds = 0.0;  ///< start of run() to last thread joined
    bool completed = false;     ///< every peer exited via the predicate
  };

  /// Starts one thread per actor, runs each until `exit_when(actor)` holds
  /// (or `wall_limit` elapses — the watchdog for protocol bugs), joins them
  /// all, then validates that no undelivered message carried work.
  RunResult run(const ExitPredicate& exit_when, sim::Time wall_limit);

  std::uint64_t total_messages() const {
    return total_messages_.load(std::memory_order_relaxed);
  }

  /// Attaches a trace sink (not owned; must outlive run()). The sink is hit
  /// concurrently from every peer thread, so pass a thread-safe one — wrap
  /// anything single-threaded in trace::LockedSink. Call before run().
  void set_tracer(trace::TraceSink* tracer) {
    OLB_CHECK_MSG(!running_, "tracer must be attached before run()");
    tracer_ = tracer;
  }
  /// Sum of a message-type counter over all actors (call after run()).
  std::uint64_t total_sent_of_type(int type) const;

  /// Attaches a live-metrics hub (not owned; must outlive run()). On this
  /// backend the hub's wall-clock sampler thread owns the flush cadence;
  /// run() arms every actor's instruments, registers the net's own (sends,
  /// wake/wake-skip counts, drain-batch sizes), starts the sampler, and
  /// stops it after the join with one final snapshot. Call before run().
  /// nullptr (the default) leaves every instrument pointer unarmed — the
  /// per-send cost is then two predicted branches.
  void set_metrics(metrics::MetricsHub* hub) {
    OLB_CHECK_MSG(!running_, "metrics must be attached before run()");
    metrics_hub_ = hub;
  }

 private:
  /// on_metrics_poll cadence inside peer_loop: every this many loop
  /// iterations (and once before each sleep), so sampling costs no clock
  /// reads and stays off the per-message path.
  static constexpr int kMetricsPollStride = 64;
  struct Timer {
    sim::Time deadline;
    std::int64_t tag;
    bool operator>(const Timer& o) const { return deadline > o.deadline; }
  };

  /// Per-peer execution state. Everything except the mailbox is touched
  /// only by the owning thread.
  struct Host {
    std::unique_ptr<sim::Actor> actor;
    Mailbox mailbox;
    std::vector<Timer> timers;  ///< min-heap; timers are self-addressed
    /// The actor's sends by message type (owner thread only until joined).
    std::vector<std::uint64_t> sent_by_type;
    std::thread thread;

    /// Owner-thread countdown to the next on_metrics_poll (metrics only).
    int metrics_countdown = 0;
  };

  // Transport services (see transport.hpp).
  sim::Time transport_now() const override;
  int transport_num_peers() const override { return num_actors(); }
  trace::TraceSink* transport_tracer() const override { return tracer_; }
  void transport_send(sim::Actor& from, int dst, sim::Message m) override;
  void transport_set_timer(sim::Actor& from, sim::Time delay,
                           std::int64_t tag) override;
  void transport_compute_started(sim::Actor& from, sim::Time duration) override {
    // Nothing to account: the span is CPU time Work::step() already spent,
    // and compute_time was accrued by Actor::start_compute itself.
    (void)from;
    (void)duration;
  }

  void peer_loop(Host& host, const ExitPredicate& exit_when,
                 std::chrono::steady_clock::time_point deadline);
  void dispatch(Host& host, sim::Message m);
  /// Fires every timer whose deadline has passed; returns true if any fired.
  bool fire_due_timers(Host& host);
  /// Wakes every sleeping host so it re-checks the global done count (used
  /// when the last actor terminates).
  void wake_all_hosts();

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::chrono::steady_clock::time_point start_{};
  bool running_ = false;
  std::atomic<std::uint64_t> total_messages_{0};
  /// Hosts whose actor has satisfied the exit predicate; the run ends when
  /// this reaches num_actors() (see peer_loop — a host whose own actor is
  /// done keeps serving its mailbox until then).
  std::atomic<int> hosts_done_{0};
  trace::TraceSink* tracer_ = nullptr;  ///< must be thread-safe (LockedSink)
  // Live metrics (unarmed and cost-free unless set_metrics was called).
  metrics::MetricsHub* metrics_hub_ = nullptr;
  struct NetInstruments {
    metrics::Counter* sends = nullptr;
    metrics::Counter* wakes = nullptr;
    metrics::Counter* wakes_skipped = nullptr;
    metrics::Histogram* drain_batch = nullptr;
  } nm_;
};

}  // namespace olb::runtime
