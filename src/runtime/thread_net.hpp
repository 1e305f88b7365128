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
//                      CPU inside Work::step(),
//   * set_timer()      goes to the actor's own timer heap.
//
// Each actor lives in a runtime::Host (runtime/host.hpp), which keeps its
// timers and send counts and runs the poll-between-chunks pass; ThreadNet
// adds what is specific to threads: the mailboxes, one thread per peer, the
// count of peers done, and the wake and drain-batch metrics. Each hook
// still runs exclusively on the actor's own thread, so protocol classes
// need no locking — the same single-threaded contract the simulator gives
// them.
//
// What ThreadNet does NOT provide: fault injection, heterogeneity speed
// scaling (speed is whatever the hardware does), or determinism — message
// interleavings are real. Runs are checked for protocol invariants instead
// of byte-reproducibility. Tracing IS available via set_tracer(), which
// makes the sink thread-safe itself (trace::LockedSink): timestamps are
// wall-clock ns, the recorded *stream order* is causal per message (send
// before deliver), which is what the conformance oracles consume, and a
// delivery's inbox wait (kMsgDeliver b) reads 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/host.hpp"
#include "runtime/mailbox.hpp"

namespace olb::runtime {

class ThreadNet final : public sim::Transport {
 public:
  /// `seed` feeds the per-actor RNG streams (sim::Actor::bind).
  explicit ThreadNet(std::uint64_t seed) : seed_(seed) {}

  /// Takes ownership; returns the actor's id (dense, starting at 0).
  /// All actors must be added before run().
  int add_actor(std::unique_ptr<sim::Actor> actor);

  int num_actors() const { return static_cast<int>(peers_.size()); }

  /// Starts one thread per actor, runs each until `exit_when(actor)` holds
  /// (or `wall_limit` elapses — the watchdog for protocol bugs), joins them
  /// all, then validates that no undelivered message carried work.
  RunResult run(const ExitPredicate& exit_when, sim::Time wall_limit);

  /// The hosts' tallies merged: every actor's sends (call after run()).
  sim::Tally tally() const;

  /// Attaches a trace sink (not owned; must outlive run()). Peers emit from
  /// their own threads, so ThreadNet wraps it in a trace::LockedSink, whose
  /// lock also records each send ahead of its delivery. Call before run().
  void set_tracer(trace::TraceSink* tracer) {
    OLB_CHECK_MSG(!running_, "tracer must be attached before run()");
    tracer_ = tracer != nullptr ? std::make_unique<trace::LockedSink>(tracer)
                                : nullptr;
  }

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

  /// One peer's thread state. Everything except the mailbox is touched only
  /// by the owning thread (until it is joined).
  struct Peer {
    explicit Peer(Host h) : host(std::move(h)) {}
    Host host;
    Mailbox mailbox;
    std::thread thread;
    /// Owner-thread countdown to the next on_metrics_poll (metrics only).
    int metrics_countdown = 0;
  };

  Host& host(const sim::Actor& a) {
    return peers_[static_cast<std::size_t>(a.id())]->host;
  }

  // Transport services (see transport.hpp).
  sim::Time transport_now() const override;
  int transport_num_peers() const override { return num_actors(); }
  trace::TraceSink* transport_tracer() const override { return tracer_.get(); }
  void transport_send(sim::Actor& from, int dst, sim::Message m) override;
  void transport_set_timer(sim::Actor& from, sim::Time delay,
                           std::int64_t tag) override {
    host(from).set_timer(delay, tag);
  }

  void peer_loop(Peer& peer, const ExitPredicate& exit_when,
                 std::chrono::steady_clock::time_point deadline);
  /// Wakes every sleeping peer so it re-checks the global done count (used
  /// when the last actor terminates).
  void wake_all_peers();

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::chrono::steady_clock::time_point start_{};
  bool running_ = false;
  /// Peers whose actor has satisfied the exit predicate; the run ends when
  /// this reaches num_actors() (see peer_loop — a peer whose own actor is
  /// done keeps serving its mailbox until then).
  std::atomic<int> peers_done_{0};
  std::unique_ptr<trace::LockedSink> tracer_;  ///< null when not tracing
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
