// Sharded discrete-event simulation: k Engines, conservative lookahead.
//
// One Engine comfortably simulates ~10^3..10^4 peers; the scale ladder in
// the paper's Fig. 5 extension wants 10^5..10^6. ShardedEngine splits the
// peer range into contiguous shards — aligned to cluster boundaries when the
// topology has them — and gives each shard its own Engine and event queue.
// Shards synchronise with the classic conservative-window protocol
// (Chandy/Misra/Bryant flavoured, barrier-stepped):
//
//   T   := min over shards of the earliest pending event time, counting the
//          arrivals still waiting in the outboxes
//   L   := lookahead = the minimum base latency of any cross-shard link
//   each shard takes the arrivals addressed to it out of every outbox,
//   all shards meet, then each runs through the window [T, T + L), i.e.
//   time_limit T + L - 1, repeat
//
// Every engine keeps one outbox per destination shard and tracks the
// earliest arrival in each as it sends, so T is known before any arrival
// is handed over. The meeting point between taking arrivals and running
// keeps the outboxes single-buffered: no shard sends into an outbox while
// its destination is still emptying it.
//
// Safety: a message sent at time t >= T arrives at t + latency >= T + L,
// which is strictly after the window, so handing arrivals over only
// between windows can never place an event in a shard's past. The engines
// assert exactly that (Engine::take_arrivals_from).
//
// When every shard boundary coincides with a cluster boundary, every
// cross-shard link is a cross-cluster link and L is the inter-cluster
// latency (200us under the paper topology — thousands of events per peer
// window at realistic loads). Otherwise L falls back to the intra-cluster
// latency, which lower-bounds every link.
//
// Determinism: within a window shards share nothing, and every shard takes
// its arrivals from the source shards in id order (each outbox a FIFO),
// stamping its own insertion sequence — so the threaded execution is
// bit-identical to running the shards one after another. A run is still a
// pure function of (actors, config, seed, shard count). Each shard's queue
// serves its heap and its constant-delay lanes (event_queue.hpp) in one
// (time, tie, seq) order. Only a shard's own timers and wakes enter its
// lanes, filed a fixed delay after its own clock; handed-over arrivals
// carry jittered times and go to the heap. A shard's clock never goes
// back, across window boundaries too, so its lanes stay sorted and the
// lanes move no event from where the heap alone would serve it.
//
// Threads: the calling thread runs shard 0 and a pool of k - 1 workers runs
// the rest. They step through windows on two atomics, a generation counter
// that starts a window and a pending counter that meets them after the
// hand-over and again at the end. A waiting thread spins while the host
// has a core for every shard and blocks (atomic wait) after a bounded
// spin, or at once when the shards outnumber the cores.
//
// One shard: there is exactly one Engine, configured over the whole peer
// range, and run() forwards to it verbatim, so every simulator run —
// sim_shards 0 or 1, service mode included — takes this one path
// (lb::run_distributed builds no other engine). With k >= 2 the timeline is deterministic but *different*
// (each shard owns a jitter RNG stream), so only schedule-independent
// outputs — e.g. exact UTS unit counts — are comparable across shard
// counts.
//
// Counts: each shard's Engine keeps one sim::Tally; tally() merges them
// once, in shard order, for lb::fold_reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "simnet/engine.hpp"

namespace olb::sim {

class ShardedEngine {
 public:
  /// Splits `num_peers` into (at most) `num_shards` contiguous shards.
  /// When the topology has clusters, shards own whole clusters and the
  /// shard count is clamped to the cluster count; use num_shards() for the
  /// effective value. `threaded` selects the worker-pool execution path
  /// (identical results either way; the serial path exists for tests and
  /// for single-shard runs, which bypass the window loop entirely).
  ShardedEngine(NetworkConfig config, std::uint64_t seed, int num_peers,
                int num_shards, bool threaded = true);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(engines_.size()); }
  Time lookahead() const { return lookahead_; }
  int shard_base(int s) const { return bases_[static_cast<std::size_t>(s)]; }
  int shard_of(int id) const;
  Engine& shard(int s) { return *engines_[static_cast<std::size_t>(s)]; }

  /// Mirrors Engine::add_actor: ids are dense 0..num_peers-1 in add order,
  /// routed to the owning shard. Exactly `num_peers` actors must be added.
  int add_actor(std::unique_ptr<Actor> actor);
  int num_actors() const { return next_id_; }
  Actor& actor(int id) { return owner(id).actor(id); }
  std::uint64_t msgs_sent(int id) const { return owner(id).msgs_sent(id); }

  /// Runs the conservative-window loop until every shard quiesces or a
  /// limit trips. `event_limit` is enforced per window — each shard's
  /// window is capped by the budget remaining at the window barrier, so a
  /// k-shard run can overshoot the limit by at most a factor of k (it is a
  /// runaway backstop, not an exact meter).
  Engine::RunResult run(Time time_limit = kTimeMax,
                        std::uint64_t event_limit = ~std::uint64_t{0});

  /// Number of conservative windows executed so far (1 window == 1 barrier).
  std::uint64_t windows_run() const { return windows_; }

  /// The shards' tallies merged into one (Tally::merge, in shard order):
  /// what lb::fold_reports turns into a run's metrics.
  Tally tally() const;

  // --- single-shard-only features ---
  // Tracing, metrics, faults, perturbation and bug plants all assume one
  // global event order (or per-pair link state sized to the local actor
  // count), so the driver declines them for k >= 2 and forwards them to the
  // one engine otherwise.
  void set_tracer(trace::TraceSink* tracer);
  trace::TraceSink* tracer() const { return engines_[0]->tracer(); }
  void set_metrics(metrics::MetricsHub* hub);
  void set_faults(const FaultPlan& plan);
  void set_perturbation(const SchedulePerturbation& p);
  void set_planted_payload_drop(int nth);

  /// Bytes of heap memory behind the event queues (inboxes included) and
  /// cross-shard outboxes — the simulator's own share of the bytes-per-peer
  /// budget.
  std::size_t queue_memory_bytes() const;

 private:
  Engine& owner(int id) { return *engines_[static_cast<std::size_t>(shard_of(id))]; }
  const Engine& owner(int id) const {
    return *engines_[static_cast<std::size_t>(shard_of(id))];
  }

  /// Shard s takes the arrivals addressed to it from every outbox, source
  /// shards in id order (the deterministic cross-shard FIFO).
  void take_arrivals(int s);

  /// Runs shard s through the current window.
  void run_shard_window(int s);

  /// Threaded mode: shard s's part of one window — take arrivals, meet the
  /// other shards, run, report done. Runs on the calling thread for shard
  /// 0 and on worker s - 1 otherwise.
  void serve_window(int s);
  /// Counts this thread off pending_, waking waiters at the two meeting
  /// points (all arrivals taken, all windows run).
  void arrive();

  void start_workers();
  void stop_workers();

  std::vector<int> bases_;  ///< shard s owns global ids [bases_[s], bases_[s+1])
  Time lookahead_ = 0;
  std::vector<std::unique_ptr<Engine>> engines_;
  int next_id_ = 0;
  std::uint64_t windows_ = 0;
  bool threaded_ = false;
  /// Waiters spin before blocking: only while every shard has a core.
  bool spin_ = false;

  // Window state shared with the workers. The calling thread writes it
  // before it bumps generation_; workers read it after seeing the bump.
  Time window_end_ = 0;
  std::uint64_t window_budget_ = 0;
  bool stopping_ = false;
  std::vector<Engine::RunResult> window_results_;

  /// Bumped once per window (and once to stop the workers).
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  /// Set to 2k per window; each shard counts off once after taking its
  /// arrivals (k left: everyone may run) and once after running (0: done).
  alignas(64) std::atomic<int> pending_{0};

  /// Workers for shards 1..k-1. Declared last: they use every member above,
  /// so those outlive them.
  std::vector<std::thread> workers_;
};

}  // namespace olb::sim
