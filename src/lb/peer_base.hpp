// Common machinery of all load-balancing peers.
//
// A peer owns at most one lb::Work object and processes it in bounded chunks
// (chunk_units application units per compute span) so that protocol messages
// are serviced between chunks — the simulated analogue of a worker that
// polls its MPI channel inside the work loop. Subclasses implement the
// acquisition protocol (who to ask for work, how to answer requests) via the
// became_idle() hook and on_message().
#pragma once

#include <cstdint>
#include <memory>

#include "lb/messages.hpp"
#include "lb/work.hpp"
#include "simnet/engine.hpp"

namespace olb::lb {

struct PeerConfig {
  std::uint64_t chunk_units = 64;  ///< application units per compute span
  bool diffuse_bounds = true;      ///< forward improved bounds to neighbours
  /// Work below this amount is never split: shipping single-digit crumbs
  /// stalls the sender's critical path for a network round-trip that costs
  /// more than the work is worth (every real work-stealing runtime guards
  /// its queue with such a threshold).
  double min_split_amount = 4.0;
};

/// One peer's externally observable protocol state, snapshotted after a run
/// for the conformance oracles (src/check): final-state invariants like
/// "every live peer terminated holding nothing" and "transfers sent ==
/// transfers received" are checked against these instead of re-deriving
/// them from the trace.
struct StateTap {
  int peer = -1;
  bool crashed = false;
  bool departed = false;  ///< left gracefully via the membership protocol
  bool holds_work = false;
  double work_amount = 0;
  bool terminated = false;
  bool computing = false;
  std::uint64_t units_done = 0;
  std::uint64_t transfers_sent = 0;
  std::uint64_t transfers_recv = 0;
  std::uint64_t pending_requests = 0;
  /// Overlay only: the peer's final subtree-size estimate (capacity
  /// weights). At quiescence every size delta has been applied, so the
  /// root's entry must equal the live membership weight — the regression
  /// handle for stale sizes after crashes and churn.
  std::uint64_t subtree_size = 0;
};

/// What one peer reports after a run, the same on every backend;
/// lb::fold_reports turns a run's reports into its metrics. Socket ranks
/// exchange theirs on the wire (runtime/socket_runtime.cpp).
struct PeerReport {
  StateTap tap;
  std::int64_t best_bound = kNoBound;
  std::uint64_t retries = 0;
  /// When this peer declared the run complete; -1 unless it did.
  sim::Time done_time = -1;
};

class PeerBase : public sim::Actor {
 public:
  // --- post-run inspection (harness side) ---
  std::uint64_t units_done() const { return units_done_; }
  std::int64_t best_bound() const { return bound_; }
  bool saw_terminate() const { return terminated_; }
  /// When this peer declared the run complete; -1 unless it is the peer
  /// whose protocol detects termination (the overlay root, the RWS
  /// initiator, the MW master, the AHMW top master).
  sim::Time done_time() const { return done_time_; }
  bool holds_work() const { return work_ != nullptr && !work_->empty(); }
  /// The installed work object, null when none. The service layer downcasts
  /// this to lb::JobBag after a run to harvest per-job tallies.
  const Work* current_work() const { return work_.get(); }
  /// True once the peer completed a graceful leave (elastic membership).
  bool departed() const { return departed_; }
  /// Request retransmissions performed by this peer (fault tolerance).
  std::uint64_t retries() const { return retries_; }

  /// Snapshot for the conformance oracles; subclasses extend it with their
  /// transfer counters and pending-request state.
  virtual StateTap state_tap() const;

  /// This peer's post-run report.
  PeerReport report() const {
    return PeerReport{state_tap(), bound_, retries_, done_time_};
  }

 protected:
  explicit PeerBase(PeerConfig config) : config_(config) {}

  /// Merges `w` into the local work (installing the local bound into it) and
  /// returns true if the peer now holds processable work.
  bool acquire_work(std::unique_ptr<Work> w);

  /// Splits `fraction` off the local work; nullptr if indivisible/absent.
  std::unique_ptr<Work> split_work(double fraction);

  /// Starts (or continues) chunked processing if work is available and no
  /// compute span is outstanding. Safe to call from any handler.
  void continue_processing();

  /// Updates the local bound from a message field; returns true if improved.
  bool note_bound(std::int64_t b);

  /// Called when the peer finishes its work and holds none; implement the
  /// acquisition protocol here.
  virtual void became_idle() = 0;

  /// Called after a chunk during which the local bound improved (either
  /// found locally or merged from received work); diffuse it here.
  virtual void diffuse_bound() {}

  /// Called after every completed chunk, before processing continues or
  /// became_idle() fires. Protocols use it to serve requesters that had to
  /// wait for work to become splittable.
  virtual void after_chunk() {}

  void on_compute_done() final;

  /// Fault injection: releases held work and reports it as lost.
  double on_crashed() override;

  /// Records one request retransmission (counter + kRetry trace event).
  void count_retry(int target, int msg_type, std::int64_t attempt);

  /// Marks this peer terminated and traces it (kTerminated). The declaring
  /// peer stamps done_time_ first.
  void stop() {
    terminated_ = true;
    emit_trace(trace::EventKind::kTerminated);
  }

  /// Live metrics: per-peer queue-depth / in-flight gauges, a units counter,
  /// and the sojourn-time histogram (idle-to-work latency), on top of the
  /// protocol-event counters the Actor base arms.
  void on_metrics(metrics::Registry& registry) override;
  /// Sampled recompute-and-set from state_tap(): gauges can never drift.
  void on_metrics_poll() override;

  const PeerConfig& peer_config() const { return config_; }

  std::unique_ptr<Work> work_;
  std::int64_t bound_ = kNoBound;
  std::int64_t diffused_bound_ = kNoBound;  ///< last value handed to diffuse_bound
  std::uint64_t units_done_ = 0;
  std::uint64_t retries_ = 0;
  sim::Time done_time_ = -1;
  bool terminated_ = false;
  bool departed_ = false;  ///< set by the overlay's graceful-leave path

 private:
  /// Live-metrics instruments on top of the Actor's event counters, held
  /// behind Actor::instruments() (null unless a hub is attached; see
  /// on_metrics). The sojourn clock is gated on that pointer so metrics-off
  /// thread runs never pay the now() syscall in acquire_work or
  /// on_compute_done.
  struct Instruments;
  Instruments* peer_instruments() const;

  void maybe_diffuse();

  PeerConfig config_;
};

}  // namespace olb::lb
