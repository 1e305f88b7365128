// The seam between protocol code and its execution substrate.
//
// Every service an Actor uses from inside its hooks — sending, timers,
// compute spans, the clock, the cluster size — goes through this interface.
// Three implementations exist:
//
//  * sim::Engine (engine.hpp): the discrete-event simulator. Time is
//    simulated, sends become queued arrival events, compute spans advance a
//    virtual busy-clock. Deterministic; reproduces the paper's cluster model.
//  * runtime::ThreadNet (src/runtime): real threads, one per peer. Time is
//    the wall clock, sends push into the receiver's mutex-guarded mailbox,
//    compute spans are the actual CPU time of the application work.
//  * runtime::SocketNet (src/runtime): real processes, one per peer, joined
//    by TCP. Time is the wall clock relative to a bootstrap-synchronised
//    epoch; sends are serialised through the versioned wire codec
//    (runtime/wire.hpp) and delivered by an epoll event loop.
//
// Protocol classes (OverlayPeer and friends) are written once against Actor's
// services and run unmodified on any substrate — the point of the split.
// Methods carry a transport_ prefix so Engine can implement them while
// keeping its richer public API (now(), tracer(), ...) unshadowed. The two
// real-time backends host each actor in a runtime::Host (runtime/host.hpp),
// which keeps the actor's timers, send counts and deliveries the same way
// on both.
//
// ## The actor-hook contract
//
// Each actor gets on_start() exactly once, then an arbitrary interleaving of
// on_message / on_timer / on_compute_done, always on its own logical thread
// of control (no hook ever needs locking). Actors may call send(),
// set_timer() and start_compute() from any hook. Everything a backend must
// do before the first hook or after the last one (SocketNet's bootstrap
// barrier and its socket teardown) stays on the concrete backend, driven by
// its own harness (runtime::run_sockets).
#pragma once

#include <cstdint>

#include "simnet/message.hpp"
#include "simnet/time.hpp"
#include "trace/trace.hpp"

namespace olb::sim {

class Actor;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Current time in nanoseconds (simulated or wall, see above).
  virtual Time transport_now() const = 0;

  /// Number of peers in the cluster (dense ids 0..n-1).
  virtual int transport_num_peers() const = 0;

  /// Trace sink events should go to; nullptr when tracing is off. The
  /// thread backend's peers share one sink through trace::LockedSink.
  virtual trace::TraceSink* transport_tracer() const = 0;

  /// Delivers `m` to `dst`'s inbox/mailbox. Fills in src/dst and updates the
  /// sender's ActorStats.
  virtual void transport_send(Actor& from, int dst, Message m) = 0;

  /// Arranges for `from.on_timer(tag)` after `delay`. Timers are always
  /// self-addressed; both backends deliver them on the actor's own
  /// (simulated or real) execution thread.
  virtual void transport_set_timer(Actor& from, Time delay,
                                   std::int64_t tag) = 0;

  /// Notification that `from` started a compute span of (speed-scaled)
  /// `duration`. The simulator advances the actor's busy-clock and
  /// utilisation histogram here; the real-time backends need no bookkeeping
  /// — the span *is* the CPU time the work already consumed, and
  /// compute_time was accrued by Actor::start_compute itself.
  virtual void transport_compute_started(Actor& from, Time duration) {
    (void)from;
    (void)duration;
  }

  /// Whether reading the clock is effectively free on this substrate. True
  /// for the simulator (now() is a field read); false for the thread
  /// backend, where it is a real clock syscall. Per-chunk bookkeeping that
  /// only feeds reporting (PeerBase::last_active) consults this so the
  /// thread backend's chunk loop stays clock-free.
  bool transport_time_is_free() const { return time_is_free_; }

 protected:
  bool time_is_free_ = true;  ///< cleared by the real-time backends' ctors
};

}  // namespace olb::sim
