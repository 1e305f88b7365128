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
//    the wall clock, sends push into lock-free MPSC mailboxes, compute spans
//    are the actual CPU time of the application work.
//  * runtime::SocketNet (src/runtime): real processes, one per peer, joined
//    by TCP. Time is the wall clock relative to a bootstrap-synchronised
//    epoch; sends are serialised through the versioned wire codec
//    (runtime/wire.hpp) and delivered by an epoll event loop.
//
// Protocol classes (OverlayPeer and friends) are written once against Actor's
// services and run unmodified on any substrate — the point of the split.
// Methods carry a transport_ prefix so Engine can implement them while
// keeping its richer public API (now(), tracer(), ...) unshadowed.
//
// ## Actor/transport lifecycle contract
//
// A transport moves through three explicit stages, driven by its harness
// (sim::Engine::run, runtime::run_threads, runtime::run_sockets):
//
//  1. transport_start() — acquire external resources and rendezvous with
//     the rest of the cluster. After it returns, transport_now(),
//     transport_num_peers() and transport_send() are fully operational.
//     In-process backends need nothing here (the default no-op); SocketNet
//     binds its listener, connects to every peer and runs the bootstrap
//     barrier, so actors on all processes observe time 0 together.
//  2. The run: each actor gets on_start() exactly once, then an arbitrary
//     interleaving of on_message / on_timer / on_compute_done, always on
//     its own logical thread of control (no hook ever needs locking).
//     Actors may call send()/set_timer()/start_compute() from any hook.
//  3. transport_shutdown() — flush and release external resources
//     (SocketNet: drain outbound queues, write the NDJSON trace, close
//     sockets). Idempotent; also invoked by the transport's destructor, so
//     an exceptional exit still releases OS resources. After shutdown no
//     actor hook will run and transport_send() must not be called.
//
// Only SocketNet needs stages 1 and 3, so only its harness
// (runtime::run_sockets) calls the pair; the in-process backends inherit the
// no-ops and their harnesses skip them.
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

  /// Lifecycle stage 1 (see the contract above): acquire external
  /// resources and rendezvous with the cluster. No-op for in-process
  /// backends.
  virtual void transport_start() {}

  /// Lifecycle stage 3: flush and release external resources. Must be
  /// idempotent (destructors call it too). No-op for in-process backends.
  virtual void transport_shutdown() {}

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
  /// utilisation histogram here; the thread backend needs no bookkeeping —
  /// the span *is* the CPU time the work already consumed.
  virtual void transport_compute_started(Actor& from, Time duration) = 0;

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
