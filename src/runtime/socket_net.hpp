// Multi-process execution substrate: one protocol actor per OS process,
// joined by TCP and driven by an epoll event loop.
//
// The seam is the same sim::Transport the simulator and ThreadNet
// implement, so OverlayPeer and friends run here unmodified:
//
//   * now()            is the wall clock (ns) since the bootstrap START
//                      barrier — every process stamps its epoch on the same
//                      barrier, so cross-process timestamps are comparable
//                      up to one loopback one-way latency,
//   * send()           serialises the message through the versioned wire
//                      codec (runtime/wire.hpp, runtime/work_codec.hpp)
//                      onto the per-peer TCP connection; each connection is
//                      FIFO, so per-link ordering matches the other
//                      backends' mailbox semantics,
//   * start_compute()  is pure bookkeeping, exactly as on ThreadNet,
//   * set_timer()      goes to the actor's own timer heap, serviced between
//                      socket polls.
//
// The actor lives in a runtime::Host (runtime/host.hpp), which keeps its
// timers and send counts and runs the poll-between-chunks pass exactly as
// on ThreadNet; SocketNet adds what is specific to sockets: TCP, the
// bootstrap, frames, the pacing of polls while the actor computes, and the
// result exchange. A traced rank stamps each arrival, so its deliveries
// record their inbox wait (kMsgDeliver b).
//
// ## Connection topology
//
// Every rank listens on its address from the shared table; rank r
// *initiates* exactly one connection to every rank < r (lower rank
// listens), so each unordered pair shares one duplex connection and there
// are no simultaneous-connect duplicates. The first frame on an outbound
// connection is kHello (rank + config digest); the accepting side adopts
// the connection for that rank on receipt. Sends to a not-yet-adopted peer
// queue in order and flush on adoption. Only the initiating side
// reconnects after a drop, with bounded exponential backoff; frames not
// yet fully transmitted are retransmitted, frames already on the dead
// socket are lost — exactly the drop/duplication surface the FaultPlan
// models in simulation (see DESIGN.md).
//
// ## Bootstrap (all under Options::bootstrap_timeout)
//
//   1. everyone: bind + listen, connect to all lower ranks, send kHello.
//   2. rank 0: after n-1 hellos, sends each peer kConfig (cluster size,
//      seed, digest, the full address table, the overlay parent array).
//   3. rank != 0: verifies every kConfig field against its own flags
//      (the table is redistributed precisely so that a mismatched launch
//      dies loudly here instead of corrupting a run), replies kReady.
//   4. rank 0: after n-1 readys, stamps its epoch and broadcasts kStart;
//      each receiver stamps its epoch on receipt — the time-0 barrier.
//
// start() runs the bootstrap; run() then hosts the actor until it is done.
// After the run, exchange_results() inverts the fan-in: every rank sends
// rank 0 an opaque result blob (kResult), rank 0 broadcasts the full set
// (kSummary), and every process returns the same by-rank vector — so all
// processes print identical aggregate metrics and the merged B&B incumbent.
// shutdown() flushes what is still queued, writes the trace and closes
// every socket.
//
// What SocketNet does NOT provide: determinism (interleavings are real),
// fault injection (but see the DESIGN.md mapping onto real drops), and
// multi-actor processes — one actor per process, by construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/host.hpp"
#include "runtime/work_codec.hpp"

namespace olb::runtime {

class SocketNet final : public sim::Transport {
 public:
  struct Options {
    int rank = -1;
    std::vector<std::string> peers;  ///< "host:port" per rank, index = rank
    /// Run seed; feeds the local actor's RNG stream (sim::Actor::bind) and
    /// is cross-checked by the bootstrap config frame.
    std::uint64_t seed = 0;
    /// Digest of the run configuration; all ranks must agree (bootstrap
    /// aborts otherwise). Computed by run_sockets from the RunConfig.
    std::uint64_t config_digest = 0;
    /// Locally derived overlay shape (parent per peer, parent[0] == -1);
    /// cross-checked against rank 0's authoritative copy during bootstrap.
    std::vector<int> overlay_parent;
    sim::Time bootstrap_timeout = sim::seconds(30.0);
    /// When non-empty, protocol trace events are recorded and written to
    /// this NDJSON file at shutdown().
    std::string trace_path;
  };

  /// `codec` (not owned; may be null for payload-free protocols) decodes
  /// kWork payload bodies arriving from peers.
  SocketNet(Options options, const WorkCodec* codec);
  ~SocketNet() override;

  /// Installs this process's single actor; its id is Options::rank. Must be
  /// called before start().
  void set_actor(std::unique_ptr<sim::Actor> actor);

  /// Binds, connects and runs the bootstrap barrier: afterwards the clock,
  /// the cluster size and sends are fully operational, and every process
  /// observes time 0 together.
  void start();
  /// Flushes outbound queues (best effort), writes the trace file and
  /// closes every socket. Idempotent; the destructor calls it too, so an
  /// exceptional exit still releases OS resources.
  void shutdown();

  /// Runs the local actor until `exit_when(actor)` holds or `wall_limit`
  /// elapses, then flushes outbound queues (the termination fan-out must
  /// reach the other processes). Call between start() and
  /// exchange_results(). The wall time runs from the start barrier.
  RunResult run(const ExitPredicate& exit_when, sim::Time wall_limit);

  /// Post-run all-gather of opaque per-rank result blobs via rank 0.
  /// Returns the blobs indexed by rank — identical on every process. Late
  /// application messages arriving during the exchange must be payload-free
  /// (control chatter that raced termination) and are dropped.
  std::vector<std::vector<std::uint8_t>> exchange_results(
      std::vector<std::uint8_t> mine);

  int rank() const { return options_.rank; }
  /// The local actor's sends, in all and of one message type (call after
  /// run()).
  std::uint64_t messages_sent() const { return host_->sent(); }
  std::uint64_t sent_of_type(int type) const { return host_->sent_of_type(type); }

 private:
  /// One TCP connection (inbound or outbound, identified or not yet).
  struct Conn {
    int fd = -1;
    int peer = -1;        ///< rank, -1 until the kHello adoption
    bool outbound = false;
    bool connecting = false;  ///< non-blocking connect() still in flight
    std::vector<std::uint8_t> in;  ///< partial-frame receive buffer
  };

  /// Per-rank link state. The send queue belongs to the *rank*, not the
  /// connection, so frames queued before adoption (or across a reconnect)
  /// are preserved in order.
  struct PeerLink {
    Conn* conn = nullptr;  ///< adopted connection, null while down
    std::deque<std::vector<std::uint8_t>> sendq;
    std::size_t front_sent = 0;  ///< bytes of sendq.front() already written
    int attempts = 0;            ///< consecutive failed connects (backoff)
    std::chrono::steady_clock::time_point retry_at{};
    bool retry_pending = false;  ///< reconnect scheduled (outbound links)
  };

  // Transport services (see transport.hpp).
  sim::Time transport_now() const override;
  int transport_num_peers() const override {
    return static_cast<int>(options_.peers.size());
  }
  trace::TraceSink* transport_tracer() const override { return tracer_.get(); }
  void transport_send(sim::Actor& from, int dst, sim::Message m) override;
  void transport_set_timer(sim::Actor& from, sim::Time delay,
                           std::int64_t tag) override {
    (void)from;  // timers are always self-addressed; one actor per process
    host_->set_timer(delay, tag);
  }

  // --- event loop ---
  /// One poll round: flushes writable queues, waits up to `wait` for socket
  /// events (0 = non-blocking), services reads/accepts/connects and due
  /// reconnects. Returns true if any frame or connection event happened.
  bool pump_io(std::chrono::steady_clock::duration wait);
  /// Pumps until `done()` or `deadline`; OLB_CHECK-aborts on timeout with
  /// `what` in the message.
  void pump_until(const std::function<bool()>& done,
                  std::chrono::steady_clock::time_point deadline,
                  const char* what);
  /// Pumps until every send queue is empty (bounded by `deadline`).
  void flush_sends(std::chrono::steady_clock::time_point deadline,
                   const char* what);
  bool sendqs_empty() const;

  // --- connections ---
  void setup_listener();
  void start_connect(int rank);
  void schedule_reconnect(int rank);
  void adopt_connection(Conn* conn, int rank);
  void close_connection(Conn* conn);
  void handle_readable(Conn* conn);
  void handle_writable(Conn* conn);
  void try_flush_link(int rank);
  void update_epoll(Conn* conn);
  void accept_pending();

  // --- frames ---
  void queue_frame(int rank, FrameType type, const WireWriter& body);
  void handle_frame(Conn* conn, FrameType type,
                    const std::uint8_t* body, std::size_t len);
  void handle_config(WireReader& r);
  void handle_app_message(WireReader& r);
  WireWriter make_hello() const;
  WireWriter make_config() const;

  Options options_;
  const WorkCodec* codec_;
  std::optional<Host> host_;  ///< set by set_actor
  std::unique_ptr<trace::VectorTracer> tracer_;  ///< non-null iff trace_path

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  ///< by fd
  std::vector<PeerLink> links_;                           ///< by rank

  // Bootstrap / exchange progress, advanced by handle_frame.
  int hellos_ = 0;
  int readys_ = 0;
  bool config_ok_ = false;
  bool start_seen_ = false;
  bool summary_seen_ = false;
  std::vector<std::vector<std::uint8_t>> result_blobs_;  ///< by rank
  std::vector<bool> result_seen_;

  /// False once the run is over: late kMsg frames must be payload-free.
  bool accept_app_msgs_ = true;

  /// Arrived messages (and self-sends) awaiting the next pass, in order.
  std::vector<sim::Message> inbox_;

  bool started_clock_ = false;
  std::chrono::steady_clock::time_point start_{};
  bool shutdown_done_ = false;
};

}  // namespace olb::runtime
