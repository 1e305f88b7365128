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
//   * set_timer()      goes to a process-local min-heap serviced between
//                      socket polls.
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
// After the run, exchange_results() inverts the fan-in: every rank sends
// rank 0 an opaque result blob (kResult), rank 0 broadcasts the full set
// (kSummary), and every process returns the same by-rank vector — so all
// processes print identical aggregate metrics and the merged B&B incumbent.
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
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/work_codec.hpp"
#include "simnet/engine.hpp"

namespace olb::runtime {

class SocketNet final : public sim::Transport {
 public:
  struct Options {
    int rank = -1;
    std::vector<std::string> peers;  ///< "host:port" per rank, index = rank
    /// Run seed; feeds the local actor's RNG stream (same derivation as the
    /// other backends) and is cross-checked by the bootstrap config frame.
    std::uint64_t seed = 0;
    /// Digest of the run configuration; all ranks must agree (bootstrap
    /// aborts otherwise). Computed by run_sockets from the RunConfig.
    std::uint64_t config_digest = 0;
    /// Locally derived overlay shape (parent per peer, parent[0] == -1);
    /// cross-checked against rank 0's authoritative copy during bootstrap.
    std::vector<int> overlay_parent;
    sim::Time bootstrap_timeout = sim::seconds(30.0);
    /// When non-empty, protocol trace events are recorded and written to
    /// this NDJSON file at transport_shutdown().
    std::string trace_path;
  };

  /// `codec` (not owned; may be null for payload-free protocols) decodes
  /// kWork payload bodies arriving from peers.
  SocketNet(Options options, const WorkCodec* codec);
  ~SocketNet() override;

  /// Installs this process's single actor; its id is Options::rank. Must be
  /// called before transport_start().
  void set_actor(std::unique_ptr<sim::Actor> actor);
  sim::Actor& local_actor() { return *actor_; }
  const sim::ActorStats& stats() const;

  /// Lifecycle (transport.hpp contract): start binds, connects and runs the
  /// bootstrap barrier; shutdown flushes queues, writes the trace file and
  /// closes every socket (idempotent; the destructor calls it too).
  void transport_start() override;
  void transport_shutdown() override;

  using ExitPredicate = std::function<bool(const sim::Actor&)>;

  struct RunResult {
    double wall_seconds = 0.0;  ///< this process, start barrier to exit
    bool completed = false;     ///< exited via the predicate, not the watchdog
  };

  /// Runs the local actor until `exit_when(actor)` holds or `wall_limit`
  /// elapses, then flushes outbound queues (the termination fan-out must
  /// reach the other processes). Call between transport_start() and
  /// exchange_results().
  RunResult run(const ExitPredicate& exit_when, sim::Time wall_limit);

  /// Post-run all-gather of opaque per-rank result blobs via rank 0.
  /// Returns the blobs indexed by rank — identical on every process. Late
  /// application messages arriving during the exchange must be payload-free
  /// (control chatter that raced termination) and are dropped.
  std::vector<std::vector<std::uint8_t>> exchange_results(
      std::vector<std::uint8_t> mine);

  int rank() const { return options_.rank; }
  std::uint64_t messages_sent() const { return stats().msgs_sent; }
  /// The local actor's sends of one message type (call after run()).
  std::uint64_t sent_of_type(int type) const;

 private:
  struct Timer {
    sim::Time deadline;
    std::int64_t tag;
    bool operator>(const Timer& o) const { return deadline > o.deadline; }
  };

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
                           std::int64_t tag) override;
  void transport_compute_started(sim::Actor& from, sim::Time duration) override {
    // As on ThreadNet: the span is CPU time Work::step() already consumed.
    (void)from;
    (void)duration;
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

  // --- local dispatch ---
  void dispatch(sim::Message m);
  bool fire_due_timers();
  sim::Time next_timer_deadline() const;  ///< kNoDeadline when none armed

  static constexpr sim::Time kNoDeadline = -1;

  Options options_;
  const WorkCodec* codec_;
  std::unique_ptr<sim::Actor> actor_;
  std::vector<std::uint64_t> sent_by_type_;  ///< the actor's sends, by type
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

  std::deque<sim::Message> inbox_;
  std::vector<Timer> timers_;  ///< min-heap; timers are self-addressed
  std::uint64_t seq_ = 0;      ///< local message sequence for global ids

  bool started_clock_ = false;
  std::chrono::steady_clock::time_point start_{};
  bool shutdown_done_ = false;
};

}  // namespace olb::runtime
