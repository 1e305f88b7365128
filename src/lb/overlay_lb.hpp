// The paper's contribution: overlay-centric dynamic load balancing.
//
// Peers are organised in a tree overlay (TD / TR, see overlay::TreeOverlay);
// BTD additionally lets every idle peer ask one random bridge partner in
// parallel with the tree protocol. Protocol summary (paper §II):
//
//  Setup      — subtree sizes are computed by a distributed converge-cast
//               (kSizeUp to the root), then announced downwards (kSizeDown,
//               which also tells each peer its parent's size and acts as the
//               start signal). The root then begins processing the whole
//               problem.
//  Idle peer  — requests children first, sequentially, in uniformly random
//               order, skipping children whose own upward request is pending
//               here; children answer immediately (kWork or kNoWork). Only
//               when *all* children have requested upwards does the peer
//               send its single upward request — which therefore doubles as
//               the "my entire subtree is finished" signal. In BTD mode an
//               asynchronous bridge request is additionally sent to one
//               random peer per idle episode.
//  Serving    — a peer holding work answers a child's upward request with a
//               T_child/T_self share, a parent's downward request with
//               (T_parent - T_self)/T_parent, and a bridge request with
//               T_req/(T_self + T_req) (subtree-proportional policy; the
//               steal-half policy used for the paper's Fig. 2 comparison
//               replaces every fraction by 1/2). Requests that cannot be
//               served yet stay pending; "idle nodes should not be selfish":
//               the moment a pending peer acquires work it serves all of its
//               own pending requesters before continuing.
//  Termination— pure tree mode: the root terminates when it is idle and all
//               children have upward requests pending. Bridge mode: upward
//               requests carry aggregated per-subtree bridge-transfer
//               counters; when the sums balance, the root runs confirmation
//               waves down the tree (kProbe/kProbeAck) and terminates after
//               two consecutive clean waves with identical, balanced
//               counters — our realisation of the paper's "aggregated work
//               request messages". The rule itself (Mattern's counter
//               stability) lives in counter_wave.hpp, shared with every
//               other wave-based path below.
//
// Fault tolerance (config.fault_tolerant, set by the driver iff a FaultPlan
// is enabled; a fault-free run never takes any of these paths):
//
//  Links may drop or duplicate control messages, and peers may crash. The
//  protocol recovers with
//   * setup retransmission — kSizeUp is re-sent until the start signal
//     (kSizeDown) arrives; parents treat duplicates as refreshes;
//   * request timeouts — an unanswered kReqDown counts as kNoWork after
//     config.request_timeout;
//   * lease refresh — an idle peer re-sends its upward request every
//     config.lease_interval so a lost subtree-finished signal cannot hang
//     the run;
//   * re-parenting — every survivor deterministically re-attaches to its
//     nearest live *static* ancestor when a crash is announced; because all
//     survivors learn of a crash simultaneously and apply the same rule,
//     parent/child views stay consistent without a repair handshake.
//     Adopted children start out non-pending, which blocks termination until
//     they re-request upwards;
//   * wave-confirmed termination — the counter rule of counter_wave.hpp
//     over the *total* work-transfer counters (all serves, not just
//     bridges) and the crash epoch; a wave that met a crash the root has
//     not heard of yet is not quiet, and the confirming wave starts one
//     lease after the first. The lease exceeds the maximum message
//     lifetime, so any transfer in flight during one wave lands — and bumps
//     a counter — before the next wave polls its receiver. Work bounced off
//     a crashed peer re-enters through on_work like any other transfer.
//
// Elastic membership (config.churn, set by the driver iff a ChurnPlan is
// enabled; churn-free runs never take any of these paths — simulator
// timelines stay byte-identical):
//
//  Join  — a dormant peer sends kJoinReq towards the root; each member
//    either adopts it (fewer than join_degree children) or forwards the
//    request to a child chosen by a BON-style weighted coin favouring light
//    subtrees. The acceptor's kJoinAccept carries its post-adoption subtree
//    size; size deltas (+weight) ride kSizeDelta up the dynamic ancestor
//    path instead of a full converge-cast refresh.
//  Leave — a member (never the root) drains its deque to the parent as a
//    counted, bridge-flagged transfer, rewires each child to the parent
//    (kRewire; children re-send kSizeUp and any pending upward request),
//    then hands the parent a kLeave whose payload lists the transferred
//    child links and the leaver's final transfer counters. The parent keeps
//    those counters as a *phantom child*: termination probes visit phantoms
//    like children (the departed peer answers with its true counters), so
//    Mattern's counter rule still sees every transfer the leaver ever made.
//    Probes additionally sum membership events into the wave's reading, so
//    the counter rule (counter_wave.hpp) needs two clean waves that agree on
//    that sum: a join or leave between the waves — whose handover traffic
//    could otherwise race the counters — forces another wave pair.
// Multi-job service mode (config.service, set by src/svc; single-job runs
// never take any of these paths — simulator timelines stay byte-identical):
//
//  A JobGate actor (id == fleet size, outside the tree) streams jobs into
//  the root via kJobInject; every peer's work slot holds a lb::JobBag, so
//  each kWork transfer is a single-job piece tagged with its id (field c).
//  The root starts workless, termination is suppressed until the gate's
//  kSvcShutdown, and per-job completion is detected by root-led accounting
//  waves (kJobProbe/kJobProbeAck, always recursing — busy peers answer too)
//  that aggregate each job's {sent, recv, holds} over the tree: the counter
//  rule of counter_wave.hpp runs once per open job, with zero holdings as
//  the job's quiet condition, so a job is done after two consecutive waves
//  agree on balanced counters and nobody holds any of it. Job waves and
//  kProbe waves share one per-node record and one fan-out. Completions go
//  back to the gate as kJobDone; after shutdown the classic single-job
//  termination machinery runs unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lb/counter_wave.hpp"
#include "lb/messages.hpp"
#include "lb/peer_base.hpp"
#include "overlay/tree_overlay.hpp"

namespace olb::lb {

class JobBag;

enum class SplitPolicy {
  kSubtreeProportional,  ///< the paper's overlay-dependent policy
  kHalf,                 ///< classical steal-half (Fig. 2 baseline)
  kFixedUnits,           ///< steal-k (the steal-1/steal-2 of Dinan et al.)
};

/// One scheduled membership change. Joins name a peer >= the initial member
/// count; leaves name a member (never the root). The plan is part of the
/// run configuration, so churn — like fault injection — is a deterministic,
/// replayable function of the config, not an external stimulus.
struct ChurnEvent {
  sim::Time time = 0;
  int peer = -1;
  bool join = true;  ///< false = graceful leave
};

/// Elastic-membership schedule. Disabled (the default) means the classic
/// fixed-n run: every peer is an initial member and no membership path is
/// ever taken, keeping zero-churn simulator timelines byte-identical.
struct ChurnPlan {
  /// Members at t=0; peers [initial_peers, n) start dormant and only
  /// activate at their scheduled join. 0 = everyone starts in (disabled).
  int initial_peers = 0;
  std::vector<ChurnEvent> events;

  bool enabled() const { return initial_peers > 0 || !events.empty(); }
};

struct OverlayConfig {
  PeerConfig peer;
  bool use_bridges = false;  ///< BTD when true, TD/TR when false
  SplitPolicy split = SplitPolicy::kSubtreeProportional;
  std::uint64_t fixed_units = 1;  ///< the k of SplitPolicy::kFixedUnits
  /// Backoff before re-running the downward phase when every non-pending
  /// child transiently answered "no work".
  sim::Time retry_delay = sim::microseconds(100);
  /// How long an unanswered bridge request is left parked before the peer
  /// abandons it and samples a new random partner. Re-picking keeps idle
  /// peers probing (like RWS) while the pacing bounds stale-service churn.
  sim::Time bridge_patience = sim::microseconds(300);
  /// Capacity-aware extension (the paper's stated future work): the
  /// converge-cast sums per-peer *capacity weights* instead of counting
  /// peers, so on heterogeneous hardware the proportional policy sends work
  /// where the compute power actually is. Weights are per-peer constructor
  /// arguments; this flag only disables the homogeneous-size sanity check.
  bool capacity_weighted = false;
  /// Conformance-harness bug plant: added to every computed split fraction
  /// *after* clamping, so served shares can exceed 1 — exactly the
  /// off-by-one-ish bug the split-fraction oracle must catch. 0 disables.
  double planted_split_bias = 0.0;

  // --- elastic membership (driver sets these iff a ChurnPlan is enabled;
  // churn and fault injection are mutually exclusive — see
  // lb::unsupported_reason) ---
  ChurnPlan churn;
  /// A member with fewer than this many children accepts a join in place;
  /// otherwise it forwards the request to a child picked by a BON-style
  /// weighted coin (lighter subtrees preferred). The driver sets it from
  /// RunConfig::dmax so joined peers respect the same degree bound as TD.
  int join_degree = 3;

  // --- multi-job service mode (src/svc sets these; a single-job run leaves
  // it disabled and never takes any service path, keeping its simulator
  // timeline byte-identical). Mutually exclusive with faults and churn. ---
  struct ServiceMode {
    bool enabled = false;
    /// The job gate's actor id (== fleet size: peers are [0, gate), the
    /// gate rides one past them). Bridge sampling excludes it.
    int gate = -1;
    /// Cadence of the root's per-job accounting waves.
    sim::Time wave_interval = sim::milliseconds(2);
  };
  ServiceMode service;

  // --- fault tolerance (driver sets these iff a FaultPlan is enabled) ---
  bool fault_tolerant = false;
  /// An unanswered kReqDown is treated as kNoWork after this long.
  sim::Time request_timeout = sim::milliseconds(1);
  /// Cadence of setup retransmits, upward-request refreshes and root
  /// re-probes. Must exceed twice the maximum one-way message latency (the
  /// driver derives both timeouts from the network model) — the termination
  /// argument needs every in-flight transfer to land between waves.
  sim::Time lease_interval = sim::milliseconds(2);
};

class OverlayPeer final : public PeerBase {
 public:
  /// `tree` and `config` are shared by the whole fleet (one immutable copy
  /// each, however many peers). `initial_work` must be non-null exactly for
  /// the overlay root (peer 0). `capacity_weight` is this peer's logical
  /// compute power (1 for homogeneous clusters; scale by relative speed in
  /// heterogeneous ones).
  OverlayPeer(std::shared_ptr<const overlay::TreeOverlay> tree,
              std::shared_ptr<const OverlayConfig> config,
              std::unique_ptr<Work> initial_work, std::uint64_t capacity_weight = 1);

  // --- post-run inspection ---
  /// Membership events (joins accepted + leaves absorbed) witnessed here.
  std::uint64_t member_events() const {
    return churn_ != nullptr ? churn_->member_events : 0;
  }

  StateTap state_tap() const override;

 protected:
  void on_start() override;
  void on_message(sim::Message m) override;
  void on_timer(std::int64_t tag) override;
  void on_peer_down(int peer) override;
  void became_idle() override;
  void diffuse_bound() override;
  void after_chunk() override;
  /// Adds the root's termination-wave latency histogram (olb_term_wave_ns)
  /// on top of the PeerBase per-peer instruments.
  void on_metrics(metrics::Registry& registry) override;

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// One dynamic child link: the child, its subtree size (learned in the
  /// converge-cast; 0 until reported), whether its upward request is parked
  /// here, and the subtree transfer aggregates (S, R) that request carried.
  /// One flat record per child keeps the serving and termination loops on
  /// one allocation — and leaves, most of any tree, allocate nothing.
  struct Child {
    int id = -1;
    bool pending = false;
    std::uint64_t size = 0;
    std::uint64_t agg_sent = 0;
    std::uint64_t agg_recv = 0;
  };

  /// A bridge request parked until this peer has work to split. The
  /// requester's subtree size is stored in 32 bits (checked on receipt):
  /// these pile up at every peer of a large BTD run.
  struct ParkedBridge {
    int peer = -1;
    std::uint32_t size = 0;  ///< T_peer
  };

  /// A departed child's final transfer counters, kept by its parent so the
  /// subtree aggregates (agg_sent/agg_recv) never lose its contribution.
  /// Phantoms are probed like children (they answer with their live-polled
  /// counters) and receive the termination broadcast, but are never served.
  struct PhantomChild {
    int peer = -1;
    std::pair<std::uint64_t, std::uint64_t> agg{0, 0};  ///< (sent, recv)
  };

  /// Elastic-membership state, allocated iff the config's ChurnPlan is on.
  struct Churn {
    sim::Time join_at = -1;   ///< this peer's scheduled join (dormant peers)
    sim::Time leave_at = -1;  ///< this peer's scheduled leave (members)
    bool leave_pending = false;  ///< leave deferred until the chunk ends
    /// Joins accepted + leaves absorbed here; summed across termination
    /// waves so the root can tell churn happened between two otherwise
    /// clean waves.
    std::uint64_t member_events = 0;
    std::vector<PhantomChild> phantoms;
    /// kJoinReq accepted before this node finished its own converge-cast;
    /// processed in become_ready().
    std::vector<std::pair<int, std::uint64_t>> parked_joins;  ///< (id, weight)
  };

  /// Fault-tolerance state, allocated iff config.fault_tolerant.
  struct FaultTolerance {
    std::vector<char> peer_down;   ///< peers known to have crashed
    int crash_epoch = 0;           ///< == count of set entries in peer_down
    std::int64_t down_req_seq = 0; ///< generation of the kReqDown timeout
  };

  /// Multi-job service-mode state, allocated iff config.service.enabled.
  struct Service {
    /// Per-job transfer counters of THIS peer: job -> (pieces sent,
    /// received). Monotone, like the bridge/ft counters; ordered so wave
    /// payloads are assembled in deterministic job order.
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> counters;
    // wave state (any node)
    WaveNode wave;
    std::map<std::uint64_t, JobStat> table;  ///< subtree aggregate
    // root-only
    bool shutdown = false;  ///< gate declared the stream exhausted
    /// Jobs injected here and not yet confirmed done, each with its own
    /// counter rule. Only injected jobs are eligible: a wave that ran while
    /// an inject was in flight must not declare that job done by absence.
    std::map<std::uint64_t, StableCounters> open;
  };

  /// The root's termination-wave bookkeeping; allocated on the root only,
  /// on first use.
  struct RootTermination {
    StableCounters rule;  ///< Mattern's rule over the kProbe waves
    bool recheck_after_probe = false;
    sim::Time probe_launched_at = 0;
    sim::Time last_wave_end = 0;
    /// Wave-latency histogram (null unless metrics attached).
    metrics::Histogram* m_wave = nullptr;
  };
  RootTermination& root_term();

  bool is_root() const { return id() == tree_->root(); }
  int parent() const { return parent_; }
  std::size_t child_index(int child_id) const;  ///< kNpos if not a child
  bool all_children_pending() const;
  bool locally_quiet() const;  ///< idle, no work, no compute outstanding

  // setup
  void on_size_up(const sim::Message& m);
  void on_size_down(const sim::Message& m);
  void finish_converge_cast();
  void become_ready();

  // idle protocol
  void start_idle_episode();
  void send_bridge_request();
  void arm_retry_timer();
  void start_down_phase();
  void advance_down();
  void maybe_send_up();
  void send_up_request();

  // serving
  void on_req_down(const sim::Message& m);
  void on_req_up(const sim::Message& m);
  void on_req_bridge(const sim::Message& m);
  void on_work(sim::Message m);
  void serve_pending();
  void send_work(int dst, std::unique_ptr<Work> w, int req_type, double fraction);
  void trace_queue_depth();
  double apply_policy(double proportional) const;
  /// Clamps a computed split share into (0, 1]. After crash re-parenting the
  /// subtree aggregates feeding the share can be stale (placeholder sizes,
  /// or my_size_ exceeding a not-yet-refreshed parent_size_), producing
  /// shares <= 0, > 1 or NaN; serving must not stall on them. Emits
  /// kSplitClamp when it fires. `req_type` is the request being served.
  double clamp_fraction(double raw, int req_type);
  /// Applies the conformance-harness bug plant (planted_split_bias) *after*
  /// clamping so the sanitiser cannot mask it; identity when unset.
  double biased(double f) const { return f + config_->planted_split_bias; }
  double fraction_for_child(std::size_t child_idx, int req_type);
  double fraction_for_parent();
  double fraction_for_bridge(std::uint64_t requester_size);

  // bound diffusion
  void handle_piggyback(const sim::Message& m) { note_bound(m.a); }
  void on_bound_msg(const sim::Message& m);

  // fault recovery
  int nearest_live_ancestor(int peer_id) const;
  std::size_t adopt_child(int peer_id, std::uint64_t size_hint);
  void rebuild_children();
  void on_lease_tick();
  /// Whether `anc` is a strict ancestor of `node` in the *static* tree.
  bool is_static_ancestor(int anc, int node) const;

  // elastic membership (every path below is gated on churn_enabled())
  bool churn_enabled() const { return churn_ != nullptr; }
  /// The phantom children kept here (always empty without churn).
  std::span<const PhantomChild> phantoms() const;
  /// Applies a (possibly negative) delta to my_size_ — clamped at the
  /// peer's own weight — and forwards it up the dynamic parent chain, the
  /// incremental replacement for a full converge-cast refresh.
  void apply_size_delta(std::int64_t delta, bool forward_up);
  void on_join_timer();
  void on_join_req(sim::Message m);
  void accept_join(int joiner, std::uint64_t weight);
  void on_join_accept(const sim::Message& m);
  void begin_leave();
  void on_leave(sim::Message m);
  void on_rewire(const sim::Message& m);
  void on_size_delta(const sim::Message& m);
  /// Message dispatch for a peer that already left (phantom duties: forward
  /// strays, answer probes with its true counters, accept kTerminate).
  void departed_dispatch(sim::Message m);
  /// Message dispatch for a not-yet-joined peer.
  void dormant_dispatch(sim::Message m);
  /// Marks any outstanding probe at this node dirty — a work receipt or a
  /// membership event mid-wave must not let that wave read as clean.
  void dirty_outstanding_probe();

  // multi-job service mode (every path below is gated on svc_enabled())
  bool svc_enabled() const { return svc_ != nullptr; }
  /// Peers eligible as bridge partners / tree members: excludes the gate.
  int fleet_size() const {
    return svc_enabled() ? config_->service.gate : num_peers();
  }
  /// The installed JobBag (null when no work). In service mode every
  /// acquire path installs bags only, so the downcast is total.
  JobBag* bag();
  void on_job_inject(sim::Message m);
  void svc_emit_chunks();
  /// Own (sent, recv, holds) per job into svc_table_.
  void svc_fill_own_stats();
  void svc_launch_wave();
  /// Joins job wave `id` (answering `parent`, -1 at the root) with this
  /// peer's own stats and forwards it down.
  void svc_join_wave(std::uint64_t id, int parent);
  void on_job_probe(sim::Message m);
  void on_job_probe_ack(sim::Message m);
  /// Every ack of the job wave is in: reports the subtree table upward, or
  /// at the root judges each open job.
  void svc_reply_wave();
  void svc_finish_wave_at_root();

  // fault recovery state (0 / no-op without fault tolerance)
  int crash_epoch() const { return ft_ != nullptr ? ft_->crash_epoch : 0; }
  bool known_down(int peer) const {
    return ft_ != nullptr && ft_->peer_down[static_cast<std::size_t>(peer)] != 0;
  }

  // termination
  std::uint64_t own_sent() const;
  std::uint64_t own_recv() const;
  std::uint64_t agg_sent() const;
  std::uint64_t agg_recv() const;
  /// This peer's own contribution to a kProbe wave.
  CounterReading own_reading() const {
    return {own_sent(), own_recv(), crash_epoch(), member_events()};
  }
  void check_root_termination();
  /// A child or phantom report changed the root's view: checks for
  /// termination now, or once the probe wave in flight has ended.
  void recheck_root_termination();
  /// Joins subtree wave `id` as `wave` (answering `parent`, -1 at the root)
  /// and forwards a `type` probe to every child and phantom. Returns false
  /// when no ack is due, i.e. this node completes its part at once.
  bool forward_wave(WaveNode& wave, int type, std::uint64_t id, int parent);
  void launch_probe();
  /// Joins kProbe wave `id` with this peer's own reading.
  void join_probe(std::uint64_t id, int parent);
  void on_probe(sim::Message m);
  void on_probe_ack(sim::Message m);
  void send_probe_ack(int dst, std::uint64_t id, bool dirty, const CounterReading& r);
  /// Every ack of the probe wave is in: reports the subtree reading upward,
  /// or at the root judges the wave.
  void reply_probe();
  void finish_probe_at_root();
  void declare_termination();
  void on_terminate();

  sim::Message make_msg(int type, std::int64_t b = 0, std::int64_t c = 0) const {
    sim::Message m(type, bound_, b, c);
    return m;
  }

  // Hot state first: the fields every message handler touches sit together
  // at the front; cold, mode-specific state lives behind the pointers at
  // the end, allocated only when its mode is on (docs/SCALING.md §2).
  std::shared_ptr<const overlay::TreeOverlay> tree_;
  std::shared_ptr<const OverlayConfig> config_;
  std::unique_ptr<Work> initial_work_;
  std::uint64_t weight_ = 1;

  // sizes (learned through the distributed converge-cast) and the dynamic
  // tree position (diverges from tree_ only after crashes and churn)
  std::vector<Child> children_;
  std::uint64_t my_size_ = 0;
  std::uint64_t parent_size_ = 0;
  int sizes_missing_ = 0;
  int parent_ = -1;

  // idle-episode state
  std::int64_t episode_ = 0;
  std::vector<int> down_order_;
  std::size_t down_pos_ = 0;
  int awaiting_child_ = -1;
  int bridge_target_ = -1;
  sim::Time bridge_sent_at_ = 0;
  std::pair<std::uint64_t, std::uint64_t> last_sent_agg_{0, 0};
  bool ready_ = false;
  bool idle_ = false;
  bool up_requested_ = false;
  bool retry_timer_armed_ = false;
  bool member_ = true;  ///< false while dormant and after a graceful leave
  bool probe_dirty_ = false;  ///< the current kProbe wave saw activity here

  // serving state
  std::vector<ParkedBridge> pending_bridges_;

  // transfer counters (monotonic). The ft_ pair counts all work transfers,
  // not just bridges: with unreliable links or churn the pending flags can
  // go stale, so those termination waves count every serve.
  std::uint64_t bridge_sent_ = 0;
  std::uint64_t bridge_recv_ = 0;
  std::uint64_t ft_sent_ = 0;
  std::uint64_t ft_recv_ = 0;

  // kProbe wave state (any node)
  WaveNode probe_;
  CounterReading probe_sum_;  ///< this subtree's reading of the current wave

  // cold, mode-specific state (null unless the mode is on / on the root)
  std::unique_ptr<Churn> churn_;
  std::unique_ptr<FaultTolerance> ft_;
  std::unique_ptr<Service> svc_;
  std::unique_ptr<RootTermination> root_;
};

}  // namespace olb::lb
