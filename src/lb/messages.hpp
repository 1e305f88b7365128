// Message vocabulary of the load-balancing protocols.
//
// All protocols share one numbering so the engine's per-type counters are
// comparable across strategies (e.g. "total work requests injected" in the
// paper's Fig. 2 counts kReqDown + kReqUp + kReqBridge + kSteal).
//
// Convention: field `a` of every protocol message carries the sender's best
// known bound (kNoBound when not applicable), implementing the paper's
// piggybacked best-bound diffusion at zero extra message cost. Fields `b`
// and `c` are per-type, documented below.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/counter_wave.hpp"
#include "lb/work.hpp"
#include "simnet/message.hpp"
#include "support/check.hpp"

namespace olb::lb {

enum MsgType : int {
  // --- overlay protocol ---
  kSizeUp = 0,     ///< converge-cast: b = subtree size of sender
  kSizeDown = 1,   ///< b = sender's (the parent's) subtree size; start signal
  kReqDown = 2,    ///< parent asks child for work; c = requester episode
  kReqUp = 3,      ///< child asks parent; b/c = subtree transfer counters
                   ///< sent/recv (bridge transfers on reliable links, every
                   ///< transfer under faults or churn)
  kReqBridge = 4,  ///< bridge request; b = requester's subtree size
  kNoWork = 5,     ///< negative reply to kReqDown; c = echoed episode
  kWork = 6,       ///< work transfer; payload = WorkPayload
  kTerminate = 7,  ///< root-initiated termination broadcast
  kProbe = 8,      ///< termination confirmation wave; b = wave id
  kProbeAck = 9,   ///< reply to kProbe; b = (wave id, membership events,
                   ///< crash epoch, dirty), c = subtree transfer counters
                   ///< sent/recv (pack_probe_ack_b/_c below). Both wave
                   ///< types ride the reliable channel
                   ///< (sim::Message::reliable)
  kBound = 10,     ///< explicit bound diffusion (a = bound)

  // --- random work stealing ---
  kSteal = 11,      ///< steal attempt
  kStealFail = 12,  ///< negative reply to kSteal
  kSignal = 13,     ///< Dijkstra-Scholten completion signal

  // --- master-worker family ---
  kMWRequest = 14,     ///< worker asks the master for work
  kMWCheckpoint = 15,  ///< worker -> master progress update; b = position
  kMWSplitNotify = 16, ///< master -> owner: your interval shrank to b

  // --- fault-tolerant poll termination (RWS/AHMW under fault injection) ---
  kTermProbe = 17,  ///< initiator polls every live peer; b = round
  kTermAck = 18,    ///< reply; b = (round << 1) | passive, c = packed counters

  // --- overlay elastic membership (ChurnPlan-driven join/leave) ---
  kJoinReq = 19,     ///< joining peer -> root, routed down; b = joiner weight,
                     ///< c = joiner id (routing rewrites src, so the id rides
                     ///< in the body)
  kJoinAccept = 20,  ///< acceptor -> joiner; b = acceptor's subtree size
  kLeave = 21,       ///< leaver -> parent; b = leaver weight,
                     ///< payload = LeavePayload (children + drained counters)
  kRewire = 22,      ///< leaver -> each child; b = new parent id,
                     ///< c = new parent's last known subtree size
  kSizeDelta = 23,   ///< incremental subtree-size update up the ancestor
                     ///< path; b = signed delta

  // --- multi-job service layer (src/svc; only service-mode runs send
  // these, so single-job timelines never contain them) ---
  kJobInject = 24,    ///< gate -> root: admit a job into the fleet;
                      ///< b = priority class, c = job id,
                      ///< payload = JobPayload
  kJobDone = 25,      ///< root -> gate: job c fully drained (wave-confirmed)
  kJobProbe = 26,     ///< service accounting wave down the tree;
                      ///< payload = JobProbePayload
  kJobProbeAck = 27,  ///< reply to kJobProbe; payload = JobProbePayload
  kSvcShutdown = 28,  ///< gate -> root: stream exhausted, all jobs resolved —
                      ///< run the normal termination machinery

  kNumMsgTypes = 29,
};

/// Display name of a message type (trace exporters, debug output).
inline const char* msg_type_name(int type) {
  switch (type) {
    case kSizeUp: return "size_up";
    case kSizeDown: return "size_down";
    case kReqDown: return "req_down";
    case kReqUp: return "req_up";
    case kReqBridge: return "req_bridge";
    case kNoWork: return "no_work";
    case kWork: return "work";
    case kTerminate: return "terminate";
    case kProbe: return "probe";
    case kProbeAck: return "probe_ack";
    case kBound: return "bound";
    case kSteal: return "steal";
    case kStealFail: return "steal_fail";
    case kSignal: return "signal";
    case kMWRequest: return "mw_request";
    case kMWCheckpoint: return "mw_checkpoint";
    case kMWSplitNotify: return "mw_split_notify";
    case kTermProbe: return "term_probe";
    case kTermAck: return "term_ack";
    case kJoinReq: return "join_req";
    case kJoinAccept: return "join_accept";
    case kLeave: return "leave";
    case kRewire: return "rewire";
    case kSizeDelta: return "size_delta";
    case kJobInject: return "job_inject";
    case kJobDone: return "job_done";
    case kJobProbe: return "job_probe";
    case kJobProbeAck: return "job_probe_ack";
    case kSvcShutdown: return "svc_shutdown";
    default: return nullptr;
  }
}

/// The work requests among a run's sends — kReqDown + kReqUp + kReqBridge +
/// kSteal + kMWRequest, RunMetrics::work_requests on every backend.
/// `sent_by_type` is indexed by message type and holds all kNumMsgTypes
/// (RunMetrics::sent_by_type does).
inline std::uint64_t work_requests(const std::vector<std::uint64_t>& sent_by_type) {
  return sent_by_type[kReqDown] + sent_by_type[kReqUp] + sent_by_type[kReqBridge] +
         sent_by_type[kSteal] + sent_by_type[kMWRequest];
}

/// Timer tags, namespaced per subsystem (high byte = subsystem) so a timer
/// added to a shared base class — e.g. a future periodic trace-flush in
/// PeerBase — can never alias a protocol timer of a subclass.
enum TimerTag : std::int64_t {
  kOverlayRetryTimer = 0x0101,
  kMwCheckpointTimer = 0x0301,
  kAhmwRetryTimer = 0x0401,

  // --- fault-tolerance timers (armed only when a FaultPlan is enabled; a
  // fault-free run never sets any of them). Several encode a generation
  // counter in the bits above kTimerTagShift so stale timers self-cancel.
  kOverlayReqTimeoutTimer = 0x0102,  ///< kReqDown went unanswered
  kOverlaySetupTimer = 0x0103,       ///< kSizeUp retransmit until ready
  kOverlayLeaseTimer = 0x0104,       ///< root re-probe / peer lease refresh
  kRwsStealTimeoutTimer = 0x0202,    ///< kSteal went unanswered
  kTermPollTimer = 0x0203,           ///< RWS/AHMW initiator poll cadence
  kMwRequestTimeoutTimer = 0x0302,   ///< kMWRequest retransmit
  kAhmwRequestTimeoutTimer = 0x0402, ///< kMWRequest/kSteal retransmit

  // --- elastic-membership timers (armed only when a ChurnPlan is enabled;
  // a churn-free run never sets any of them).
  kOverlayJoinTimer = 0x0105,   ///< dormant peer's scheduled join instant
  kOverlayLeaveTimer = 0x0106,  ///< member's scheduled graceful leave

  // --- service-layer timers (armed only in service mode; single-job runs
  // never set either).
  kOverlayJobWaveTimer = 0x0107,  ///< root's per-job accounting-wave cadence
  kSvcArrivalTimer = 0x0601,      ///< the gate's next scheduled job arrival
};

/// Bits above this shift carry per-timer generation counters.
inline constexpr int kTimerTagShift = 16;
inline constexpr std::int64_t kTimerTagMask = (std::int64_t{1} << kTimerTagShift) - 1;

/// Payload of kLeave: the graceful leaver's handover to its parent — the
/// child links being transferred (with the leaver's bookkeeping for each:
/// last known subtree size, an outstanding-request flag, and the per-child
/// aggregated bridge counters), plus the leaver's own cumulative transfer
/// counters *after* its final drain was sent and counted. The parent keeps
/// those counters as a "phantom child" entry so termination waves and the
/// root's counter gate still see the departed peer's contribution.
struct LeavePayload final : sim::MsgPayload {
  struct ChildLink {
    int peer = -1;
    std::uint64_t size = 1;
    bool pending = false;      ///< leaver owed this child a work reply
    std::uint64_t agg_sent = 0;
    std::uint64_t agg_recv = 0;
  };
  /// A phantom entry the leaver itself was keeping (an earlier departure in
  /// its subtree): ownership transfers to the parent, so every departed
  /// peer always has exactly one live keeper polling it in the waves.
  struct PhantomLink {
    int peer = -1;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
  };
  std::vector<ChildLink> children;
  std::vector<PhantomLink> phantoms;
  std::uint64_t sent = 0;  ///< leaver's own cumulative transfer counters,
  std::uint64_t recv = 0;  ///< post-drain (the drain itself is included)
};

/// Payload of kJobInject: one admitted job entering the fleet. The job id
/// and class ride the payload as well as the message fields so a decoded
/// (wire) message is self-contained.
struct JobPayload final : sim::MsgPayload {
  std::uint64_t job = 0;
  int job_class = 0;  ///< lower = higher priority
  std::unique_ptr<Work> work;

  double amount() const override { return work != nullptr ? work->amount() : 0.0; }
};

/// One job's accounting row in a service wave: the subtree's transfer
/// counters for pieces tagged with this job, plus the work amount still held
/// (milli-units, like the kJob* trace events).
struct JobStat {
  std::uint64_t job = 0;
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::int64_t holds_milli = 0;
};

/// Payload of kJobProbe / kJobProbeAck: the root's per-job accounting wave.
/// Unlike kProbe, a service wave always recurses — busy peers answer too —
/// because it measures *where each job's work is*, not whether the system is
/// quiet. The root applies the counter rule (counter_wave.hpp) per job, with
/// zero holdings as the job's quiet condition.
struct JobProbePayload final : sim::MsgPayload {
  std::uint64_t probe_id = 0;
  std::vector<JobStat> stats;  ///< sorted by job id (map iteration order)
};

/// Packing helpers for kTermAck (poll termination under faults): field b
/// carries (round, passive), field c the sender's cumulative work-transfer
/// counters (32 bits each suffice: counters grow by at most one per
/// transfer and runs are event-capped far below 2^32).
inline std::int64_t pack_term_ack_b(std::uint64_t round, bool passive) {
  return static_cast<std::int64_t>((round << 1) | (passive ? 1u : 0u));
}
inline std::int64_t pack_term_ack_c(std::uint64_t sent, std::uint64_t recv) {
  return static_cast<std::int64_t>((sent << 32) | (recv & 0xffffffffull));
}
inline std::uint64_t term_ack_round(std::int64_t b) {
  return static_cast<std::uint64_t>(b) >> 1;
}
inline bool term_ack_passive(std::int64_t b) { return (b & 1) != 0; }
inline std::uint64_t term_ack_sent(std::int64_t c) {
  return static_cast<std::uint64_t>(c) >> 32;
}
inline std::uint64_t term_ack_recv(std::int64_t c) {
  return static_cast<std::uint64_t>(c) & 0xffffffffull;
}

/// Packing helpers for kProbeAck: one subtree's counter-wave reading
/// (lb::CounterReading in counter_wave.hpp, which states the rule the root
/// applies to it) in two fields, so a wave allocates nothing. Field b holds,
/// from the top bit down, the wave id (32 bits), the membership events
/// summed over the wave (joins accepted + leaves absorbed, 16 bits), the
/// highest crash epoch the wave saw (count of known crashed peers, 15 bits)
/// and dirty (bit 0: some node in the subtree was active). Field c holds
/// the subtree's summed transfer counters (bridge transfers on reliable
/// links, every transfer under faults or churn) like kTermAck's. Packing
/// aborts on a value wider than its field. Every wave and every transfer
/// costs at least one event, and runs are event-capped below 2^32; a run
/// past 2^15 crashes, or 2^16 membership events in one wave, is refused
/// rather than misread.
inline constexpr int kProbeAckEpochBits = 15;
inline constexpr int kProbeAckMemberBits = 16;

inline std::int64_t pack_probe_ack_b(std::uint64_t wave, bool dirty,
                                     const CounterReading& r) {
  OLB_CHECK_MSG(wave >> 32 == 0, "kProbeAck: wave id exceeds 32 bits");
  OLB_CHECK_MSG(r.crash_epoch >= 0 && r.crash_epoch >> kProbeAckEpochBits == 0,
                "kProbeAck: crash epoch exceeds 15 bits");
  OLB_CHECK_MSG(r.member_events >> kProbeAckMemberBits == 0,
                "kProbeAck: membership events exceed 16 bits");
  return static_cast<std::int64_t>(
      (wave << 32) | (r.member_events << (kProbeAckEpochBits + 1)) |
      (static_cast<std::uint64_t>(r.crash_epoch) << 1) | (dirty ? 1u : 0u));
}
inline std::int64_t pack_probe_ack_c(const CounterReading& r) {
  OLB_CHECK_MSG(r.sent >> 32 == 0 && r.recv >> 32 == 0,
                "kProbeAck: a transfer counter exceeds 32 bits");
  return pack_term_ack_c(r.sent, r.recv);
}
inline std::uint64_t probe_ack_wave(std::int64_t b) {
  return static_cast<std::uint64_t>(b) >> 32;
}
inline bool probe_ack_dirty(std::int64_t b) { return (b & 1) != 0; }
inline CounterReading probe_ack_reading(std::int64_t b, std::int64_t c) {
  const auto bits = static_cast<std::uint64_t>(b);
  return {term_ack_sent(c), term_ack_recv(c),
          static_cast<int>((bits >> 1) & ((1u << kProbeAckEpochBits) - 1)),
          (bits >> (kProbeAckEpochBits + 1)) & ((1u << kProbeAckMemberBits) - 1)};
}

}  // namespace olb::lb
