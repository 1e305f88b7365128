// Structured protocol tracing: every run becomes an explorable timeline.
//
// The simulation engine and the protocol peers emit TraceEvents into a
// TraceSink attached to the engine (none by default — tracing costs one
// predicted-not-taken branch per event site when off). Two sinks are
// provided:
//
//  * VectorTracer — unbounded, for explorers and tests;
//  * RingTracer   — bounded ring that overwrites the oldest events and
//                   counts drops, for always-on tracing of long runs.
//
// Events are plain integers (kind, actor, peer, type, a, b) so a trace is a
// pure function of (actors, config, seed) exactly like the run itself —
// tests assert byte-identical NDJSON across repeated runs. Exporters to
// Chrome/Perfetto JSON and NDJSON live in trace/export.hpp.
//
// Field conventions per kind (a/b are per-kind payloads):
//
//  kind          | actor      | peer      | type       | a            | b
//  --------------+------------+-----------+------------+--------------+---------
//  kMsgSend      | sender     | dst       | msg type   | msg id       | latency
//  kMsgDeliver   | receiver   | src       | msg type   | msg id       | inbox wait (w)
//  kComputeSpan  | actor      | —         | —          | duration     | units
//  kTimerSet     | actor      | —         | —          | tag          | delay
//  kTimerFire    | actor      | —         | —          | tag          | —
//  kActorIdle    | actor      | —         | —          | —            | —
//  kIdleBegin    | peer       | —         | —          | episode      | —
//  kIdleEnd      | peer       | work src  | —          | episode      | —
//  kRequest      | requester  | target    | msg type   | agg sent (+) | agg recv (+)
//  kServe        | server     | requester | msg type   | fraction ppm | amount
//  kNoServe      | server     | requester | msg type   | —            | —
//  kQueueDepth   | peer       | —         | —          | depth        | —
//  kSplitClamp   | server     | —         | msg type   | raw ppm (***)| clamped ppm
//  kProbeWave    | root       | —         | 0/1/2 (*)  | probe id     | —
//  kTerminated   | peer       | —         | —          | —            | —
//  kMsgDrop      | sender     | dst       | msg type   | msg id       | why (**)
//  kMsgDup       | sender     | dst       | msg type   | msg id       | —
//  kPeerCrash    | peer       | —         | —          | work lost    | —
//  kPeerStall    | peer       | —         | —          | duration     | —
//  kReparent     | orphan     | new parent| —          | old parent   | —
//  kRetry        | peer       | target    | msg type   | attempt      | —
//  kMemberJoin   | joiner     | parent    | —          | weight       | —
//  kMemberLeave  | leaver     | parent    | —          | weight       | —
//  kJobSubmit    | gate       | —         | job id     | class        | amount (m)
//  kJobAdmit     | gate       | —         | job id     | class        | amount (m)
//  kJobReject    | gate       | —         | job id     | class        | pending
//  kJobXfer      | sender     | dst       | job id     | amount (m)   | req type
//  kJobMerge     | receiver   | src       | job id     | amount (m)   | bridge flag
//  kJobChunk     | peer       | —         | job id     | units done   | Δamount (m)
//  kJobDone      | gate       | —         | job id     | class        | sojourn ns
//
//  (*) 0 = wave launched, 1 = wave came back clean, 2 = wave came back dirty.
//  (**) 0 = link fault, 1 = destination crashed, 2 = bounce destroyed.
//  (***) raw fraction saturated into [-1000, 1000] before the ppm encoding
//        (stale subtree aggregates can produce absurd magnitudes).
//  (w) 0 on the thread backend, which does not stamp arrivals
//      (runtime/host.hpp); the simulator and traced socket ranks do.
//  (+) only the overlay's upward request (kReqUp) carries the subtree's
//      aggregated transfer counters; other kRequest emissions leave a/b = 0.
//  (m) work amounts in kJob* events travel as milli-units
//      (llround(amount * 1000)) so the events stay all-integer; the job id
//      rides the `type` field (job ids are small sequential integers).
//      Job events are emitted only by service-mode runs (src/svc) — a
//      single-job run never records any of them.
#pragma once

#include <cstdint>
#include <cmath>
#include <mutex>
#include <vector>

#include "simnet/time.hpp"
#include "support/check.hpp"

namespace olb::trace {

enum class EventKind : std::uint8_t {
  // --- engine level ---
  kMsgSend = 0,
  kMsgDeliver,
  kComputeSpan,
  kTimerSet,
  kTimerFire,
  kActorIdle,
  // --- protocol level ---
  kIdleBegin,
  kIdleEnd,
  kRequest,
  kServe,
  kNoServe,
  kQueueDepth,
  kSplitClamp,
  kProbeWave,
  kTerminated,
  // --- fault injection & recovery ---
  kMsgDrop,
  kMsgDup,
  kPeerCrash,
  kPeerStall,
  kReparent,
  kRetry,
  // --- elastic membership ---
  kMemberJoin,
  kMemberLeave,
  // --- multi-job service layer (src/svc) ---
  kJobSubmit,
  kJobAdmit,
  kJobReject,
  kJobXfer,
  kJobMerge,
  kJobChunk,
  kJobDone,
};

inline const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kMsgDeliver: return "msg_deliver";
    case EventKind::kComputeSpan: return "compute";
    case EventKind::kTimerSet: return "timer_set";
    case EventKind::kTimerFire: return "timer_fire";
    case EventKind::kActorIdle: return "actor_idle";
    case EventKind::kIdleBegin: return "idle_begin";
    case EventKind::kIdleEnd: return "idle_end";
    case EventKind::kRequest: return "request";
    case EventKind::kServe: return "serve";
    case EventKind::kNoServe: return "no_serve";
    case EventKind::kQueueDepth: return "queue_depth";
    case EventKind::kSplitClamp: return "split_clamp";
    case EventKind::kProbeWave: return "probe_wave";
    case EventKind::kTerminated: return "terminated";
    case EventKind::kMsgDrop: return "msg_drop";
    case EventKind::kMsgDup: return "msg_dup";
    case EventKind::kPeerCrash: return "peer_crash";
    case EventKind::kPeerStall: return "peer_stall";
    case EventKind::kReparent: return "reparent";
    case EventKind::kRetry: return "retry";
    case EventKind::kMemberJoin: return "member_join";
    case EventKind::kMemberLeave: return "member_leave";
    case EventKind::kJobSubmit: return "job_submit";
    case EventKind::kJobAdmit: return "job_admit";
    case EventKind::kJobReject: return "job_reject";
    case EventKind::kJobXfer: return "job_xfer";
    case EventKind::kJobMerge: return "job_merge";
    case EventKind::kJobChunk: return "job_chunk";
    case EventKind::kJobDone: return "job_done";
  }
  return "?";
}

struct TraceEvent {
  sim::Time time = 0;
  EventKind kind = EventKind::kMsgSend;
  std::int32_t actor = -1;  ///< the track the event belongs to
  std::int32_t peer = -1;   ///< other endpoint, -1 when not applicable
  std::int32_t type = 0;    ///< message type / request kind / wave result
  std::int64_t a = 0;       ///< per-kind payload, see table above
  std::int64_t b = 0;       ///< per-kind payload, see table above
};

/// Served fractions travel as parts-per-million so events stay all-integer
/// (and therefore bit-reproducible across platforms).
inline std::int64_t fraction_ppm(double fraction) {
  return static_cast<std::int64_t>(std::llround(fraction * 1e6));
}

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void record(const TraceEvent& e) = 0;

  /// Events lost to capacity limits (0 for unbounded sinks).
  virtual std::uint64_t dropped() const { return 0; }

  /// The retained events, oldest first.
  virtual std::vector<TraceEvent> snapshot() const = 0;
};

/// Unbounded sink; the default choice for explorers and tests.
class VectorTracer final : public TraceSink {
 public:
  void record(const TraceEvent& e) override { events_.push_back(e); }
  std::vector<TraceEvent> snapshot() const override { return events_; }
  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

/// Bounded ring: keeps the *last* `capacity` events (the interesting tail of
/// a long run) and counts what it had to drop.
class RingTracer final : public TraceSink {
 public:
  explicit RingTracer(std::size_t capacity) : capacity_(capacity) {
    OLB_CHECK(capacity_ > 0);
    events_.reserve(capacity_);
  }

  void record(const TraceEvent& e) override {
    if (events_.size() < capacity_) {
      events_.push_back(e);
      return;
    }
    events_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  std::uint64_t dropped() const override { return dropped_; }

  std::vector<TraceEvent> snapshot() const override {
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out.push_back(events_[(head_ + i) % events_.size()]);
    }
    return out;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< oldest retained event once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

/// Fans every event out to up to two sinks — e.g. the caller's tracer plus
/// the conformance oracles — without either knowing about the other. Either
/// sink may be null. dropped()/snapshot() delegate to the first sink so a
/// TeeSink is a drop-in replacement for it.
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink* first, TraceSink* second) : first_(first), second_(second) {}

  void record(const TraceEvent& e) override {
    if (first_ != nullptr) first_->record(e);
    if (second_ != nullptr) second_->record(e);
  }

  std::uint64_t dropped() const override {
    return first_ != nullptr ? first_->dropped() : 0;
  }

  std::vector<TraceEvent> snapshot() const override {
    return first_ != nullptr ? first_->snapshot() : std::vector<TraceEvent>{};
  }

 private:
  TraceSink* first_;
  TraceSink* second_;
};

/// Mutex adapter making any sink safe for concurrent record() calls — the
/// shared-memory backend's threads all emit into one sink. The lock also
/// serialises each send with its delivery (senders emit kMsgSend *before*
/// the mailbox push), so the recorded stream order is causal: a message's
/// send always precedes its delivery.
class LockedSink final : public TraceSink {
 public:
  explicit LockedSink(TraceSink* inner) : inner_(inner) { OLB_CHECK(inner_ != nullptr); }

  void record(const TraceEvent& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->record(e);
  }

  std::uint64_t dropped() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->dropped();
  }

  std::vector<TraceEvent> snapshot() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->snapshot();
  }

 private:
  mutable std::mutex mu_;
  TraceSink* inner_;
};

/// The one emission point: a null sink (the default) costs a single
/// predicted branch — the fields are plain scalars so the TraceEvent is
/// only materialised on the cold path.
inline void emit(TraceSink* sink, sim::Time time, EventKind kind,
                 std::int32_t actor, std::int32_t peer = -1,
                 std::int32_t type = 0, std::int64_t a = 0, std::int64_t b = 0) {
  if (sink != nullptr) [[unlikely]] {
    sink->record(TraceEvent{time, kind, actor, peer, type, a, b});
  }
}

}  // namespace olb::trace
