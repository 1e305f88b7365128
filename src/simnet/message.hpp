// Messages exchanged between simulated peers.
//
// A message carries an application-defined integer type tag, three scalar
// fields (enough for the protocols in this repo: request flags, counters,
// bound values), and an optional owned payload for work transfers. Messages
// are move-only: work travels, it is never duplicated.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "simnet/time.hpp"

namespace olb::sim {

/// Base class for owned message payloads (e.g. a chunk of work).
/// Applications downcast via static_cast after checking the message type.
struct MsgPayload {
  virtual ~MsgPayload() = default;

  /// Application units carried by this payload; the engine charges it to
  /// the work-lost ledger when fault injection destroys the message.
  virtual double amount() const { return 0.0; }
};

/// Width of Message::id: ids are taken modulo 2^30.
inline constexpr std::uint32_t kMsgIdMask = (std::uint32_t{1} << 30) - 1;

struct Message {
  int type = 0;
  /// Pairs the send/deliver trace events of one message (30 bits keep
  /// Message at its pre-tracing size — ids recycle after 2^30 sends, far
  /// beyond any traced run). The engine writes its sequence number only
  /// when a tracer is attached (0 otherwise); the real-time backends always
  /// write a per-sender id (runtime/host.hpp).
  std::uint32_t id : 30 = 0;
  /// Set by the sender on a payload-free message that rides the reliable
  /// channel with the work transfers (see reliable_channel()). The overlay
  /// sets it on its termination waves, kProbe and kProbeAck.
  std::uint32_t reliable : 1 = 0;
  /// Set by the engine when a reliable-channel message reached a crashed
  /// peer and was returned to its sender (fault injection only). A bounce
  /// that hits a second crashed peer is destroyed, not bounced again.
  /// The three fields share one unit: all are cold, and a separate bool
  /// would grow every Message (and so every queued Event) by eight padded
  /// bytes.
  std::uint32_t bounced : 1 = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::unique_ptr<MsgPayload> payload;

  // Filled in by the transport on send / arrival.
  int src = -1;
  int dst = -1;
  /// When the message entered the receiver's inbox; -1 while unstamped (the
  /// engine stamps every arrival, sockets only when tracing, threads never).
  Time arrived_at = -1;

  Message() = default;
  Message(int type_, std::int64_t a_ = 0, std::int64_t b_ = 0, std::int64_t c_ = 0)
      : type(type_), a(a_), b(b_), c(c_) {}

  Message(Message&&) noexcept = default;
  Message& operator=(Message&&) noexcept = default;
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;

  /// The reliable channel (faults.hpp): link faults never drop, duplicate
  /// or delay a message on it, and a crashed destination bounces it back to
  /// its sender. Work transfers ride it because they carry a payload;
  /// anything else only when its sender set `reliable`.
  bool reliable_channel() const { return reliable || payload != nullptr; }
};
static_assert(sizeof(Message) == 3 * sizeof(std::int64_t) + sizeof(void*) +
                                     2 * sizeof(int) + sizeof(Time) + 8,
              "type/id/reliable/bounced must form one 8-byte leading unit");

/// Message type tag reserved by the engine for timer expiry. Application
/// message types must be >= 0.
inline constexpr int kTimerMsgType = -1;

/// The message a timer delivers to `actor`: its tag in `a`, sent by and to
/// the actor itself.
inline Message timer_message(int actor, std::int64_t tag) {
  Message m(kTimerMsgType, tag);
  m.src = actor;
  m.dst = actor;
  return m;
}

/// Reserved by the engine for failure-detector notifications: field `a`
/// holds the id of the crashed peer. Dispatched to Actor::on_peer_down(),
/// never to on_message(). Only ever sent when fault injection is active.
inline constexpr int kPeerDownMsgType = -2;

}  // namespace olb::sim
