// Counter-wave termination: the one rule behind every wave-based
// termination path in src/lb.
//
// A termination wave reads the cumulative work-transfer counters of a set of
// peers. The overlay runs it down its tree (kProbe, and per job in service
// mode kJobProbe); the flat protocols' initiator polls every live peer over
// a star (kTermProbe). StableCounters applies Mattern's counter rule to the
// readings:
//
//   a reading is *clean* when every visited peer was quiet and, while no
//   crash is known, the summed counters balance (sent == recv); it is
//   *stable* when it is clean and equal to the previous clean reading —
//   then the computation has terminated.
//
// Why two equal readings suffice: counters only grow, so two equal clean
// readings mean no visited peer sent or received work between its two
// visits (Mattern's four-counter method), and while no crash is known the
// balance proves nothing is left in flight. On unreliable links the two
// waves run one lease apart — more than the maximum message lifetime — so a
// transfer in flight during the first lands, bumping a receive counter,
// before the second polls its receiver. The remaining reading fields carry
// what the counters alone cannot see:
//
//  * crash_epoch — how many crashed peers the wave knew of. A crashed peer
//    takes its counters with it, so balance is only required at epoch 0;
//    after a crash, stability at one shared epoch carries the argument.
//  * member_events — joins accepted plus leaves absorbed (elastic
//    membership). A join or leave between two waves, whose handover traffic
//    may race the counters, makes the pair disagree.
//
// The wave shapes themselves stay with their protocols: WaveNode is one
// peer's part in a subtree wave, TermPoll one round of the star poll.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace olb::lb {

/// What one termination wave read, summed over the peers it visited.
struct CounterReading {
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  int crash_epoch = 0;
  std::uint64_t member_events = 0;

  /// Folds a sub-wave's reading into this one: the counters add up, the
  /// crash epoch is the highest any visited peer knew.
  void absorb(const CounterReading& sub) {
    sent += sub.sent;
    recv += sub.recv;
    crash_epoch = std::max(crash_epoch, sub.crash_epoch);
    member_events += sub.member_events;
  }

  friend bool operator==(const CounterReading&, const CounterReading&) = default;
};

enum class Settle {
  kDirty,   ///< not quiet, or unbalanced at epoch 0: forgets the last reading
  kClean,   ///< a candidate; the next clean reading must repeat it
  kStable,  ///< repeats the previous clean reading: terminated
};

/// Mattern's rule over a sequence of wave readings.
class StableCounters {
 public:
  /// Judges one reading. `quiet` says every visited peer was passive and
  /// nothing else voided the wave.
  Settle settle(bool quiet, const CounterReading& reading) {
    if (!quiet || (reading.crash_epoch == 0 && reading.sent != reading.recv)) {
      primed_ = false;
      return Settle::kDirty;
    }
    if (primed_ && last_ == reading) return Settle::kStable;
    last_ = reading;
    primed_ = true;
    return Settle::kClean;
  }

  /// True while a clean reading waits for its confirming wave.
  bool primed() const { return primed_; }

  /// Forgets the clean reading: a crash was learned since, and readings
  /// across a crash do not compare.
  void invalidate() { primed_ = false; }

 private:
  CounterReading last_;
  bool primed_ = false;
};

/// One peer's part in a subtree wave: the wave it joined, the peer it
/// answers (-1 at the root), and how many acks it still waits for.
struct WaveNode {
  std::uint64_t id = 0;
  int parent = -1;
  int acks_missing = 0;

  /// True while acks are still due here; at the root, while the wave runs.
  bool in_progress() const { return acks_missing > 0; }
  /// True iff an ack of wave `ack_id` is still due here; stale and surplus
  /// acks are not.
  bool awaits(std::uint64_t ack_id) const { return ack_id == id && in_progress(); }
};

/// One round of the flat protocols' star poll: every lease interval the
/// initiator sends kTermProbe(round) to each live peer, which answers
/// kTermAck with (passive?, cumulative transfers sent, received). The round
/// is complete once every expected peer answered; duplicate acks are
/// absorbed by per-peer dedup, and lost ones leave the round incomplete
/// until the next round supersedes it.
class TermPoll {
 public:
  /// Starts the next round, expecting one ack from each of `expected_acks`
  /// live peers among `num_peers`; returns the round number.
  std::uint64_t begin_round(int num_peers, int expected_acks) {
    ++round_;
    expected_ = expected_acks;
    responded_.assign(static_cast<std::size_t>(num_peers), 0);
    acks_ = 0;
    sum_sent_ = 0;
    sum_recv_ = 0;
    all_passive_ = true;
    return round_;
  }

  /// Feeds one kTermAck; returns true iff it just completed the round.
  /// Stale-round and duplicate acks are ignored.
  bool on_ack(std::uint64_t round, int peer, bool passive, std::uint64_t sent,
              std::uint64_t recv) {
    if (round != round_ || responded_.empty()) return false;
    const auto idx = static_cast<std::size_t>(peer);
    if (idx >= responded_.size() || responded_[idx] != 0) return false;
    responded_[idx] = 1;
    ++acks_;
    all_passive_ = all_passive_ && passive;
    sum_sent_ += sent;
    sum_recv_ += recv;
    return acks_ == expected_;
  }

  /// Whether every peer that answered this round was passive.
  bool all_passive() const { return all_passive_; }

  /// The round's summed counters plus the initiator's own.
  CounterReading reading(std::uint64_t own_sent, std::uint64_t own_recv,
                         int crash_epoch) const {
    return {sum_sent_ + own_sent, sum_recv_ + own_recv, crash_epoch, 0};
  }

 private:
  std::uint64_t round_ = 0;
  int expected_ = 0;
  int acks_ = 0;
  std::uint64_t sum_sent_ = 0;
  std::uint64_t sum_recv_ = 0;
  bool all_passive_ = true;
  std::vector<char> responded_;
};

}  // namespace olb::lb
