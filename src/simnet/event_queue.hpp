// Slab-backed binary min-heap of simulation events.
//
// std::priority_queue cannot hand back move-only elements, and we need a
// deterministic total order (time, then insertion sequence), so we keep a
// hand-rolled heap. Three layout decisions make it the engine's fastest
// component instead of its bottleneck, and keep it small at 10^5+ peers:
//
//  * Event bodies live in a slab (`slots_`) and are recycled through a
//    freelist — the heap itself holds 32-byte POD entries carrying the
//    ordering key (time, tie, seq) plus the slot index. Sift operations
//    therefore shuffle trivially-copyable entries instead of move-only
//    Events (whose Message member drags a unique_ptr along), and an Event's
//    bytes never move between its emplace and its release.
//  * The key lives only in the heap entry, so a slot is {Message, kind,
//    next}: exactly one 64-byte cache line.
//  * A delivered arrival keeps its slot: detach_top() pops the heap key but
//    leaves the slot allocated, and the engine threads it into the
//    destination actor's inbox FIFO through Event::next. An inbox therefore
//    costs its actor two indices and no buffer of its own.
//  * The heap entry also names the target actor (in what would otherwise be
//    its padding), so prefetch_next() can start the cache misses of the
//    next event — its slot and its actor — while the engine is still
//    serving the current one. At 10^5 peers those misses, not the
//    protocol, are most of an event's cost.
//
// Sifts use hole percolation (shift parents/children into the hole, place
// the moving entry once) rather than std::swap chains — one copy per level
// instead of three.
//
// The slab never shrinks: it holds as many slots as the high-water mark of
// pending events plus queued inbox messages, which for the protocols here
// is small (O(1) per actor). Ordering reads the same (time, tie, seq)
// triple whatever slot an event lands in, so seeded runs reproduce exactly.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "simnet/message.hpp"
#include "simnet/time.hpp"

namespace olb::sim {

/// Slot index meaning "none" (end of an inbox list, empty inbox).
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

struct alignas(64) Event {
  enum class Kind : std::uint8_t {
    kArrival,  ///< a message reaches its destination's inbox
    kWake,     ///< the destination actor should service its queues
    kCrash,    ///< fault injection: the destination peer fail-stops
    kStall,    ///< fault injection: the destination freezes for msg.a ns
  };

  /// The message of a kArrival. For every kind msg.dst names the target
  /// actor (emplace stores it); kStall borrows msg.a for its duration.
  Message msg;
  Kind kind = Kind::kWake;
  /// Next slot of the inbox FIFO this delivered arrival sits in (kNoSlot at
  /// the tail). Meaningless while the event is still pending in the heap.
  std::uint32_t next = kNoSlot;
};
static_assert(sizeof(Event) == 64, "an event slot is one cache line");

class EventQueue {
 public:
  /// True when no event is pending (inbox-resident slots do not count).
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Constructs the event in its slab slot and returns a reference for the
  /// caller to finish (typically moving a Message into `.msg`, which keeps
  /// the msg.dst stored here). The reference is valid only until the next
  /// queue operation (emplace may grow or recycle the slab).
  Event& emplace(Time time, std::uint64_t tie, std::uint64_t seq, int dst,
                 Event::Kind kind) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Event& ev = slots_[slot];
    ev.msg.dst = dst;
    ev.kind = kind;
    const Entry entry{time, tie, seq, slot, dst};
    std::size_t i = heap_.size();
    heap_.push_back(entry);  // placeholder; sift_up writes the final position
    sift_up(entry, i);
    return ev;
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    const std::uint32_t s = detach_top();
    Event out = std::move(slots_[s]);
    release(s);
    return out;
  }

  /// The earliest event, mutable so callers can consume `.msg` in place
  /// before drop_top()/detach_top() — the zero-move alternative to pop().
  /// Precondition: !empty().
  Event& top() { return slots_[heap_.front().slot]; }

  /// Discards the earliest event without moving it out; pair with top().
  /// Any reference from top()/emplace() is dead after this (the slot is
  /// recycled). Precondition: !empty().
  void drop_top() { release(detach_top()); }

  /// Removes the earliest event's heap key but keeps its slot allocated,
  /// returning the slot index: the event leaves the schedule, its body
  /// stays put (the engine's inbox path). The caller owns the slot until
  /// release(). References into the slab stay valid. Precondition: !empty().
  std::uint32_t detach_top() {
    const std::uint32_t s = heap_.front().slot;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return s;
  }

  /// A detached slot (see detach_top). Valid until the next emplace.
  Event& slot(std::uint32_t s) { return slots_[s]; }

  /// Returns a detached slot to the freelist. Its message must already be
  /// moved out or destroyed: recycled slots are reused as-is.
  void release(std::uint32_t s) { free_.push_back(s); }

  /// Timestamp of the earliest event. Precondition: !empty().
  Time peek_time() const { return heap_.front().time; }

  /// Prefetches the slab slots of the events that can be served after the
  /// top one — once the top leaves, the new top is one of the root's two
  /// children, unless a newer event beats both — and returns their target
  /// actors (-1 where a child is missing) for the caller to prefetch too.
  /// A cache hint only: it changes no order and no state. The ids come back
  /// as a result because GCC deletes calls to a function whose only effect
  /// is a prefetch.
  std::array<int, 2> prefetch_next() const {
    std::array<int, 2> next{-1, -1};
    for (std::size_t i = 1; i < 3 && i < heap_.size(); ++i) {
      __builtin_prefetch(&slots_[heap_[i].slot]);
      next[i - 1] = heap_[i].dst;
    }
    return next;
  }

  /// Bytes of heap storage behind the queue. Tracks the slab's high-water
  /// mark (the slab never shrinks) — the honest number for the
  /// bytes-per-peer accounting in docs/SCALING.md.
  std::size_t memory_bytes() const {
    return heap_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(Event) +
           free_.capacity() * sizeof(std::uint32_t);
  }

 private:
  /// Heap entry: the deterministic ordering key, the slab slot holding the
  /// event body and the target actor (for prefetch_next; ordering ignores
  /// it). Trivially copyable by design — sifts copy these.
  struct Entry {
    Time time;
    std::uint64_t tie;
    std::uint64_t seq;
    std::uint32_t slot;
    std::int32_t dst;

    bool before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      if (tie != other.tie) return tie < other.tie;
      return seq < other.seq;
    }
  };
  static_assert(sizeof(Entry) == 32, "dst fills the padding: two entries per line");

  /// Percolates `e` up from the hole at `i`.
  void sift_up(Entry e, std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!e.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Percolates `e` down from the hole at the root.
  void sift_down(Entry e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(e)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
  std::vector<Event> slots_;          ///< slab of event bodies, slot-indexed
  std::vector<std::uint32_t> free_;   ///< recycled slots
};

}  // namespace olb::sim
