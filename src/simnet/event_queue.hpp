// Slab-backed event queue: a binary min-heap plus a few constant-delay FIFO
// lanes, under one deterministic order.
//
// Every pending event carries the key (time, tie, seq): its time, the
// random tie-break key of a perturbed run (0 otherwise), then the engine's
// insertion sequence. The queue's front is always the least key pending,
// wherever the event is filed, so the order of service is exactly the
// order one sorted list would give; seeded runs reproduce exactly.
// std::priority_queue cannot hand back move-only elements, so the heap is
// hand-rolled. Its layout keeps it fast and small at 10^5+ peers:
//
//  * Event bodies live in a slab (`slots_`) and are recycled through a
//    free list threaded through Event::next (a free slot has no other use
//    for it), most recently freed first. The heap and the lanes hold POD
//    entries carrying the ordering key plus the slot index, so sifts
//    shuffle trivially-copyable entries instead of move-only Events (whose
//    Message member drags a unique_ptr along), and an Event's bytes never
//    move between its emplace and its release.
//  * The key lives only in the entry, so a slot is {Message, kind, next}:
//    exactly one 64-byte cache line.
//  * A delivered arrival keeps its slot: detach_top() takes its key off the
//    schedule but leaves the slot allocated, and the engine threads it into
//    the destination actor's inbox FIFO through Event::next. An inbox
//    therefore costs its actor two indices and no buffer of its own.
//  * An entry also names the target actor (in what would otherwise be
//    padding), so prefetch_next() can start the cache misses of the next
//    event — its slot and its actor — while the engine is still serving
//    the current one. At 10^5 peers those misses, not the protocol, are
//    most of an event's cost.
//
// Lanes. Most events of a large run are filed a fixed delay after the
// engine's clock: a retry timer 10 ms out, a wake at the current instant,
// a wake one msg_handling_cost later. emplace_after() files such an event
// into the lane for its exact delay, a power-of-two ring of 24-byte
// entries (no tie: a lane holds tie-0 events only). An engine's clock
// never goes back and its sequence only grows, so the events of one delay
// arrive in key order: a lane is a FIFO that is already sorted, a push is
// an append and a pop advances the head, and neither touches the heap (a
// push checks that it lands behind the lane's tail). The first kLanes
// distinct delays claim the lanes for the queue's life; a later delay goes
// to the heap.
//
// Front. The heap top and the non-empty lane heads sit in `heads_`, sorted
// by key, so the front is heads_[0]. A push that gives its source a new
// head and a pop that advances the front's source each compare only that
// one head with its neighbours in `heads_`; nothing rescans the lanes. The
// runner-up, heads_[1], is what prefetch_next() warms besides the front
// source's own next entry.
//
// Sifts use hole percolation (shift parents/children into the hole, place
// the moving entry once) rather than std::swap chains — one copy per level
// instead of three.
//
// The slab and the rings never shrink: the slab holds as many slots as the
// high-water mark of pending events plus queued inbox messages, which for
// the protocols here is small (O(1) per actor).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/message.hpp"
#include "simnet/time.hpp"
#include "support/check.hpp"

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
  /// the tail), or of the free list while the slot is free. Meaningless
  /// while the event is pending.
  std::uint32_t next = kNoSlot;
};
static_assert(sizeof(Event) == 64, "an event slot is one cache line");

class EventQueue {
 public:
  /// FIFO lanes beside the heap: the engine's two wake delays and two
  /// timer delays.
  static constexpr int kLanes = 4;

  /// True when no event is pending (inbox-resident slots do not count).
  bool empty() const { return nheads_ == 0; }
  std::size_t size() const {
    std::size_t n = heap_.size();
    for (const Lane& lane : lanes_) n += lane.count;
    return n;
  }
  /// Pending events filed in the heap; the other size() - heap_size() wait
  /// in lanes.
  std::size_t heap_size() const { return heap_.size(); }

  /// Files an event under any key into the heap. Constructs it in its slab
  /// slot and returns a reference for the caller to finish (typically
  /// moving a Message into `.msg`, which keeps the msg.dst stored here).
  /// The reference is valid only until the next queue operation (emplace
  /// may grow or recycle the slab).
  Event& emplace(Time time, std::uint64_t tie, std::uint64_t seq, int dst,
                 Event::Kind kind) {
    const std::uint32_t s = acquire(dst, kind);
    const Entry entry{time, tie, seq, s, dst};
    heap_.push_back(entry);  // placeholder; sift_up writes the final position
    if (sift_up(entry, heap_.size() - 1) == 0) {
      raise_head(kHeap, entry, heap_.size() > 1);
    }
    return slots_[s];
  }

  /// Files an event at `now + delay` with tie 0 into the lane for `delay`,
  /// or into the heap when every lane holds another delay. Across calls
  /// `now` must never go back and `seq` must only grow (an engine's clock
  /// and insertion sequence); a lane aborts on an event ahead of its tail.
  /// Same reference contract as emplace().
  Event& emplace_after(Time now, Time delay, std::uint64_t seq, int dst,
                       Event::Kind kind) {
    const Time time = now + delay;
    const int l = lane_for(delay);
    if (l < 0) return emplace(time, 0, seq, dst, kind);
    Lane& lane = lanes_[l];
    if (lane.count != 0) {
      const LaneEntry& tail = lane.at(lane.count - 1);
      OLB_CHECK_MSG(time > tail.time || (time == tail.time && seq > tail.seq),
                    "a lane's events must come in key order");
    }
    if (lane.count == lane.cap) grow(lane);
    const std::uint32_t s = acquire(dst, kind);
    lane.at(lane.count) = LaneEntry{time, seq, s, dst};
    if (lane.count++ == 0) raise_head(l, Entry{time, 0, seq, s, dst}, false);
    return slots_[s];
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
  Event& top() { return slots_[heads_[0].entry.slot]; }

  /// Discards the earliest event without moving it out; pair with top().
  /// Any reference from top()/emplace() is dead after this (the slot is
  /// recycled). Precondition: !empty().
  void drop_top() { release(detach_top()); }

  /// Removes the earliest event's key but keeps its slot allocated,
  /// returning the slot index: the event leaves the schedule, its body
  /// stays put (the engine's inbox path). The caller owns the slot until
  /// release(). References into the slab stay valid. Precondition: !empty().
  std::uint32_t detach_top() {
    const int src = heads_[0].src;
    const std::uint32_t s = heads_[0].entry.slot;
    Entry next{};
    bool more;
    if (src == kHeap) {
      const Entry last = heap_.back();
      heap_.pop_back();
      more = !heap_.empty();
      if (more) {
        sift_down(last);
        next = heap_.front();
      }
    } else {
      Lane& lane = lanes_[src];
      lane.head = (lane.head + 1) & (lane.cap - 1);
      more = --lane.count != 0;
      if (more) next = lane.head_entry();
    }
    // The source's new head is no earlier than its old one: slide it back
    // past the heads it no longer beats (or drop the source if it emptied).
    int p = 0;
    if (more) {
      for (; p + 1 < nheads_ && heads_[p + 1].entry.before(next); ++p) {
        heads_[p] = heads_[p + 1];
      }
      heads_[p] = Head{next, src};
    } else {
      for (--nheads_; p < nheads_; ++p) heads_[p] = heads_[p + 1];
    }
    return s;
  }

  /// A detached slot (see detach_top). Valid until the next emplace.
  Event& slot(std::uint32_t s) { return slots_[s]; }

  /// Returns a detached slot to the free list. Its message must already be
  /// moved out or destroyed: recycled slots are reused as-is.
  void release(std::uint32_t s) {
    slots_[s].next = free_;
    free_ = s;
  }

  /// Timestamp of the earliest event. Precondition: !empty().
  Time peek_time() const { return heads_[0].entry.time; }

  /// Prefetches the slab slots of the two events that can be served after
  /// the front — the runner-up head and the front source's next entry (the
  /// smaller child of the heap's root, or the lane's second entry); one of
  /// them is next unless a newer event beats both — and returns their
  /// target actors (-1 where one is missing) for the caller to prefetch
  /// too. A cache hint only: it changes no order and no state. The ids come
  /// back as a result because GCC deletes calls to a function whose only
  /// effect is a prefetch.
  std::array<int, 2> prefetch_next() const {
    std::array<int, 2> next{-1, -1};
    if (nheads_ > 1) {
      __builtin_prefetch(&slots_[heads_[1].entry.slot]);
      next[0] = heads_[1].entry.dst;
    }
    const int src = heads_[0].src;
    std::uint32_t slot = kNoSlot;
    if (src == kHeap) {
      if (heap_.size() > 1) {
        std::size_t c = 1;
        if (heap_.size() > 2 && heap_[2].before(heap_[1])) c = 2;
        slot = heap_[c].slot;
        next[1] = heap_[c].dst;
      }
    } else if (const Lane& lane = lanes_[src]; lane.count > 1) {
      const LaneEntry& e = lane.at(1);
      slot = e.slot;
      next[1] = e.dst;
    }
    if (slot != kNoSlot) __builtin_prefetch(&slots_[slot]);
    return next;
  }

  /// Bytes of heap storage behind the queue: heap, lane rings and slab.
  /// Tracks their high-water marks (none of them shrinks) — the honest
  /// number for the bytes-per-peer accounting in docs/SCALING.md.
  std::size_t memory_bytes() const {
    std::size_t bytes =
        heap_.capacity() * sizeof(Entry) + slots_.capacity() * sizeof(Event);
    for (const Lane& lane : lanes_) bytes += lane.cap * sizeof(LaneEntry);
    return bytes;
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

  /// Lane entry: a heap entry without its tie, which is 0 in every lane.
  struct LaneEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::int32_t dst;
  };
  static_assert(sizeof(LaneEntry) == 24);

  struct Lane {
    Time delay = -1;            ///< the delay this lane holds; -1: unclaimed
    std::uint32_t head = 0;     ///< ring index of the earliest entry
    std::uint32_t count = 0;    ///< entries pending
    std::uint32_t cap = 0;      ///< ring size: a power of two, 0 until first use
    std::unique_ptr<LaneEntry[]> ring;

    /// The i-th pending entry, earliest first.
    LaneEntry& at(std::uint32_t i) { return ring[(head + i) & (cap - 1)]; }
    const LaneEntry& at(std::uint32_t i) const { return ring[(head + i) & (cap - 1)]; }
    Entry head_entry() const {
      const LaneEntry& e = ring[head];
      return Entry{e.time, 0, e.seq, e.slot, e.dst};
    }
  };

  /// A source's earliest entry: a lane index, or kHeap for the heap top.
  struct Head {
    Entry entry;
    int src;
  };
  static constexpr int kHeap = kLanes;

  /// A slot from the free list (most recently freed first) or a new one.
  std::uint32_t acquire(int dst, Event::Kind kind) {
    std::uint32_t s = free_;
    if (s != kNoSlot) {
      free_ = slots_[s].next;
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Event& ev = slots_[s];
    ev.msg.dst = dst;
    ev.kind = kind;
    return s;
  }

  /// The lane holding `delay`, claiming a free one on first sight; -1 when
  /// every lane holds another delay.
  int lane_for(Time delay) {
    for (int l = 0; l < kLanes; ++l) {
      if (lanes_[l].delay == delay) return l;
      if (lanes_[l].delay < 0) {
        lanes_[l].delay = delay;
        return l;
      }
    }
    return -1;
  }

  /// Doubles a full ring (16 entries on first use), unwrapping it.
  static void grow(Lane& lane) {
    const std::uint32_t cap = lane.cap == 0 ? 16 : 2 * lane.cap;
    auto ring = std::make_unique<LaneEntry[]>(cap);
    for (std::uint32_t i = 0; i < lane.count; ++i) ring[i] = lane.at(i);
    lane.ring = std::move(ring);
    lane.cap = cap;
    lane.head = 0;
  }

  /// Source `src`'s head became `e`: its first (`had_head` false) or one
  /// earlier than its old head. Moves it forward past the heads it beats.
  void raise_head(int src, const Entry& e, bool had_head) {
    int p = nheads_;
    if (had_head) {
      p = 0;
      while (heads_[p].src != src) ++p;
    } else {
      ++nheads_;
    }
    for (; p > 0 && e.before(heads_[p - 1].entry); --p) heads_[p] = heads_[p - 1];
    heads_[p] = Head{e, src};
  }

  /// Percolates `e` up from the hole at `i`; returns its final index.
  std::size_t sift_up(Entry e, std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!e.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
    return i;
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
  std::array<Lane, kLanes> lanes_;
  /// Each non-empty source's earliest entry, sorted: heads_[0] is the front.
  std::array<Head, kLanes + 1> heads_{};
  int nheads_ = 0;
  std::vector<Event> slots_;       ///< slab of event bodies, slot-indexed
  std::uint32_t free_ = kNoSlot;   ///< free-list head, linked through Event::next
};

}  // namespace olb::sim
