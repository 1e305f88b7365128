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
//  * The heap and the lanes hold POD entries: the ordering key, the target
//    actor and, for the events that need a body, a slab slot index. Sifts
//    shuffle trivially-copyable entries instead of move-only Events (whose
//    Message member drags a unique_ptr along), and an Event's bytes never
//    move between its emplace and its release.
//  * Which events hold a slot. An event with a message or a fault-plan
//    argument — an arrival, a crash, a stall, a timer filed in the heap —
//    takes a slot when it is filed. A wake needs nothing but its target,
//    which its entry names, so it never takes one. A timer filed in a lane
//    keeps its tag in the lane entry and takes a slot only when it fires
//    (detach_top), the moment its message enters the actor's inbox.
//  * Event bodies live in a slab (`slots_`). Freed slots are recycled from
//    a contiguous stack of slot indices, most recently freed first: an
//    acquire reads the stack's top, not the freed slot itself, so a burst
//    of acquires does not chain one cache miss behind another.
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
// a wake one msg_handling_cost later. push_wake_after() and
// push_timer_after() file such an event into the lane for its exact delay,
// a power-of-two ring of 32-byte entries (no tie: a lane holds tie-0
// events only). An engine's clock never goes back and its sequence only
// grows, so the events of one delay arrive in key order: a lane is a FIFO
// that is already sorted, a push is an append and a pop advances the head,
// and neither touches the heap (a push checks that it lands behind the
// lane's tail). The first kLanes distinct delays claim the lanes for the
// queue's life; a later delay goes to the heap.
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
// The slab, the free stack and the rings never shrink: the slab holds as
// many slots as the high-water mark of slotted pending events plus queued
// inbox messages, which for the protocols here is small (O(1) per actor).
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
  /// the tail). Meaningless while the event is pending or the slot free.
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

  /// Files an event with a body under any key into the heap. Constructs it
  /// in its slab slot and returns a reference for the caller to finish
  /// (typically moving a Message into `.msg`, which keeps the msg.dst
  /// stored here). The reference is valid only until the next queue
  /// operation (emplace may grow or recycle the slab).
  Event& emplace(Time time, std::uint64_t tie, std::uint64_t seq, int dst,
                 Event::Kind kind) {
    const std::uint32_t s = acquire();
    Event& ev = slots_[s];
    ev.msg.dst = dst;
    ev.kind = kind;
    push_heap(Entry{time, tie, seq, s, dst});
    return ev;
  }

  /// Files a wake of actor `dst` under any key into the heap. It takes no
  /// slot: its entry names the target.
  void push_wake(Time time, std::uint64_t tie, std::uint64_t seq, int dst) {
    push_heap(Entry{time, tie, seq, kWakeEntry, dst});
  }

  /// Files a wake of actor `dst` at `now + delay` with tie 0 into the lane
  /// for `delay`, or into the heap when every lane holds another delay.
  /// Across calls that reach a lane, `now` must never go back and `seq`
  /// must only grow (an engine's clock and insertion sequence); a lane
  /// aborts on an event ahead of its tail.
  void push_wake_after(Time now, Time delay, std::uint64_t seq, int dst) {
    const int l = lane_for(delay);
    if (l < 0) return push_wake(now + delay, 0, seq, dst);
    push_lane(l, LaneEntry{now + delay, seq, 0, kWakeEntry, dst});
  }

  /// Files actor `dst`'s timer `tag` at `now + delay` with tie 0, under
  /// push_wake_after()'s contract. In a lane the tag rides the entry and
  /// the timer takes its slot only when it fires (detach_top); in the heap
  /// it is a slotted kArrival of timer_message(dst, tag) from the start.
  void push_timer_after(Time now, Time delay, std::uint64_t seq, int dst,
                        std::int64_t tag) {
    const int l = lane_for(delay);
    if (l < 0) {
      emplace(now + delay, 0, seq, dst, Event::Kind::kArrival).msg =
          timer_message(dst, tag);
      return;
    }
    push_lane(l, LaneEntry{now + delay, seq, tag, kTimerEntry, dst});
  }

  /// Timestamp of the earliest event. Precondition: !empty().
  Time peek_time() const { return heads_[0].entry.time; }
  /// Target actor of the earliest event. Precondition: !empty().
  int top_dst() const { return heads_[0].entry.dst; }
  /// Kind of the earliest event: kWake for a wake, kArrival for a lane
  /// timer, else its slot's kind. Precondition: !empty().
  Event::Kind top_kind() const {
    const std::uint32_t s = heads_[0].entry.slot;
    if (s == kWakeEntry) return Event::Kind::kWake;
    if (s == kTimerEntry) return Event::Kind::kArrival;
    return slots_[s].kind;
  }

  /// The earliest event's body, mutable so callers can consume `.msg` in
  /// place before drop_top()/detach_top() — the zero-move alternative to
  /// pop(). Precondition: the earliest event holds a slot (it is neither a
  /// wake nor a timer waiting in a lane).
  Event& top() { return slots_[heads_[0].entry.slot]; }

  /// Removes and returns the earliest event; a wake comes back as a kWake
  /// naming its target in msg.dst, a lane timer as its kArrival.
  /// Precondition: !empty().
  Event pop() {
    const Front f = take_front();
    Event out;
    if (f.slot < kTimerEntry) {
      out = std::move(slots_[f.slot]);
      release(f.slot);
    } else if (f.slot == kTimerEntry) {
      out.kind = Event::Kind::kArrival;
      out.msg = timer_message(f.dst, f.tag);
    } else {
      out.msg.dst = f.dst;
    }
    return out;
  }

  /// Discards the earliest event without moving it out; pair with top().
  /// Any reference from top()/emplace() is dead after this (the slot is
  /// recycled). Precondition: !empty().
  void drop_top() {
    const std::uint32_t s = take_front().slot;
    if (s < kTimerEntry) release(s);
  }

  /// Removes the earliest event's key but keeps its slot allocated,
  /// returning the slot index: the event leaves the schedule, its body
  /// stays put (the engine's inbox path). A lane timer takes its slot here,
  /// filled with its kArrival of timer_message(). The caller owns the slot
  /// until release(). References into the slab stay valid unless a lane
  /// timer grows the slab. Precondition: !empty() and the earliest event
  /// is not a wake.
  std::uint32_t detach_top() {
    const Front f = take_front();
    if (f.slot != kTimerEntry) return f.slot;
    const std::uint32_t s = acquire();
    slots_[s].msg = timer_message(f.dst, f.tag);
    slots_[s].kind = Event::Kind::kArrival;
    return s;
  }

  /// A detached slot (see detach_top). Valid until the slab next grows
  /// (emplace, or detach_top of a lane timer).
  Event& slot(std::uint32_t s) { return slots_[s]; }

  /// Returns a detached slot to the free stack. Its message must already
  /// be moved out or destroyed: recycled slots are reused as-is.
  void release(std::uint32_t s) { free_[nfree_++] = s; }

  /// Prefetches the slab slots of the two events that can be served after
  /// the front — the runner-up head and the front source's next entry (the
  /// smaller child of the heap's root, or the lane's second entry); one of
  /// them is next unless a newer event beats both — and returns their
  /// target actors (-1 where one is missing) for the caller to prefetch
  /// too. Events without a slot have nothing to warm but their actor. A
  /// cache hint only: it changes no order and no state. The ids come back
  /// as a result because GCC deletes calls to a function whose only effect
  /// is a prefetch.
  std::array<int, 2> prefetch_next() const {
    std::array<int, 2> next{-1, -1};
    if (nheads_ > 1) {
      prefetch_slot(heads_[1].entry.slot);
      next[0] = heads_[1].entry.dst;
    }
    const int src = heads_[0].src;
    if (src == kHeap) {
      if (heap_.size() > 1) {
        std::size_t c = 1;
        if (heap_.size() > 2 && heap_[2].before(heap_[1])) c = 2;
        prefetch_slot(heap_[c].slot);
        next[1] = heap_[c].dst;
      }
    } else if (const Lane& lane = lanes_[src]; lane.count > 1) {
      next[1] = lane.at(1).dst;  // lane entries hold no slot
    }
    return next;
  }

  /// Bytes of heap storage behind the queue: heap, lane rings, slab and
  /// free stack. Tracks their high-water marks (none of them shrinks) —
  /// the honest number for the bytes-per-peer accounting in
  /// docs/SCALING.md.
  std::size_t memory_bytes() const {
    std::size_t bytes = heap_.capacity() * sizeof(Entry) +
                        slots_.capacity() * sizeof(Event) +
                        free_.capacity() * sizeof(std::uint32_t);
    for (const Lane& lane : lanes_) bytes += lane.cap * sizeof(LaneEntry);
    return bytes;
  }

 private:
  /// Entry::slot values that are no slab index: a wake, and a timer whose
  /// tag waits in its lane entry.
  static constexpr std::uint32_t kWakeEntry = kNoSlot;
  static constexpr std::uint32_t kTimerEntry = kNoSlot - 1;

  /// Heap entry: the deterministic ordering key, the slab slot holding the
  /// event body (or kWakeEntry / kTimerEntry) and the target actor
  /// (ordering ignores it). Trivially copyable by design — sifts copy
  /// these.
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

  /// Lane entry: a heap entry without its tie, which is 0 in every lane,
  /// and with a lane timer's tag (0 for a wake). Lanes hold only wakes and
  /// timers, so `slot` is kWakeEntry or kTimerEntry.
  struct LaneEntry {
    Time time;
    std::uint64_t seq;
    std::int64_t tag;
    std::uint32_t slot;
    std::int32_t dst;
  };
  static_assert(sizeof(LaneEntry) == 32);

  struct Lane {
    Time delay = -1;            ///< the delay this lane holds; -1: unclaimed
    std::uint32_t head = 0;     ///< ring index of the earliest entry
    std::uint32_t count = 0;    ///< entries pending
    std::uint32_t cap = 0;      ///< ring size: a power of two, 0 until first use
    std::unique_ptr<LaneEntry[]> ring;

    /// The i-th pending entry, earliest first.
    LaneEntry& at(std::uint32_t i) { return ring[(head + i) & (cap - 1)]; }
    const LaneEntry& at(std::uint32_t i) const { return ring[(head + i) & (cap - 1)]; }
  };

  /// A source's earliest entry: a lane index, or kHeap for the heap top.
  struct Head {
    Entry entry;
    int src;
  };
  static constexpr int kHeap = kLanes;

  /// What take_front() removed: its slot (or marker), target, and a lane
  /// timer's tag.
  struct Front {
    std::uint32_t slot;
    std::int32_t dst;
    std::int64_t tag;
  };

  static Entry key_of(const LaneEntry& e) {
    return Entry{e.time, 0, e.seq, e.slot, e.dst};
  }

  /// A slot from the free stack (most recently freed first) or a new one.
  /// The stack never holds more indices than the slab has slots, so it
  /// grows with the slab and release() needs no capacity check.
  std::uint32_t acquire() {
    if (nfree_ != 0) return free_[--nfree_];
    slots_.emplace_back();
    free_.resize(slots_.size());
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void prefetch_slot(std::uint32_t s) const {
    if (s < kTimerEntry) __builtin_prefetch(&slots_[s]);
  }

  void push_heap(const Entry& entry) {
    heap_.push_back(entry);  // placeholder; sift_up writes the final position
    if (sift_up(entry, heap_.size() - 1) == 0) {
      raise_head(kHeap, entry, heap_.size() > 1);
    }
  }

  void push_lane(int l, const LaneEntry& e) {
    Lane& lane = lanes_[l];
    if (lane.count != 0) {
      const LaneEntry& tail = lane.at(lane.count - 1);
      OLB_CHECK_MSG(e.time > tail.time || (e.time == tail.time && e.seq > tail.seq),
                    "a lane's events must come in key order");
    }
    if (lane.count == lane.cap) grow(lane);
    lane.at(lane.count) = e;
    if (lane.count++ == 0) raise_head(l, key_of(e), false);
  }

  /// Removes the earliest entry from its source and re-sorts `heads_`.
  Front take_front() {
    const int src = heads_[0].src;
    Front f{heads_[0].entry.slot, heads_[0].entry.dst, 0};
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
      f.tag = lane.ring[lane.head].tag;
      lane.head = (lane.head + 1) & (lane.cap - 1);
      more = --lane.count != 0;
      if (more) next = key_of(lane.ring[lane.head]);
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
    return f;
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
  std::vector<Event> slots_;         ///< slab of event bodies, slot-indexed
  /// Free slot indices in free_[0, nfree_); the top is reused first.
  std::vector<std::uint32_t> free_;
  std::uint32_t nfree_ = 0;
};

}  // namespace olb::sim
