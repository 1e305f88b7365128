// Multi-job work container for the service layer (src/svc).
//
// In service mode every peer's single lb::Work slot holds a JobBag: a set of
// per-job sub-works, each tagged with the job id and priority class it
// belongs to. The bag preserves the PeerBase contract (amount / split /
// merge / step) while keeping jobs strictly separate:
//
//  * step()  always processes the highest-priority slot (lowest class, ties
//            by lowest job id) — a starved low class can never block a
//            high-class job that has work on this peer;
//  * split() carves the piece from exactly ONE job (the largest slot), so
//            every kWork transfer in a service run is single-job and can be
//            tagged with its id — the invariant the JobConservationOracle
//            checks ("no unit ever carries another job's tag");
//  * merge() is slot-wise by job id, so pieces of different jobs never mix;
//  * bounds  never leave the bag: step() reports kNoBound upward (PeerBase's
//            global bound_ would smear one job's incumbent over another's
//            pruning), while each B&B sub-work keeps its own bound, which
//            travels inside split pieces exactly like single-job runs.
//
// The bag also keeps two ledgers the service layer harvests:
//  * per-job tallies (units processed, best bound seen) that survive a
//    slot's drain — post-run, summing tallies over all peers gives exact
//    per-job unit counts;
//  * per-chunk records (job, units, amount delta) drained by the overlay
//    peer after each compute span to emit kJobChunk trace events, the
//    oracle's conservation input.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lb/work.hpp"

namespace olb::lb {

/// Work amounts in job trace events / wave payloads travel as milli-units.
inline std::int64_t amount_milli(double amount) {
  return static_cast<std::int64_t>(amount * 1000.0 + 0.5);
}

class JobBag final : public Work {
 public:
  struct Slot {
    std::uint64_t job = 0;
    int job_class = 0;
    std::unique_ptr<Work> work;
  };
  /// Persists after the slot drains (post-run exact-count harvest).
  struct Tally {
    std::uint64_t job = 0;
    std::uint64_t units = 0;
    std::int64_t bound = kNoBound;
  };
  /// One completed compute chunk, for kJobChunk trace emission.
  struct ChunkRecord {
    std::uint64_t job = 0;
    std::uint64_t units = 0;
    std::int64_t delta_milli = 0;  ///< amount after - amount before
  };

  JobBag() = default;

  // --- Work interface ---
  double amount() const override;
  bool empty() const override;
  /// Single-job piece from the largest slot (ties: lowest job id). Whole-slot
  /// move when the target exceeds the slot; otherwise an inner split. Returns
  /// nullptr (bag unchanged) when the chosen slot cannot divide.
  std::unique_ptr<Work> split(double fraction) override;
  /// `other` must be a JobBag; merges slot-wise by job id.
  void merge(std::unique_ptr<Work> other) override;
  /// Steps the highest-priority slot; reports units and cost but never a
  /// bound (bounds stay per-job inside the bag).
  StepResult step(std::uint64_t max_units) override;
  /// No-op: a bag-level bound has no meaning across jobs.
  void observe_bound(std::int64_t bound) override { (void)bound; }

  // --- service-layer access ---
  /// Adds a fresh job (the root's kJobInject path).
  void add_job(std::uint64_t job, int job_class, std::unique_ptr<Work> work);
  /// The id/class of the bag's single slot; aborts unless exactly one slot
  /// (transfer pieces are single-job by construction).
  const Slot& sole_slot() const;
  /// Visits (job, amount) for every non-empty slot, ascending job id.
  template <typename Fn>
  void for_each_hold(Fn&& fn) const {
    for (const Slot& s : slots_) fn(s.job, s.work->amount());
  }
  /// Visits every tally, ascending job id.
  template <typename Fn>
  void for_each_tally(Fn&& fn) const {
    for (const Tally& t : tallies_) fn(t);
  }
  /// Drains the chunk records accumulated since the last call.
  std::vector<ChunkRecord> take_chunk_records();

 private:
  Slot* find_slot(std::uint64_t job);
  Tally& tally_for(std::uint64_t job);
  /// Inserts keeping slots_ ascending by job id (merge determinism: the
  /// thread backend merges pieces in arbitrary arrival order, but the bag's
  /// internal order — and so step()'s priority scan — depends only on ids).
  void insert_slot(Slot s);

  std::vector<Slot> slots_;     ///< ascending job id, all non-empty
  std::vector<Tally> tallies_;  ///< ascending job id, grows monotonically
  std::vector<ChunkRecord> chunks_;
};

}  // namespace olb::lb
