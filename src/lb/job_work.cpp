#include "lb/job_work.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace olb::lb {

double JobBag::amount() const {
  double total = 0.0;
  for (const Slot& s : slots_) total += s.work->amount();
  return total;
}

bool JobBag::empty() const { return slots_.empty(); }

JobBag::Slot* JobBag::find_slot(std::uint64_t job) {
  for (Slot& s : slots_) {
    if (s.job == job) return &s;
  }
  return nullptr;
}

JobBag::Tally& JobBag::tally_for(std::uint64_t job) {
  auto it = std::lower_bound(
      tallies_.begin(), tallies_.end(), job,
      [](const Tally& t, std::uint64_t j) { return t.job < j; });
  if (it != tallies_.end() && it->job == job) return *it;
  return *tallies_.insert(it, Tally{job, 0, kNoBound});
}

void JobBag::insert_slot(Slot s) {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), s.job,
      [](const Slot& a, std::uint64_t j) { return a.job < j; });
  OLB_CHECK_MSG(it == slots_.end() || it->job != s.job,
                "insert_slot: job already present");
  slots_.insert(it, std::move(s));
}

void JobBag::add_job(std::uint64_t job, int job_class,
                     std::unique_ptr<Work> work) {
  OLB_CHECK(work != nullptr && !work->empty());
  Slot* existing = find_slot(job);
  if (existing != nullptr) {
    OLB_CHECK(existing->job_class == job_class);
    existing->work->merge(std::move(work));
    return;
  }
  insert_slot(Slot{job, job_class, std::move(work)});
}

const JobBag::Slot& JobBag::sole_slot() const {
  OLB_CHECK_MSG(slots_.size() == 1, "transfer piece must be single-job");
  return slots_.front();
}

std::unique_ptr<Work> JobBag::split(double fraction) {
  if (slots_.empty()) return nullptr;
  const double target = fraction * amount();
  if (target <= 0.0) return nullptr;
  // Largest slot (ties: lowest job id — slots_ is id-ascending, so the
  // strict > keeps the first of equals). Serving from the largest job keeps
  // the split closest to the requested share without crossing job lines.
  std::size_t pick = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].work->amount() > slots_[pick].work->amount()) pick = i;
  }
  Slot& s = slots_[pick];
  const double slot_amount = s.work->amount();
  auto piece = std::make_unique<JobBag>();
  if (target >= slot_amount) {
    // The requested share swallows the whole slot: move it (other slots
    // stay, so the bag still holds the remaining jobs).
    piece->insert_slot(std::move(s));
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(pick));
    return piece;
  }
  std::unique_ptr<Work> inner = s.work->split(target / slot_amount);
  if (inner == nullptr) return nullptr;  // slot indivisible; bag unchanged
  piece->insert_slot(Slot{s.job, s.job_class, std::move(inner)});
  return piece;
}

void JobBag::merge(std::unique_ptr<Work> other) {
  auto* bag = dynamic_cast<JobBag*>(other.get());
  OLB_CHECK_MSG(bag != nullptr, "JobBag can only merge another JobBag");
  for (Slot& s : bag->slots_) {
    add_job(s.job, s.job_class, std::move(s.work));
  }
  // Pieces carry no ledgers (split leaves tallies/chunks with the splitting
  // bag), but fold them in defensively so merge is ledger-lossless.
  for (const Tally& t : bag->tallies_) {
    Tally& mine = tally_for(t.job);
    mine.units += t.units;
    mine.bound = std::min(mine.bound, t.bound);
  }
  chunks_.insert(chunks_.end(), bag->chunks_.begin(), bag->chunks_.end());
}

StepResult JobBag::step(std::uint64_t max_units) {
  OLB_CHECK_MSG(!slots_.empty(), "step on an empty JobBag");
  // Highest priority = lowest class, ties by lowest job id (the scan order).
  std::size_t pick = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].job_class < slots_[pick].job_class) pick = i;
  }
  Slot& s = slots_[pick];
  const std::int64_t before = amount_milli(s.work->amount());
  const StepResult inner = s.work->step(max_units);
  const std::int64_t after = amount_milli(s.work->amount());
  Tally& tally = tally_for(s.job);
  tally.units += inner.units_done;
  if (inner.bound < tally.bound) tally.bound = inner.bound;
  chunks_.push_back(ChunkRecord{s.job, inner.units_done, after - before});
  if (s.work->empty()) {
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  // Units and cost pass through; the bound does not — it belongs to one job
  // and must not become the peer's global bound_.
  StepResult out;
  out.units_done = inner.units_done;
  out.sim_cost = inner.sim_cost;
  return out;
}

std::vector<JobBag::ChunkRecord> JobBag::take_chunk_records() {
  std::vector<ChunkRecord> out;
  out.swap(chunks_);
  return out;
}

}  // namespace olb::lb
