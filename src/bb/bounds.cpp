#include "bb/bounds.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "support/check.hpp"

namespace olb::bb {

namespace {

std::uint32_t job_bit(int j) { return std::uint32_t{1} << j; }

/// The smallest tail_after(j, k) over the jobs j in `tail_ranks` (non-empty).
std::uint32_t min_tail(const FlowshopInstance& inst, std::uint32_t tail_ranks, int k) {
  return inst.ranked_tail(std::countr_zero(tail_ranks), k);
}

}  // namespace

void set_remaining(const FlowshopInstance& inst, std::uint32_t remaining,
                   std::uint32_t* row) {
  const int m = inst.machines();
  OLB_CHECK(inst.jobs() <= kMaxRowJobs);
  OLB_CHECK(inst.jobs() == kMaxRowJobs || remaining >> inst.jobs() == 0);
  for (int k = 0; k < m; ++k) {
    std::uint32_t load = 0;
    std::uint32_t tail_ranks = 0;
    for (std::uint32_t rest = remaining; rest != 0; rest &= rest - 1) {
      const int j = std::countr_zero(rest);
      load += static_cast<std::uint32_t>(inst.p(j, k));
      tail_ranks |= job_bit(inst.tail_rank(j, k));
    }
    row[m + k] = load;
    row[2 * m + k] = tail_ranks;
  }
  row[3 * m] = remaining;
}

void append_job(const FlowshopInstance& inst, const std::uint32_t* parent, int job,
                std::uint32_t* child) {
  const int m = inst.machines();
  std::uint32_t prev = 0;
  for (int k = 0; k < m; ++k) {
    const auto p = static_cast<std::uint32_t>(inst.p(job, k));
    prev = std::max(prev, parent[k]) + p;
    child[k] = prev;
    child[m + k] = parent[m + k] - p;
    child[2 * m + k] = parent[2 * m + k] & ~job_bit(inst.tail_rank(job, k));
  }
  child[3 * m] = parent[3 * m] & ~job_bit(job);
}

std::int64_t row_bound(const FlowshopInstance& inst, const std::uint32_t* row,
                       BoundKind kind) {
  const int m = inst.machines();
  // One machine k: it cannot finish the remaining jobs before its prefix
  // completion plus their load, and the last of them still needs the
  // smallest remaining tail downstream.
  std::uint32_t best = row[m - 1];
  for (int k = 0; k < m; ++k) {
    best = std::max(best, row[k] + row[m + k] + min_tail(inst, row[2 * m + k], k));
  }
  if (kind == BoundKind::kTwoMachine) {
    // Each adjacent pair (k, k+1): Johnson's two-machine makespan of the
    // remaining jobs, released at the prefix's completion on k.
    const std::uint32_t remaining = row[3 * m];
    for (int k = 0; k + 1 < m; ++k) {
      std::uint32_t ta = 0;
      std::uint32_t tb = 0;
      for (int j : inst.johnson_order(k)) {
        if ((remaining & job_bit(j)) == 0) continue;
        ta += static_cast<std::uint32_t>(inst.p(j, k));
        tb = std::max(tb, ta) + static_cast<std::uint32_t>(inst.p(j, k + 1));
      }
      best = std::max(best, row[k] + tb + min_tail(inst, row[2 * m + k + 1], k + 1));
    }
  }
  return best;
}

std::int64_t johnson_cmax(const FlowshopInstance& inst, std::span<const int> jobs,
                          int ka, int kb) {
  std::vector<int> order(jobs.begin(), jobs.end());
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return inst.johnson_before(x, y, ka, kb); });
  std::int64_t ta = 0;
  std::int64_t tb = 0;
  for (int j : order) {
    ta += inst.p(j, ka);
    tb = std::max(tb, ta) + inst.p(j, kb);
  }
  return tb;
}

std::int64_t lower_bound(const FlowshopInstance& inst,
                         std::span<const std::int64_t> completion,
                         std::span<const int> remaining, BoundKind kind) {
  const int m = inst.machines();
  OLB_CHECK(static_cast<int>(completion.size()) == m);
  if (remaining.empty()) return completion[static_cast<std::size_t>(m - 1)];
  std::vector<std::uint32_t> row(prefix_row_words(m));
  for (int k = 0; k < m; ++k) {
    const std::int64_t c = completion[static_cast<std::size_t>(k)];
    OLB_CHECK(c >= 0 && c <= std::numeric_limits<std::int32_t>::max());
    row[static_cast<std::size_t>(k)] = static_cast<std::uint32_t>(c);
  }
  std::uint32_t mask = 0;
  for (int j : remaining) {
    OLB_CHECK(j >= 0 && j < inst.jobs() && j < kMaxRowJobs);
    OLB_CHECK_MSG((mask & job_bit(j)) == 0, "remaining lists a job twice");
    mask |= job_bit(j);
  }
  set_remaining(inst, mask, row.data());
  return row_bound(inst, row.data(), kind);
}

}  // namespace olb::bb
