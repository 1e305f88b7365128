#include "bb/bounds.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "support/check.hpp"

namespace olb::bb {

void set_completion(const FlowshopInstance& inst, std::span<const std::int64_t> completion,
                    std::uint32_t* row) {
  const int m = inst.machines();
  OLB_CHECK(static_cast<int>(completion.size()) == m);
  for (int k = 0; k < m; ++k) {
    const std::int64_t c = completion[static_cast<std::size_t>(k)];
    OLB_CHECK(c >= 0 && c <= std::numeric_limits<std::int32_t>::max());
    row[k] = static_cast<std::uint32_t>(c);
  }
  std::fill(row + m, row + inst.lanes(), row[m - 1]);
}

void set_remaining(const FlowshopInstance& inst, std::uint32_t remaining,
                   std::uint32_t* row) {
  const int m = inst.machines();
  const std::size_t lanes = inst.lanes();
  OLB_CHECK(inst.jobs() == kMaxRowJobs || remaining >> inst.jobs() == 0);
  std::fill(row + lanes, row + 3 * lanes, 0);
  for (std::uint32_t rest = remaining; rest != 0; rest &= rest - 1) {
    const std::uint32_t* job_row = inst.job_row(std::countr_zero(rest));
    for (int k = 0; k < m; ++k) {
      row[lanes + k] += job_row[lanes + k];
      row[2 * lanes + k] |= ~job_row[2 * lanes + k];
    }
  }
  row[3 * lanes] = remaining;
}

std::int64_t row_bound(const FlowshopInstance& inst, const std::uint32_t* row,
                       BoundKind kind) {
  const int m = inst.machines();
  const std::size_t lanes = inst.lanes();
  std::uint32_t best = 0;
  for (int k = 0; k < m; ++k) {
    best = std::max(best, bound_term(inst.ranked_tails(k), row[k], row[lanes + k],
                                     row[2 * lanes + k]));
  }
  if (kind == BoundKind::kTwoMachine) {
    // Each adjacent pair (k, k+1): Johnson's two-machine makespan of the
    // remaining jobs, released at the prefix's completion on k. A scheduled
    // job adds 0 to both sums, and then max(tb, ta) is tb, because tb >= ta
    // after every step; so the walk needs no branch.
    const std::uint32_t remaining = row[3 * lanes];
    for (int k = 0; k + 1 < m; ++k) {
      std::uint32_t ta = 0;
      std::uint32_t tb = 0;
      for (const FlowshopInstance::JohnsonStep& step : inst.johnson_pair(k)) {
        const std::uint32_t on = 0U - static_cast<std::uint32_t>((remaining & step.bit) != 0);
        ta += step.pa & on;
        tb = std::max(tb, ta) + (step.pb & on);
      }
      best = std::max(best, bound_term(inst.ranked_tails(k + 1), row[k], tb,
                                       row[2 * lanes + k + 1]));
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
  set_completion(inst, completion, row.data());
  std::uint32_t mask = 0;
  for (int j : remaining) {
    OLB_CHECK(j >= 0 && j < inst.jobs());
    const std::uint32_t bit = std::uint32_t{1} << j;
    OLB_CHECK_MSG((mask & bit) == 0, "remaining lists a job twice");
    mask |= bit;
  }
  set_remaining(inst, mask, row.data());
  return row_bound(inst, row.data(), kind);
}

}  // namespace olb::bb
