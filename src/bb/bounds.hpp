// Lower bounds for partial flowshop schedules.
//
// The paper uses "the well-known algorithm proposed in [16]" — Lageweg,
// Lenstra, Rinnooy Kan, "A general bounding scheme for the permutation
// flow-shop problem" (Operations Research 26(1), 1978). We implement two
// members of that bounding family:
//
//  * kOneMachine — for every machine k: the machine cannot finish the
//    remaining jobs before C[k] + sum of their processing times on k, and
//    the last of them still needs at least the smallest tail through the
//    downstream machines.
//  * kTwoMachine — additionally, for every adjacent machine pair (k, k+1):
//    C[k] + the optimal two-machine makespan of the remaining jobs (Johnson's
//    rule, exact for F2) + the smallest downstream tail. Shifting both
//    machine release times down to min(C[k], C[k+1]) = C[k] keeps the bound
//    valid for any continuation.
//
// The bound is incremental. A prefix's state is one row of 32-bit words
// (prefix_row_words below) that keeps each machine's remaining load and the
// remaining jobs as a mask over that machine's tail ranks. A child is one
// inlined pass over the machines (append_job) that reads the parent row
// once, writes the child row and returns the child's one-machine bound.
// It reads two tables of FlowshopInstance, built once:
//
//  * job_row(j): 2m contiguous words, p(j, 0..m-1), then per machine the
//    mask that clears j's tail rank, so a child's load and mask are one
//    subtraction and one AND;
//  * ranked_tails(k): the tails after k in rank order, then a zero pad, so
//    the smallest remaining tail is one count-trailing-zeros and a leaf
//    child (empty mask) takes no branch.
//
// kTwoMachine adds, per machine pair, a walk over johnson_pair(k): every
// job as (job bit, p_k, p_k+1) in Johnson order, where a scheduled job adds
// nothing, so the walk has no branch: O(m·n) per node.
//
// Soundness (LB <= makespan of every completion of the prefix) is covered by
// property tests against exhaustive enumeration on small instances.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "bb/flowshop.hpp"

namespace olb::bb {

enum class BoundKind {
  kOneMachine,
  kTwoMachine,  ///< one-machine bound strengthened with adjacent Johnson pairs
};

/// Words in a prefix row of an m-machine instance. A prefix row is one
/// partial schedule's bound state; its words are bounded by the total
/// processing time, so all lie below 2^31:
///   row[k]       completion time of the prefix on machine k
///   row[m + k]   remaining jobs' total processing time on machine k
///   row[2m + k]  remaining jobs as a bit mask over their tail ranks on k
///   row[3m]      remaining jobs as a bit mask over job ids
constexpr std::size_t prefix_row_words(int machines) {
  return 3 * static_cast<std::size_t>(machines) + 1;
}

/// The bound's term for the remaining jobs ending on machine k: `release`,
/// plus `span`, their time up to and including k, plus the smallest tail
/// after k among them. `ranked_tails` is FlowshopInstance::ranked_tails(k);
/// an empty `tail_ranks` selects its zero pad (bit kMaxRowJobs stands for
/// the pad, so the count needs no zero test). The one-machine term is
/// (C[k], load on k); a pair (k-1, k)'s is (C[k-1], its Johnson makespan).
inline std::uint32_t bound_term(const std::uint32_t* ranked_tails, std::uint32_t release,
                                std::uint32_t span, std::uint32_t tail_ranks) {
  const std::uint64_t ranks = std::uint64_t{tail_ranks} | std::uint64_t{1} << kMaxRowJobs;
  return release + span + ranked_tails[std::countr_zero(ranks)];
}

/// Sets `row`'s loads and masks for the remaining jobs `remaining` (a job
/// mask); its completion times are left as they are.
void set_remaining(const FlowshopInstance& inst, std::uint32_t remaining,
                   std::uint32_t* row);

/// Writes to `child` the row of `parent`'s prefix followed by `job`, which
/// must be one of `parent`'s remaining jobs, and returns the child's
/// one-machine bound: row_bound(child, kOneMachine), or the makespan for a
/// leaf. One pass over the machines.
inline std::int64_t append_job(const FlowshopInstance& inst, const std::uint32_t* parent,
                               int job, std::uint32_t* child) {
  const int m = inst.machines();
  const std::uint32_t* job_row = inst.job_row(job);
  const std::uint32_t* ranked_tails = inst.ranked_tails(0);
  std::uint32_t prev = 0;
  std::uint32_t best = 0;
#pragma GCC unroll 2
  for (int k = 0; k < m; ++k, ranked_tails += kRankedTailsStride) {
    prev = std::max(prev, parent[k]) + job_row[k];
    const std::uint32_t load = parent[m + k] - job_row[k];
    const std::uint32_t tail_ranks = parent[2 * m + k] & job_row[m + k];
    child[k] = prev;
    child[m + k] = load;
    child[2 * m + k] = tail_ranks;
    best = std::max(best, bound_term(ranked_tails, prev, load, tail_ranks));
  }
  child[3 * m] = parent[3 * m] & ~(std::uint32_t{1} << job);
  return best;
}

/// Lower bound of a row; with no remaining job, the largest completion.
std::int64_t row_bound(const FlowshopInstance& inst, const std::uint32_t* row,
                       BoundKind kind);

/// Lower bound on the makespan of any completion of a partial schedule.
/// `completion` is the machine-completion vector of the fixed prefix
/// (size machines(), all zero for the empty prefix); `remaining` lists the
/// unscheduled jobs. With empty `remaining` this returns the prefix makespan.
/// Builds the prefix's row and calls row_bound.
std::int64_t lower_bound(const FlowshopInstance& inst,
                         std::span<const std::int64_t> completion,
                         std::span<const int> remaining, BoundKind kind);

/// Exact minimum makespan of a two-machine flowshop on the given jobs using
/// processing times of machines (ka, kb), by Johnson's rule. Released at 0.
/// The reference that row_bound's precomputed Johnson tables are tested
/// against.
std::int64_t johnson_cmax(const FlowshopInstance& inst, std::span<const int> jobs,
                          int ka, int kb);

}  // namespace olb::bb
