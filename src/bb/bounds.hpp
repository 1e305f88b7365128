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
// remaining jobs as a mask over that machine's tail ranks, so appending a
// job costs O(m) and the smallest remaining tail is one count-trailing-zeros
// into FlowshopInstance::ranked_tail. kTwoMachine walks each pair's
// precomputed Johnson order, skipping scheduled jobs: O(m·n) per node.
//
// Soundness (LB <= makespan of every completion of the prefix) is covered by
// property tests against exhaustive enumeration on small instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "bb/flowshop.hpp"

namespace olb::bb {

enum class BoundKind {
  kOneMachine,
  kTwoMachine,  ///< one-machine bound strengthened with adjacent Johnson pairs
};

/// Most jobs a prefix row's masks can hold.
inline constexpr int kMaxRowJobs = 32;

/// Words in a prefix row of an m-machine instance. A prefix row is one
/// partial schedule's bound state; its words are bounded by the total
/// processing time, so all lie below 2^31:
///   row[k]       completion time of the prefix on machine k
///   row[m + k]   remaining jobs' total processing time on machine k
///   row[2m + k]  remaining jobs as a bit mask over tail_rank(·, k)
///   row[3m]      remaining jobs as a bit mask over job ids
constexpr std::size_t prefix_row_words(int machines) {
  return 3 * static_cast<std::size_t>(machines) + 1;
}

/// Sets `row`'s loads and masks for the remaining jobs `remaining` (a job
/// mask); its completion times are left as they are.
void set_remaining(const FlowshopInstance& inst, std::uint32_t remaining,
                   std::uint32_t* row);

/// Writes to `child` the row of `parent`'s prefix followed by `job`, which
/// must be one of `parent`'s remaining jobs. O(m).
void append_job(const FlowshopInstance& inst, const std::uint32_t* parent, int job,
                std::uint32_t* child);

/// Lower bound of a row with at least one remaining job.
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
/// The reference that row_bound's precomputed Johnson orders are tested
/// against.
std::int64_t johnson_cmax(const FlowshopInstance& inst, std::span<const int> jobs,
                          int ka, int kb);

}  // namespace olb::bb
