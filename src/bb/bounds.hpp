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
// fused pass (append_job) that reads the parent row once, writes the child
// row and returns the child's one-machine bound. There are two passes over
// one layout, and they give equal rows and bounds:
//
//  * append_job, the scalar pass: machine by machine, a max-plus step for
//    the completion time, a count of the mask's lowest bit and a table load.
//    It runs on CPUs without AVX2, and tests take it as the reference.
//  * append_job_avx2 (x86-64): the machines as lanes, in blocks of
//    kMachineBlock = 8, with the running max carried across blocks. The
//    completion times are a prefix max over the lanes of
//    C[k] - (P_j[k] - p_j[k]) plus P_j[k], where P_j is job j's prefix sum
//    of processing times, so the max-plus recurrence needs no lane-by-lane
//    step. Loads and masks are one subtraction and one AND, the smallest
//    tails one gather, the bound one horizontal max. IntervalExplorer takes
//    it wherever the CPU has AVX2 (native_child_pass).
//
// The layout. Each per-machine section of a row is machine_lanes(m) words,
// m rounded up to whole blocks, so a block load never leaves its section.
// The pad lanes past machine m - 1 hold defined values, so rows compare
// whole: a pad completion time equals the last machine's, and pad loads and
// masks are 0, which keeps each pad lane's bound term at the prefix's
// makespan, never above machine m - 1's term. Both passes read two tables
// of FlowshopInstance, built once:
//
//  * job_row(j): P_j, p_j and per machine the mask that clears j's tail
//    rank, one section each, so a child's load and mask are one subtraction
//    and one AND;
//  * ranked_tails(k): a zero pad, then the tails after k in rank order. The
//    index rule: a mask's smallest remaining tail is entry
//    bit_width(mask & -mask), the lowest rank plus one, and an empty mask
//    reads the pad, so a leaf takes no branch. The vector pass reads the
//    same index from the exponent of the lowest bit converted to float.
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
#include <limits>
#include <span>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bb/flowshop.hpp"

namespace olb::bb {

enum class BoundKind {
  kOneMachine,
  kTwoMachine,  ///< one-machine bound strengthened with adjacent Johnson pairs
};

/// Words in a prefix row of an m-machine instance. A prefix row is one
/// partial schedule's bound state in three sections of L = machine_lanes(m)
/// words, then one word; its words are bounded by the total processing time,
/// so all lie below 2^31:
///   row[k]       completion time of the prefix on machine k
///   row[L + k]   remaining jobs' total processing time on machine k
///   row[2L + k]  remaining jobs as a bit mask over their tail ranks on k
///   row[3L]      remaining jobs as a bit mask over job ids
/// For m = 8 that is 25 words. Pad lanes k >= m hold row[m - 1], 0 and 0.
constexpr std::size_t prefix_row_words(int machines) {
  return 3 * machine_lanes(machines) + 1;
}

/// The bound's term for the remaining jobs ending on machine k: `release`,
/// plus `span`, their time up to and including k, plus the smallest tail
/// after k among them. `ranked_tails` is FlowshopInstance::ranked_tails(k);
/// an empty `tail_ranks` selects its zero pad. The one-machine term is
/// (C[k], load on k); a pair (k-1, k)'s is (C[k-1], its Johnson makespan).
inline std::uint32_t bound_term(const std::uint32_t* ranked_tails, std::uint32_t release,
                                std::uint32_t span, std::uint32_t tail_ranks) {
  return release + span + ranked_tails[std::bit_width(tail_ranks & (0U - tail_ranks))];
}

/// Sets `row`'s completion times, pad lanes included, to `completion` (size
/// machines(), each in [0, 2^31)).
void set_completion(const FlowshopInstance& inst, std::span<const std::int64_t> completion,
                    std::uint32_t* row);

/// Sets `row`'s loads and masks for the remaining jobs `remaining` (a job
/// mask); its completion times are left as they are.
void set_remaining(const FlowshopInstance& inst, std::uint32_t remaining,
                   std::uint32_t* row);

/// Writes to `child` the row of `parent`'s prefix followed by `job`, which
/// must be one of `parent`'s remaining jobs, and returns the child's
/// one-machine bound: row_bound(child, kOneMachine), or the makespan for a
/// leaf. The scalar pass: one loop over the machines. Always inlined, so the
/// explorer's DFS loop makes no call per node.
[[gnu::always_inline]] inline std::int64_t append_job(const FlowshopInstance& inst,
                                                      const std::uint32_t* parent, int job,
                                                      std::uint32_t* child) {
  const int m = inst.machines();
  const std::size_t lanes = inst.lanes();
  const std::uint32_t* p = inst.job_row(job) + lanes;
  const std::uint32_t* keep = p + lanes;
  const std::uint32_t* ranked_tails = inst.ranked_tails(0);
  std::uint32_t prev = 0;
  std::uint32_t best = 0;
  std::size_t k = 0;
#pragma GCC unroll 2
  for (; k < static_cast<std::size_t>(m); ++k, ranked_tails += kRankedTailsStride) {
    prev = std::max(prev, parent[k]) + p[k];
    const std::uint32_t load = parent[lanes + k] - p[k];
    const std::uint32_t tail_ranks = parent[2 * lanes + k] & keep[k];
    child[k] = prev;
    child[lanes + k] = load;
    child[2 * lanes + k] = tail_ranks;
    best = std::max(best, bound_term(ranked_tails, prev, load, tail_ranks));
  }
  for (; k < lanes; ++k) {
    child[k] = prev;
    child[lanes + k] = 0;
    child[2 * lanes + k] = 0;
  }
  child[3 * lanes] = parent[3 * lanes] & ~(std::uint32_t{1} << job);
  return best;
}

#if defined(__x86_64__)
namespace detail {

/// One block of eight lanes of append_job_avx2. `in`, `out` and `jobs`
/// point at the block in the first section of the parent row, the child
/// row and the job row; each section is `section` blocks long. `table`
/// holds each lane's offset into ranked_tails(0), and `carry` the prefix
/// max of the lanes before the block, broadcast; it is updated to include
/// the block. Returns the block's bound terms.
[[gnu::always_inline]] __attribute__((target("avx2"))) inline __m256i append_block(
    const __m256i* in, __m256i* out, const __m256i* jobs, std::size_t section,
    const int* tails, __m256i table, __m256i& carry) {
  const __m256i prefix = _mm256_loadu_si256(jobs);
  const __m256i p = _mm256_loadu_si256(jobs + section);
  // C'[k] = P[k] + max over i <= k of (C[i] - (P[i] - p[i])); the
  // differences may be negative, so the maxima are signed. Three steps scan
  // each 128-bit half, a fourth carries lane 3 into the upper half.
  __m256i x = _mm256_sub_epi32(_mm256_loadu_si256(in), _mm256_sub_epi32(prefix, p));
  x = _mm256_max_epi32(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 1, 0, 0)));
  x = _mm256_max_epi32(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 1, 0)));
  x = _mm256_max_epi32(
      x, _mm256_permutevar8x32_epi32(x, _mm256_setr_epi32(0, 1, 2, 3, 3, 3, 3, 3)));
  x = _mm256_max_epi32(x, carry);
  carry = _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(7));
  const __m256i done = _mm256_add_epi32(x, prefix);
  const __m256i load = _mm256_sub_epi32(_mm256_loadu_si256(in + section), p);
  const __m256i ranks = _mm256_and_si256(_mm256_loadu_si256(in + 2 * section),
                                         _mm256_loadu_si256(jobs + 2 * section));
  _mm256_storeu_si256(out, done);
  _mm256_storeu_si256(out + section, load);
  _mm256_storeu_si256(out + 2 * section, ranks);
  // The float exponent of 2^r is 127 + r (bits 23-30; bit 31 is the sign,
  // set for r = 31) and that of 0 is 0. Saturating byte subtraction maps
  // exponent byte e to e - 126, so rank + 1, or 0 for an empty mask, and
  // clears the sign's byte.
  const __m256i lowest =
      _mm256_and_si256(ranks, _mm256_sub_epi32(_mm256_setzero_si256(), ranks));
  const __m256i exponent =
      _mm256_srli_epi32(_mm256_castps_si256(_mm256_cvtepi32_ps(lowest)), 23);
  const __m256i index =
      _mm256_add_epi32(_mm256_subs_epu8(exponent, _mm256_set1_epi32(0xff7e)), table);
  const __m256i tail = _mm256_i32gather_epi32(tails, index, 4);
  return _mm256_add_epi32(_mm256_add_epi32(done, load), tail);
}

}  // namespace detail

/// append_job's AVX2 pass: the same child row and bound, eight machines a
/// block. Call it only where native_child_pass() is kAvx2.
__attribute__((target("avx2"))) inline std::int64_t append_job_avx2(
    const FlowshopInstance& inst, const std::uint32_t* parent, int job,
    std::uint32_t* child) {
  const std::size_t lanes = inst.lanes();
  const std::size_t section = lanes / kMachineBlock;
  const auto* in = reinterpret_cast<const __m256i*>(parent);
  auto* out = reinterpret_cast<__m256i*>(child);
  const auto* jobs = reinterpret_cast<const __m256i*>(inst.job_row(job));
  const auto* tails = reinterpret_cast<const int*>(inst.ranked_tails(0));
  constexpr int kStride = static_cast<int>(kRankedTailsStride);
  __m256i table = _mm256_setr_epi32(0, kStride, 2 * kStride, 3 * kStride, 4 * kStride,
                                    5 * kStride, 6 * kStride, 7 * kStride);
  __m256i carry = _mm256_set1_epi32(std::numeric_limits<std::int32_t>::min());
  // The first block out of the loop: for m <= 8 the loop never runs.
  __m256i best = detail::append_block(in, out, jobs, section, tails, table, carry);
  for (std::size_t b = 1; b < section; ++b) {
    table = _mm256_add_epi32(table, _mm256_set1_epi32(kMachineBlock * kStride));
    best = _mm256_max_epi32(
        best, detail::append_block(in + b, out + b, jobs + b, section, tails, table, carry));
  }
  child[3 * lanes] = parent[3 * lanes] & ~(std::uint32_t{1} << job);
  __m128i half = _mm_max_epi32(_mm256_castsi256_si128(best), _mm256_extracti128_si256(best, 1));
  half = _mm_max_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(1, 0, 3, 2)));
  half = _mm_max_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(half);
}
#endif

/// The two child passes: append_job and append_job_avx2.
enum class ChildPass { kScalar, kAvx2 };

/// The child pass for this CPU, decided once per process: kAvx2 on an
/// x86-64 CPU with AVX2, kScalar elsewhere.
inline ChildPass native_child_pass() {
#if defined(__x86_64__)
  static const ChildPass pass = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? ChildPass::kAvx2 : ChildPass::kScalar;
  }();
  return pass;
#else
  return ChildPass::kScalar;
#endif
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
