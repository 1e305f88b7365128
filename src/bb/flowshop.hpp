// The permutation flowshop scheduling problem (PFSP), F|perm|Cmax.
//
// n jobs each pass through machines 0..m-1 in order; a schedule is a single
// permutation of jobs common to all machines; the objective is to minimise
// the makespan (completion time of the last job on the last machine).
//
// Instances come from Taillard's generator (E. Taillard, "Benchmarks for
// basic scheduling problems", EJOR 64(2), 1993): a portable Lehmer LCG
// (a=16807, m=2^31-1, Schrage decomposition) draws processing times in
// [1, 99], machine-major. We embed the published time seeds of the Ta-20x20
// family (instances Ta21..Ta30 used in the paper) and derive *scaled
// analogues* by taking the leading n_jobs x n_machines submatrix of the full
// 20x20 instance — the paper's workload at a size solvable on one host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace olb::bb {

/// Most jobs an instance may have: the bound keeps job sets as bit masks in
/// 32-bit words (bounds.hpp).
inline constexpr int kMaxRowJobs = 32;

/// Words per machine in FlowshopInstance::ranked_tails: the zero pad and a
/// tail per rank.
inline constexpr std::size_t kRankedTailsStride = kMaxRowJobs + 1;

/// Machines per block of the bound's vector pass (bounds.hpp).
inline constexpr int kMachineBlock = 8;

/// Words in one per-machine section of a bound row or a job row: the
/// machines rounded up to whole blocks. The words past the last machine are
/// pad lanes.
constexpr std::size_t machine_lanes(int machines) {
  return static_cast<std::size_t>((machines + kMachineBlock - 1) / kMachineBlock *
                                  kMachineBlock);
}

/// Taillard's portable uniform generator. Reproduces his published streams
/// exactly; also reusable wherever the repo needs his RNG.
class TaillardRng {
 public:
  explicit TaillardRng(std::int64_t seed);

  /// Uniform integer in [low, high].
  int next(int low, int high);

  std::int64_t state() const { return seed_; }

 private:
  std::int64_t seed_;
};

class FlowshopInstance {
 public:
  /// `processing` is machine-major, p[k*jobs + j]. At most kMaxRowJobs
  /// jobs, and the total processing time must stay below 2^31, so every
  /// makespan and bound fits in 32 bits.
  FlowshopInstance(std::string name, int jobs, int machines,
                   std::vector<int> processing);

  /// Generates a jobs x machines instance from a Taillard time seed.
  static FlowshopInstance taillard(std::string name, int jobs, int machines,
                                   std::int64_t time_seed);

  /// Scaled analogue of Ta(21 + index): leading jobs x machines submatrix of
  /// the full 20x20 instance generated from the published seed. index in [0, 10).
  static FlowshopInstance ta20x20_scaled(int index, int jobs, int machines);

  /// The published time seeds of Taillard's 20x20 family (Ta21..Ta30).
  static std::span<const std::int64_t> ta20x20_seeds();

  const std::string& name() const { return name_; }
  int jobs() const { return jobs_; }
  int machines() const { return machines_; }
  /// machine_lanes(machines()): the length of each section of job_row().
  std::size_t lanes() const { return lanes_; }

  /// Processing time of job j on machine k.
  int p(int j, int k) const {
    return processing_[static_cast<std::size_t>(k) * static_cast<std::size_t>(jobs_) +
                       static_cast<std::size_t>(j)];
  }

  /// Makespan of a complete permutation (size jobs()).
  std::int64_t makespan(std::span<const int> permutation) const;

  /// Appends job j to a partial schedule's machine-completion vector
  /// (size machines(); all zero = empty schedule).
  void advance(std::span<std::int64_t> completion, int j) const;

  /// Sum of processing times of job j on machines (k, machines-1].
  std::int64_t tail_after(int j, int k) const {
    return tail_[static_cast<std::size_t>(j) * static_cast<std::size_t>(machines_ + 1) +
                 static_cast<std::size_t>(k + 1)];
  }

  /// Total processing time of job j across all machines.
  std::int64_t total_time(int j) const { return tail_after(j, -1); }

  // --- tables for the incremental lower bound (bounds.hpp), built once ---

  /// Job j's row: three sections of lanes() words, one word per machine k.
  ///   [0, L)    P: p(j, 0) + ... + p(j, k), job j's prefix sum
  ///   [L, 2L)   p: p(j, k)
  ///   [2L, 3L)  the mask of all bits but j's tail rank on k, ~(1 << rank),
  ///             where rank orders all jobs by tail_after(·, k) ascending,
  ///             ties by job id
  /// A pad lane k >= machines() holds P = p(j, 0) + ... + p(j, m-1), p = 0
  /// and a mask that clears nothing.
  const std::uint32_t* job_row(int j) const {
    return job_rows_.data() + static_cast<std::size_t>(j) * 3 * lanes_;
  }

  /// Machine k's tails by rank: entry 0 is a zero pad, the smallest tail of
  /// an empty rank mask, and entry r + 1 is tail_after(·, k) of the job at
  /// rank r; entries past jobs() are never read. Machine k + 1's table
  /// starts kRankedTailsStride words after machine k's. Pad lanes have
  /// all-zero tables, so every lane < lanes() has one.
  const std::uint32_t* ranked_tails(int k) const {
    return ranked_tails_.data() + static_cast<std::size_t>(k) * kRankedTailsStride;
  }

  /// Johnson's rule for the two-machine flowshop on machines (ka, kb): does
  /// job x go before job y? A strict total order over job ids.
  bool johnson_before(int x, int y, int ka, int kb) const;

  /// One job of a machine pair's Johnson table.
  struct JohnsonStep {
    std::uint32_t bit;  ///< 1 << j
    std::uint32_t pa;   ///< p(j, k)
    std::uint32_t pb;   ///< p(j, k + 1)
  };

  /// All jobs in Johnson's order (johnson_before) for the machine pair
  /// (k, k+1), k < machines() - 1.
  std::span<const JohnsonStep> johnson_pair(int k) const {
    return {johnson_pairs_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(jobs_),
            static_cast<std::size_t>(jobs_)};
  }

 private:
  std::string name_;
  int jobs_;
  int machines_;
  std::size_t lanes_;
  std::vector<int> processing_;              ///< machine-major
  std::vector<std::int64_t> tail_;           ///< tail_[j*(m+1)+k] = sum of p(j, k..m-1)
  std::vector<std::uint32_t> job_rows_;      ///< job-major [j*3*lanes + word]
  std::vector<std::uint32_t> ranked_tails_;  ///< lane-major [k*kRankedTailsStride + 1 + rank]
  std::vector<JohnsonStep> johnson_pairs_;   ///< [k*n + i], k < m-1
};

/// NEH constructive heuristic (Nawaz-Enscore-Ham 1983): returns a good
/// permutation; used for warm-starting bounds and as a test oracle anchor.
std::vector<int> neh_heuristic(const FlowshopInstance& inst);

/// Exact optimum by exhaustive permutation scan. Only for jobs() <= 10.
std::int64_t brute_force_optimum(const FlowshopInstance& inst,
                                 std::vector<int>* best_perm = nullptr);

}  // namespace olb::bb
