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

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace olb::bb {

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
  /// `processing` is machine-major, p[k*jobs + j]. The total processing
  /// time must stay below 2^31, so every makespan and bound fits in 32 bits.
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

  /// Rank of job j when all jobs are sorted by tail_after(·, k) ascending,
  /// ties broken by job id.
  int tail_rank(int j, int k) const {
    return tail_rank_[static_cast<std::size_t>(j) * static_cast<std::size_t>(machines_) +
                      static_cast<std::size_t>(k)];
  }

  /// tail_after(·, k) of the job at rank r on machine k.
  std::uint32_t ranked_tail(int r, int k) const {
    return ranked_tail_[static_cast<std::size_t>(k) * static_cast<std::size_t>(jobs_) +
                        static_cast<std::size_t>(r)];
  }

  /// Johnson's rule for the two-machine flowshop on machines (ka, kb): does
  /// job x go before job y? A strict total order over job ids.
  bool johnson_before(int x, int y, int ka, int kb) const;

  /// All jobs in Johnson's order (johnson_before) for the machine pair
  /// (k, k+1), k < machines() - 1.
  std::span<const int> johnson_order(int k) const {
    return {johnson_order_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(jobs_),
            static_cast<std::size_t>(jobs_)};
  }

 private:
  std::string name_;
  int jobs_;
  int machines_;
  std::vector<int> processing_;             ///< machine-major
  std::vector<std::int64_t> tail_;          ///< tail_[j*(m+1)+k] = sum of p(j, k..m-1)
  std::vector<int> tail_rank_;              ///< job-major [j*m + k]
  std::vector<std::uint32_t> ranked_tail_;  ///< machine-major [k*n + rank]
  std::vector<int> johnson_order_;          ///< [k*n + i], k < m-1
};

/// NEH constructive heuristic (Nawaz-Enscore-Ham 1983): returns a good
/// permutation; used for warm-starting bounds and as a test oracle anchor.
std::vector<int> neh_heuristic(const FlowshopInstance& inst);

/// Exact optimum by exhaustive permutation scan. Only for jobs() <= 10.
std::int64_t brute_force_optimum(const FlowshopInstance& inst,
                                 std::vector<int>* best_perm = nullptr);

}  // namespace olb::bb
