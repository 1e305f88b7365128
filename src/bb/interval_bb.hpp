// Interval-encoded sequential Branch-and-Bound for the flowshop problem.
//
// Work encoding (Mezmaz, Melab, Talbi — IPDPS'07): the permutation tree is
// labelled so that the subtree fixing a length-d prefix covers a contiguous
// range of (jobs-d)! leaf ranks; any piece of B&B work is therefore just an
// interval [begin, end) of [0, jobs!). The paper uses the *interval length*
// as the work amount, splits work by handing over a right-hand sub-interval,
// and merges pieces by keeping a small pool of disjoint intervals.
//
// IntervalExplorer performs a budgeted DFS over one interval with
// best-first-free lexicographic branching and LB pruning. The right edge
// (`end`) may shrink at any chunk boundary when a thief steals a
// sub-interval; the DFS re-checks every child range against the current
// edge, so stolen regions are never explored locally. Each depth keeps one
// prefix row (bounds.hpp); a child is one inlined pass over the machines
// that writes its row and returns its one-machine bound, so a node costs O(m).
// The DFS loop is written once and built twice, around either child pass:
// run() takes the AVX2 pass on CPUs that have AVX2 (native_child_pass).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bb/bounds.hpp"
#include "bb/flowshop.hpp"
#include "support/factorial.hpp"

namespace olb::bb {

/// Write-only global incumbent recorder shared by every peer of a run.
/// Peers *prune* only with knowledge that travelled through the simulated
/// network; this recorder exists so the harness can read the final solution
/// (and so tests can verify optimality).
class BestSolution {
 public:
  void offer(std::int64_t makespan, std::vector<int> permutation) {
    std::scoped_lock lock(mu_);
    // Ties keep the lexicographically smaller permutation, so processes that
    // found different optimal schedules agree once their results merge.
    if (makespan < makespan_ ||
        (makespan == makespan_ && permutation < permutation_)) {
      makespan_ = makespan;
      permutation_ = std::move(permutation);
    }
  }

  std::int64_t makespan() const {
    std::scoped_lock lock(mu_);
    return makespan_;
  }

  std::vector<int> permutation() const {
    std::scoped_lock lock(mu_);
    return permutation_;
  }

 private:
  mutable std::mutex mu_;
  std::int64_t makespan_ = std::numeric_limits<std::int64_t>::max();
  std::vector<int> permutation_;
};

class IntervalExplorer {
 public:
  /// Explores [begin, end) of the instance's [0, jobs!) leaf-rank space.
  IntervalExplorer(std::shared_ptr<const FlowshopInstance> inst,
                   std::uint64_t begin, std::uint64_t end, BoundKind bound_kind);

  IntervalExplorer(IntervalExplorer&&) noexcept = default;
  IntervalExplorer& operator=(IntervalExplorer&&) noexcept = default;

  struct Progress {
    std::uint64_t nodes = 0;   ///< bound/leaf evaluations performed
    bool improved = false;     ///< ub was improved during this call
  };

  /// Runs up to max_nodes evaluations. `ub` is the caller's incumbent
  /// (in-out); improvements are also offered to `recorder` if non-null.
  Progress run(std::uint64_t max_nodes, std::int64_t& ub, BestSolution* recorder) {
    return run(max_nodes, ub, recorder, native_child_pass());
  }

  /// run() on the given child pass, which gives the same nodes, bounds and
  /// Progress on either; tests compare the two. kAvx2 needs a CPU with AVX2.
  Progress run(std::uint64_t max_nodes, std::int64_t& ub, BestSolution* recorder,
               ChildPass pass);

  std::uint64_t position() const { return pos_; }
  std::uint64_t end() const { return end_; }
  std::uint64_t remaining() const { return end_ > pos_ ? end_ - pos_ : 0; }
  bool done() const { return remaining() == 0; }

  /// Gives away [new_end, end): shrinks this explorer's right edge.
  /// Requires position() < new_end < end().
  void shrink_end(std::uint64_t new_end);

 private:
  struct Frame {
    std::uint64_t lo = 0;       ///< leaf rank of the first leaf under this prefix
    std::uint32_t untried = 0;  ///< remaining jobs not yet branched on (job mask)
    int next_child = 0;         ///< sibling index of the lowest untried job
  };

  using ChildPassFn = std::int64_t (*)(const FlowshopInstance&, const std::uint32_t*, int,
                                       std::uint32_t*);
  /// run()'s DFS loop on one child pass (append_job or append_job_avx2).
  template <ChildPassFn kAppendJob>
  Progress dfs(std::uint64_t max_nodes, std::int64_t& ub, BestSolution* recorder);
  /// dfs() on the AVX2 pass, compiled for AVX2 (interval_bb.cpp).
  struct Avx2;

  std::uint32_t* row(std::size_t depth) { return rows_.data() + depth * row_words_; }

  std::shared_ptr<const FlowshopInstance> inst_;
  BoundKind bound_kind_;
  std::uint64_t pos_;  ///< lowest unexplored leaf rank
  std::uint64_t end_;
  std::size_t row_words_;

  // Per-depth scratch, preallocated once: the prefix row of every depth in
  // one allocation, the DFS frames and the chosen path.
  std::vector<std::uint32_t> rows_;
  std::vector<Frame> stack_;
  std::vector<int> path_;
};

/// Convenience: fully sequential B&B over the whole instance.
struct SequentialResult {
  std::int64_t optimum = 0;
  std::vector<int> permutation;
  std::uint64_t nodes = 0;  ///< node evaluations performed
};
SequentialResult solve_sequential(const FlowshopInstance& inst, BoundKind bound_kind,
                                  std::int64_t initial_ub = std::numeric_limits<std::int64_t>::max());

}  // namespace olb::bb
