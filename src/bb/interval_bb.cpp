#include "bb/interval_bb.hpp"

#include <bit>

#include "support/check.hpp"

namespace olb::bb {

IntervalExplorer::IntervalExplorer(std::shared_ptr<const FlowshopInstance> inst,
                                   std::uint64_t begin, std::uint64_t end,
                                   BoundKind bound_kind)
    : inst_(std::move(inst)), bound_kind_(bound_kind), pos_(begin), end_(end),
      row_words_(prefix_row_words(inst_->machines())) {
  const int n = inst_->jobs();
  OLB_CHECK(n <= kMaxFactorialArg);
  OLB_CHECK(begin <= end && end <= factorial(n));
  const auto depths = static_cast<std::size_t>(n) + 1;
  rows_.assign(depths * row_words_, 0);
  const std::uint32_t all_jobs = (std::uint32_t{1} << n) - 1;
  set_remaining(*inst_, all_jobs, row(0));
  path_.assign(static_cast<std::size_t>(n), -1);
  stack_.reserve(depths);
  if (pos_ < end_) stack_.push_back(Frame{0, all_jobs, 0});
}

void IntervalExplorer::shrink_end(std::uint64_t new_end) {
  OLB_CHECK(pos_ < new_end && new_end < end_);
  end_ = new_end;
}

// The DFS loop is always inlined, so each instance is compiled for the
// target of the function it lands in.
template <IntervalExplorer::ChildPassFn kAppendJob>
[[gnu::always_inline]] inline IntervalExplorer::Progress IntervalExplorer::dfs(
    std::uint64_t max_nodes, std::int64_t& ub, BestSolution* recorder) {
  Progress progress;
  const int n = inst_->jobs();
  const auto m = static_cast<std::size_t>(inst_->machines());
  const std::size_t lanes = inst_->lanes();

  while (progress.nodes < max_nodes && !stack_.empty() && pos_ < end_) {
    const std::size_t d = stack_.size() - 1;
    Frame& frame = stack_.back();
    if (frame.untried == 0) {
      stack_.pop_back();
      continue;
    }
    // Children go lowest job first, so child i covers the i-th block of
    // (n-d-1)! leaf ranks under this prefix.
    const std::uint64_t child_width = factorial(n - static_cast<int>(d) - 1);
    const std::uint64_t child_lo =
        frame.lo + static_cast<std::uint64_t>(frame.next_child) * child_width;
    const std::uint64_t child_hi = child_lo + child_width;
    const int job = std::countr_zero(frame.untried);
    frame.untried &= frame.untried - 1;
    ++frame.next_child;
    if (child_hi <= pos_) {
      // Entirely before our position: already handled (resume fast-forward).
      continue;
    }
    if (child_lo >= end_) {
      // This and all later siblings belong to a thief now.
      frame.untried = 0;
      continue;
    }

    path_[d] = job;
    std::uint32_t* child = row(d + 1);
    std::int64_t bound = kAppendJob(*inst_, row(d), job, child);
    ++progress.nodes;

    if (d + 1 == static_cast<std::size_t>(n)) {
      // Complete permutation.
      const std::int64_t mk = child[m - 1];
      if (mk < ub) {
        ub = mk;
        progress.improved = true;
        if (recorder != nullptr) recorder->offer(mk, path_);
      }
      pos_ = child_hi;
      continue;
    }

    // The pair walk costs O(m·n): skip it when the one-machine bound
    // already prunes.
    if (bound_kind_ == BoundKind::kTwoMachine && bound < ub) {
      bound = row_bound(*inst_, child, bound_kind_);
    }
    if (bound >= ub) {
      pos_ = child_hi;  // prune the whole child subtree
    } else {
      stack_.push_back(Frame{child_lo, child[3 * lanes], 0});
    }
  }

  if (stack_.empty()) {
    // Every leaf rank below end_ has been handled.
    pos_ = end_;
  }
  return progress;
}

#if defined(__x86_64__)
struct IntervalExplorer::Avx2 {
  // flatten: append_job_avx2 cannot be always_inline, since tests call it
  // from code built without AVX2; this inlines it here at every -O level.
  __attribute__((target("avx2"), flatten)) static Progress run(IntervalExplorer& e,
                                                               std::uint64_t max_nodes,
                                                               std::int64_t& ub,
                                                               BestSolution* recorder) {
    return e.dfs<append_job_avx2>(max_nodes, ub, recorder);
  }
};
#endif

IntervalExplorer::Progress IntervalExplorer::run(std::uint64_t max_nodes, std::int64_t& ub,
                                                 BestSolution* recorder, ChildPass pass) {
  if (pass == ChildPass::kAvx2) {
    OLB_CHECK_MSG(native_child_pass() == ChildPass::kAvx2, "the AVX2 pass needs a CPU with AVX2");
#if defined(__x86_64__)
    return Avx2::run(*this, max_nodes, ub, recorder);
#endif
  }
  return dfs<append_job>(max_nodes, ub, recorder);
}

SequentialResult solve_sequential(const FlowshopInstance& inst, BoundKind bound_kind,
                                  std::int64_t initial_ub) {
  auto shared = std::make_shared<const FlowshopInstance>(inst);
  IntervalExplorer explorer(shared, 0, factorial(inst.jobs()), bound_kind);
  BestSolution best;
  std::int64_t ub = initial_ub;
  SequentialResult result;
  while (!explorer.done()) {
    const auto progress = explorer.run(1 << 20, ub, &best);
    result.nodes += progress.nodes;
  }
  result.optimum = ub;
  result.permutation = best.permutation();
  return result;
}

}  // namespace olb::bb
