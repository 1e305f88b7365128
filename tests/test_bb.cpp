// Tests for the flowshop/B&B substrate: Taillard generator, makespan
// evaluation, bound soundness, interval-encoded exploration, NEH.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "bb/bb_work.hpp"
#include "bb/bounds.hpp"
#include "bb/flowshop.hpp"
#include "bb/interval_bb.hpp"
#include "support/factorial.hpp"
#include "support/rng.hpp"

namespace olb::bb {
namespace {

FlowshopInstance random_instance(int jobs, int machines, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<int> p(static_cast<std::size_t>(jobs * machines));
  for (auto& v : p) v = static_cast<int>(rng.uniform(1, 99));
  return FlowshopInstance("rnd", jobs, machines, std::move(p));
}

// --------------------------------------------------------------- Taillard ---

TEST(Taillard, RngMatchesPublishedRecurrence) {
  // First values of the Lehmer stream from seed 1: 16807, 282475249, ...
  TaillardRng rng(1);
  (void)rng.next(0, 0);
  EXPECT_EQ(rng.state(), 16807);
  (void)rng.next(0, 0);
  EXPECT_EQ(rng.state(), 282475249);
  (void)rng.next(0, 0);
  EXPECT_EQ(rng.state(), 1622650073);
}

TEST(Taillard, ValuesAreInRange) {
  TaillardRng rng(479340445);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.next(1, 99);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 99);
  }
}

TEST(Taillard, InstanceGenerationIsDeterministic) {
  const auto a = FlowshopInstance::taillard("a", 20, 20, 479340445);
  const auto b = FlowshopInstance::taillard("b", 20, 20, 479340445);
  for (int j = 0; j < 20; ++j) {
    for (int k = 0; k < 20; ++k) EXPECT_EQ(a.p(j, k), b.p(j, k));
  }
}

TEST(Taillard, ScaledInstanceIsLeadingSubmatrixOfFull) {
  const auto full =
      FlowshopInstance::taillard("f", 20, 20, FlowshopInstance::ta20x20_seeds()[2]);
  const auto scaled = FlowshopInstance::ta20x20_scaled(2, 9, 7);
  EXPECT_EQ(scaled.name(), "Ta23s");
  for (int j = 0; j < 9; ++j) {
    for (int k = 0; k < 7; ++k) EXPECT_EQ(scaled.p(j, k), full.p(j, k));
  }
}

TEST(Taillard, TenSeedsAllDistinct) {
  const auto seeds = FlowshopInstance::ta20x20_seeds();
  ASSERT_EQ(seeds.size(), 10u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
}

// ----------------------------------------------------------------- makespan ---

TEST(Flowshop, MakespanHandComputed) {
  // 2 jobs, 2 machines: p(j0)=(3,2), p(j1)=(1,4). Order (0,1):
  // M0: j0 [0,3], j1 [3,4]; M1: j0 [3,5], j1 [5,9] -> 9.
  // Order (1,0): M0: j1 [0,1], j0 [1,4]; M1: j1 [1,5], j0 [5,7] -> 7.
  FlowshopInstance inst("hand", 2, 2, {3, 1, 2, 4});  // machine-major
  const int order01[] = {0, 1};
  const int order10[] = {1, 0};
  EXPECT_EQ(inst.makespan(order01), 9);
  EXPECT_EQ(inst.makespan(order10), 7);
}

TEST(Flowshop, SingleMachineMakespanIsSum) {
  FlowshopInstance inst("m1", 4, 1, {5, 7, 2, 9});
  std::vector<int> perm = {2, 0, 3, 1};
  EXPECT_EQ(inst.makespan(perm), 23);
}

TEST(Flowshop, AdvanceMatchesMakespan) {
  const auto inst = random_instance(6, 4, 77);
  std::vector<int> perm(6);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::int64_t> completion(4, 0);
  for (int j : perm) inst.advance(completion, j);
  EXPECT_EQ(completion[3], inst.makespan(perm));
}

TEST(Flowshop, TailSumsAreConsistent) {
  const auto inst = random_instance(5, 6, 13);
  for (int j = 0; j < 5; ++j) {
    std::int64_t total = 0;
    for (int k = 0; k < 6; ++k) total += inst.p(j, k);
    EXPECT_EQ(inst.total_time(j), total);
    EXPECT_EQ(inst.tail_after(j, 5), 0);
    EXPECT_EQ(inst.tail_after(j, 2), inst.p(j, 3) + inst.p(j, 4) + inst.p(j, 5));
  }
}

// --------------------------------------------------------------------- NEH ---

TEST(Neh, ProducesAValidPermutation) {
  const auto inst = random_instance(8, 5, 21);
  auto seq = neh_heuristic(inst);
  std::sort(seq.begin(), seq.end());
  for (int j = 0; j < 8; ++j) EXPECT_EQ(seq[static_cast<std::size_t>(j)], j);
}

TEST(Neh, NeverWorseThanIdentityOrderOnSamples) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto inst = random_instance(7, 4, seed);
    std::vector<int> identity(7);
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_LE(inst.makespan(neh_heuristic(inst)), inst.makespan(identity));
  }
}

TEST(Neh, CloseToOptimumOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inst = random_instance(7, 5, seed * 31);
    const auto opt = brute_force_optimum(inst);
    const auto neh = inst.makespan(neh_heuristic(inst));
    EXPECT_LE(neh, opt + opt / 10 + 50);  // generous: NEH is a heuristic
    EXPECT_GE(neh, opt);
  }
}

// ------------------------------------------------------------------- bounds ---

TEST(Bounds, EmptyPrefixBoundBelowOptimum) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto inst = random_instance(6, 4, seed);
    const auto opt = brute_force_optimum(inst);
    std::vector<std::int64_t> completion(4, 0);
    std::vector<int> remaining(6);
    std::iota(remaining.begin(), remaining.end(), 0);
    for (auto kind : {BoundKind::kOneMachine, BoundKind::kTwoMachine}) {
      const auto lb = lower_bound(inst, completion, remaining, kind);
      EXPECT_LE(lb, opt) << "seed " << seed;
      EXPECT_GT(lb, 0);
    }
  }
}

TEST(Bounds, SoundOnRandomPrefixes) {
  // Property: LB(prefix) <= makespan of the best completion of that prefix.
  Xoshiro256 rng(12345);
  for (int trial = 0; trial < 40; ++trial) {
    const auto inst = random_instance(6, 3, 1000 + trial);
    // Random prefix of random length.
    std::vector<int> jobs(6);
    std::iota(jobs.begin(), jobs.end(), 0);
    for (std::size_t i = jobs.size(); i > 1; --i) {
      std::swap(jobs[i - 1], jobs[rng.below(i)]);
    }
    const auto prefix_len = static_cast<std::size_t>(rng.below(6));
    std::vector<std::int64_t> completion(3, 0);
    for (std::size_t i = 0; i < prefix_len; ++i) inst.advance(completion, jobs[i]);
    std::vector<int> remaining(jobs.begin() + static_cast<std::ptrdiff_t>(prefix_len),
                               jobs.end());
    std::sort(remaining.begin(), remaining.end());

    // Best completion by brute force over remaining permutations.
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    std::vector<int> tail = remaining;
    do {
      auto c = completion;
      for (int j : tail) inst.advance(c, j);
      best = std::min(best, c[2]);
    } while (std::next_permutation(tail.begin(), tail.end()));

    for (auto kind : {BoundKind::kOneMachine, BoundKind::kTwoMachine}) {
      EXPECT_LE(lower_bound(inst, completion, remaining, kind), best)
          << "trial " << trial;
    }
  }
}

TEST(Bounds, TwoMachineAtLeastOneMachine) {
  for (std::uint64_t seed = 50; seed < 70; ++seed) {
    const auto inst = random_instance(8, 5, seed);
    std::vector<std::int64_t> completion(5, 0);
    std::vector<int> remaining(8);
    std::iota(remaining.begin(), remaining.end(), 0);
    EXPECT_GE(lower_bound(inst, completion, remaining, BoundKind::kTwoMachine),
              lower_bound(inst, completion, remaining, BoundKind::kOneMachine));
  }
}

TEST(Bounds, CompletePrefixReturnsMakespan) {
  const auto inst = random_instance(5, 4, 3);
  std::vector<int> perm = {4, 2, 0, 1, 3};
  std::vector<std::int64_t> completion(4, 0);
  for (int j : perm) inst.advance(completion, j);
  EXPECT_EQ(lower_bound(inst, completion, {}, BoundKind::kOneMachine),
            inst.makespan(perm));
}

// The bound as a plain re-sum over explicit lists: every remaining job on
// every machine, and johnson_cmax for each adjacent pair.
std::int64_t reference_bound(const FlowshopInstance& inst,
                             std::span<const std::int64_t> completion,
                             std::span<const int> remaining, BoundKind kind) {
  const int m = inst.machines();
  if (remaining.empty()) return completion[static_cast<std::size_t>(m - 1)];
  auto min_tail = [&](int k) {
    std::int64_t t = std::numeric_limits<std::int64_t>::max();
    for (int j : remaining) t = std::min(t, inst.tail_after(j, k));
    return t;
  };
  std::int64_t best = completion[static_cast<std::size_t>(m - 1)];
  for (int k = 0; k < m; ++k) {
    std::int64_t load = 0;
    for (int j : remaining) load += inst.p(j, k);
    best = std::max(best, completion[static_cast<std::size_t>(k)] + load + min_tail(k));
  }
  if (kind == BoundKind::kTwoMachine) {
    for (int k = 0; k + 1 < m; ++k) {
      best = std::max(best, completion[static_cast<std::size_t>(k)] +
                                johnson_cmax(inst, remaining, k, k + 1) + min_tail(k + 1));
    }
  }
  return best;
}

TEST(Bounds, MatchesTheReSumAndJohnsonReference) {
  // lower_bound reads the precomputed tail ranks and Johnson orders; the
  // value must be the plain formula's on every prefix.
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(12));
    const int m = 1 + static_cast<int>(rng.below(7));
    const auto inst = random_instance(n, m, 500 + static_cast<std::uint64_t>(trial));
    std::vector<int> jobs(static_cast<std::size_t>(n));
    std::iota(jobs.begin(), jobs.end(), 0);
    for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[rng.below(i)]);
    const auto prefix_len = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    std::vector<std::int64_t> completion(static_cast<std::size_t>(m), 0);
    for (std::size_t i = 0; i < prefix_len; ++i) inst.advance(completion, jobs[i]);
    const std::vector<int> remaining(jobs.begin() + static_cast<std::ptrdiff_t>(prefix_len),
                                     jobs.end());
    for (auto kind : {BoundKind::kOneMachine, BoundKind::kTwoMachine}) {
      EXPECT_EQ(lower_bound(inst, completion, remaining, kind),
                reference_bound(inst, completion, remaining, kind))
          << "trial " << trial << " n " << n << " m " << m;
    }
  }
}

// The row of a prefix built directly: advance over the prefix, then
// set_remaining for the other jobs.
std::vector<std::uint32_t> direct_row(const FlowshopInstance& inst,
                                       std::span<const int> prefix) {
  std::vector<std::int64_t> completion(static_cast<std::size_t>(inst.machines()), 0);
  std::uint32_t remaining = inst.jobs() == 32 ? ~std::uint32_t{0}
                                              : (std::uint32_t{1} << inst.jobs()) - 1;
  for (int j : prefix) {
    inst.advance(completion, j);
    remaining &= ~(std::uint32_t{1} << j);
  }
  std::vector<std::uint32_t> row(prefix_row_words(inst.machines()));
  set_completion(inst, completion, row.data());
  set_remaining(inst, remaining, row.data());
  return row;
}

// Calls visit(inst, parent, job, prefix) for every child of every prefix
// along one random permutation of each of 150 random instances (1-32 jobs x
// 1-20 machines, so rows of one to three 8-lane blocks) and of the full
// 20x20 Ta21: `parent` is the prefix's row built directly, `prefix` the
// child's jobs. A 32-job permutation ends with job 31, which is the last
// rank on the last machine (every tail there is 0, so ranks follow job ids):
// the child that leaves job 31 alone has bit 31 alone in a mask.
template <class Visit>
void for_each_child(Visit visit) {
  Xoshiro256 rng(4242);
  std::vector<FlowshopInstance> instances;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = trial % 10 == 0 ? 32 : 1 + static_cast<int>(rng.below(32));
    const int m = 1 + static_cast<int>(rng.below(20));
    instances.push_back(random_instance(n, m, 7000 + static_cast<std::uint64_t>(trial)));
  }
  instances.push_back(FlowshopInstance::ta20x20_scaled(0, 20, 20));
  for (const auto& inst : instances) {
    const int n = inst.jobs();
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
    if (n == 32) std::swap(*std::find(perm.begin(), perm.end(), 31), perm.back());
    for (int d = 0; d < n; ++d) {
      std::vector<int> prefix(perm.begin(), perm.begin() + d);
      const auto parent = direct_row(inst, prefix);
      for (auto it = perm.begin() + d; it != perm.end(); ++it) {
        prefix.push_back(*it);
        visit(inst, parent, *it, prefix);
        prefix.pop_back();
      }
    }
  }
}

TEST(Bounds, AppendJobReturnsTheRowBound) {
  // append_job's child row is the row built directly, pad lanes included,
  // and its return value is the child's one-machine bound, or for a leaf
  // (empty masks, so the zero pad of ranked_tails) the makespan.
  int leaves = 0;
  int bit31_alone = 0;
  std::vector<std::uint32_t> child;
  for_each_child([&](const FlowshopInstance& inst, const std::vector<std::uint32_t>& parent,
                     int job, const std::vector<int>& prefix) {
    const int n = inst.jobs();
    const int m = inst.machines();
    child.assign(prefix_row_words(m), 0xdeadbeef);
    const std::int64_t bound = append_job(inst, parent.data(), job, child.data());
    ASSERT_EQ(child, direct_row(inst, prefix)) << inst.name() << " n " << n << " m " << m;
    if (static_cast<int>(prefix.size()) == n) {
      EXPECT_EQ(bound, inst.makespan(prefix)) << "n " << n << " m " << m;
      ++leaves;
    } else {
      EXPECT_EQ(bound, row_bound(inst, child.data(), BoundKind::kOneMachine))
          << inst.name() << " n " << n << " m " << m << " depth " << prefix.size();
    }
    for (int k = 0; k < m; ++k) {
      if (child[2 * inst.lanes() + static_cast<std::size_t>(k)] == std::uint32_t{1} << 31) {
        ++bit31_alone;
      }
    }
  });
  EXPECT_EQ(leaves, 151);
  EXPECT_GT(bit31_alone, 0);
}

TEST(Bounds, AppendJobAvx2EqualsTheScalarPass) {
  // The AVX2 pass writes the scalar pass's child row, pad lanes included,
  // and returns its bound, on every child of the instances above.
#if defined(__x86_64__)
  if (native_child_pass() != ChildPass::kAvx2) GTEST_SKIP() << "this CPU has no AVX2";
  std::vector<std::uint32_t> want;
  std::vector<std::uint32_t> got;
  int children = 0;
  for_each_child([&](const FlowshopInstance& inst, const std::vector<std::uint32_t>& parent,
                     int job, const std::vector<int>& prefix) {
    want.assign(prefix_row_words(inst.machines()), 0xdeadbeef);
    got.assign(want.size(), 0xdeadbeef);
    const std::int64_t want_bound = append_job(inst, parent.data(), job, want.data());
    const std::int64_t got_bound = append_job_avx2(inst, parent.data(), job, got.data());
    ASSERT_EQ(got, want) << inst.name() << " n " << inst.jobs() << " m " << inst.machines()
                         << " depth " << prefix.size();
    ASSERT_EQ(got_bound, want_bound) << inst.name() << " n " << inst.jobs() << " m "
                                     << inst.machines() << " depth " << prefix.size();
    ++children;
  });
  EXPECT_GT(children, 0);
#else
  GTEST_SKIP() << "the AVX2 pass is x86-64 only";
#endif
}

TEST(Bounds, JohnsonCmaxMatchesBruteForceOnTwoMachines) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto inst = random_instance(6, 2, seed * 7);
    std::vector<int> jobs(6);
    std::iota(jobs.begin(), jobs.end(), 0);
    EXPECT_EQ(johnson_cmax(inst, jobs, 0, 1), brute_force_optimum(inst));
  }
}

// ------------------------------------------------------- interval explorer ---

TEST(IntervalExplorer, FullIntervalFindsOptimum) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto inst = random_instance(7, 4, seed * 3 + 1);
    const auto opt = brute_force_optimum(inst);
    for (auto kind : {BoundKind::kOneMachine, BoundKind::kTwoMachine}) {
      const auto result = solve_sequential(inst, kind);
      EXPECT_EQ(result.optimum, opt) << "seed " << seed;
      EXPECT_EQ(inst.makespan(result.permutation), opt);
    }
  }
}

TEST(IntervalExplorer, DisjointPiecesCoverTheWholeSpace) {
  // Split [0, 7!) into k pieces, explore each with an independent UB, take
  // the min: must equal the optimum regardless of the cut points.
  const auto inst = random_instance(7, 4, 99);
  const auto opt = brute_force_optimum(inst);
  auto shared = std::make_shared<const FlowshopInstance>(inst);
  const std::uint64_t total = factorial(7);
  Xoshiro256 rng(8);
  for (int pieces : {2, 3, 8}) {
    std::vector<std::uint64_t> cuts = {0, total};
    for (int i = 1; i < pieces; ++i) cuts.push_back(rng.below(total));
    std::sort(cuts.begin(), cuts.end());
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      if (cuts[i] == cuts[i + 1]) continue;
      IntervalExplorer explorer(shared, cuts[i], cuts[i + 1], BoundKind::kOneMachine);
      std::int64_t ub = std::numeric_limits<std::int64_t>::max();
      while (!explorer.done()) (void)explorer.run(1 << 16, ub, nullptr);
      best = std::min(best, ub);
    }
    EXPECT_EQ(best, opt) << pieces << " pieces";
  }
}

TEST(IntervalExplorer, InitialUpperBoundPrunesButKeepsOptimum) {
  const auto inst = random_instance(8, 5, 5);
  const auto cold = solve_sequential(inst, BoundKind::kOneMachine);
  const auto warm = solve_sequential(inst, BoundKind::kOneMachine,
                                     inst.makespan(neh_heuristic(inst)) + 1);
  EXPECT_EQ(cold.optimum, warm.optimum);
  EXPECT_LE(warm.nodes, cold.nodes);  // warm start can only prune more
}

TEST(IntervalExplorer, ShrinkEndNeverLosesTheOptimum) {
  // Start a full exploration, steal the right part mid-flight, finish both
  // halves: min of the two must be the optimum.
  const auto inst = random_instance(7, 4, 123);
  const auto opt = brute_force_optimum(inst);
  auto shared = std::make_shared<const FlowshopInstance>(inst);
  IntervalExplorer victim(shared, 0, factorial(7), BoundKind::kOneMachine);
  std::int64_t ub1 = std::numeric_limits<std::int64_t>::max();
  (void)victim.run(50, ub1, nullptr);  // advance a little
  ASSERT_FALSE(victim.done());
  const std::uint64_t mid = victim.position() + victim.remaining() / 2;
  IntervalExplorer thief(shared, mid, victim.end(), BoundKind::kOneMachine);
  victim.shrink_end(mid);
  std::int64_t ub2 = std::numeric_limits<std::int64_t>::max();
  while (!victim.done()) (void)victim.run(1 << 16, ub1, nullptr);
  while (!thief.done()) (void)thief.run(1 << 16, ub2, nullptr);
  EXPECT_EQ(std::min(ub1, ub2), opt);
}

TEST(IntervalExplorer, TwoMachineBoundExploresNoMoreNodes) {
  const auto inst = random_instance(9, 5, 31);
  const auto one = solve_sequential(inst, BoundKind::kOneMachine);
  const auto two = solve_sequential(inst, BoundKind::kTwoMachine);
  EXPECT_EQ(one.optimum, two.optimum);
  EXPECT_LE(two.nodes, one.nodes);
}

TEST(IntervalExplorer, RecorderCapturesOptimalPermutation) {
  const auto inst = random_instance(7, 3, 55);
  const auto result = solve_sequential(inst, BoundKind::kOneMachine);
  ASSERT_EQ(static_cast<int>(result.permutation.size()), 7);
  EXPECT_EQ(inst.makespan(result.permutation), result.optimum);
}

// A plain interval DFS over explicit remaining lists that calls
// lower_bound() from scratch at every node: the reference the explorer's
// incremental rows must match node for node.
class ReferenceDfs {
 public:
  ReferenceDfs(const FlowshopInstance& inst, std::uint64_t begin, std::uint64_t end,
               BoundKind kind)
      : inst_(inst), kind_(kind), pos_(begin), end_(end) {
    const auto n = static_cast<std::size_t>(inst.jobs());
    remaining_.resize(n + 1);
    completion_.assign(n + 1, std::vector<std::int64_t>(
                                  static_cast<std::size_t>(inst.machines()), 0));
    remaining_[0].resize(n);
    std::iota(remaining_[0].begin(), remaining_[0].end(), 0);
    path_.assign(n, -1);
    if (pos_ < end_) stack_.push_back(Frame{0, 0});
  }

  IntervalExplorer::Progress run(std::uint64_t max_nodes, std::int64_t& ub,
                                 BestSolution* recorder) {
    IntervalExplorer::Progress progress;
    const int n = inst_.jobs();
    while (progress.nodes < max_nodes && !stack_.empty() && pos_ < end_) {
      const auto d = stack_.size() - 1;
      Frame& frame = stack_.back();
      if (frame.next_child >= remaining_[d].size()) {
        stack_.pop_back();
        continue;
      }
      const std::uint64_t width = factorial(n - static_cast<int>(d) - 1);
      const std::uint64_t lo = frame.lo + frame.next_child * width;
      const std::uint64_t hi = lo + width;
      const std::size_t idx = frame.next_child++;
      if (hi <= pos_) continue;
      if (lo >= end_) {
        frame.next_child = remaining_[d].size();
        continue;
      }
      const int job = remaining_[d][idx];
      path_[d] = job;
      completion_[d + 1] = completion_[d];
      inst_.advance(completion_[d + 1], job);
      ++progress.nodes;
      remaining_[d + 1] = remaining_[d];
      remaining_[d + 1].erase(remaining_[d + 1].begin() + static_cast<std::ptrdiff_t>(idx));
      if (remaining_[d + 1].empty()) {
        const std::int64_t mk = completion_[d + 1].back();
        if (mk < ub) {
          ub = mk;
          progress.improved = true;
          if (recorder != nullptr) recorder->offer(mk, path_);
        }
        pos_ = hi;
      } else if (lower_bound(inst_, completion_[d + 1], remaining_[d + 1], kind_) >= ub) {
        pos_ = hi;
      } else {
        stack_.push_back(Frame{lo, 0});
      }
    }
    if (stack_.empty()) pos_ = end_;
    return progress;
  }

  std::uint64_t position() const { return pos_; }
  std::uint64_t end() const { return end_; }
  void shrink_end(std::uint64_t new_end) { end_ = new_end; }

 private:
  struct Frame {
    std::uint64_t lo;
    std::size_t next_child;
  };
  const FlowshopInstance& inst_;
  BoundKind kind_;
  std::uint64_t pos_;
  std::uint64_t end_;
  std::vector<Frame> stack_;
  std::vector<std::vector<int>> remaining_;
  std::vector<std::vector<std::int64_t>> completion_;
  std::vector<int> path_;
};

// Same nodes in the same order: every run() call of the explorer on `pass`
// reports the reference's node count, position and incumbent, across random
// intervals, budgets and one steal part-way through.
void expect_matches_reference(ChildPass pass) {
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 48; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(6));
    const int m = 1 + static_cast<int>(rng.below(6));
    const auto kind = trial % 2 == 0 ? BoundKind::kOneMachine : BoundKind::kTwoMachine;
    auto inst = std::make_shared<const FlowshopInstance>(
        random_instance(n, m, 9000 + static_cast<std::uint64_t>(trial)));
    const std::uint64_t total = factorial(n);
    std::uint64_t begin = rng.below(total);
    std::uint64_t end = rng.below(total) + 1;
    if (begin >= end) std::swap(begin, end);
    if (begin == end) begin = 0;
    // Half the trials start from an incumbent near NEH's, as stolen work
    // does; it may lie below the optimum, so nothing is found.
    const std::int64_t ub0 =
        trial % 4 < 2 ? std::numeric_limits<std::int64_t>::max()
                      : inst->makespan(neh_heuristic(*inst)) + 20 -
                            static_cast<std::int64_t>(rng.below(40));

    IntervalExplorer explorer(inst, begin, end, kind);
    ReferenceDfs reference(*inst, begin, end, kind);
    BestSolution got_best;
    BestSolution want_best;
    std::int64_t got_ub = ub0;
    std::int64_t want_ub = ub0;
    const int steal_at = static_cast<int>(rng.below(6));
    for (int call = 0; !explorer.done(); ++call) {
      ASSERT_LT(call, 1 << 20) << "trial " << trial;
      if (call == steal_at && explorer.position() + 1 < explorer.end()) {
        const std::uint64_t span = explorer.end() - explorer.position() - 1;
        const std::uint64_t new_end = explorer.position() + 1 + rng.below(span);
        explorer.shrink_end(new_end);
        reference.shrink_end(new_end);
      }
      const std::uint64_t budget = 1 + rng.below(200);
      const auto got = explorer.run(budget, got_ub, &got_best, pass);
      const auto want = reference.run(budget, want_ub, &want_best);
      ASSERT_EQ(got.nodes, want.nodes) << "trial " << trial << " call " << call;
      ASSERT_EQ(got.improved, want.improved) << "trial " << trial << " call " << call;
      ASSERT_EQ(explorer.position(), reference.position())
          << "trial " << trial << " call " << call;
      ASSERT_EQ(got_ub, want_ub) << "trial " << trial << " call " << call;
    }
    EXPECT_GE(reference.position(), reference.end());
    EXPECT_EQ(got_best.permutation(), want_best.permutation()) << "trial " << trial;
  }
}

TEST(IntervalExplorer, MatchesFromScratchReference) {
  expect_matches_reference(ChildPass::kScalar);
}

TEST(IntervalExplorer, Avx2PassMatchesFromScratchReference) {
  if (native_child_pass() != ChildPass::kAvx2) GTEST_SKIP() << "this CPU has no AVX2";
  expect_matches_reference(ChildPass::kAvx2);
}

// solve_sequential on `pass`: the optimum and the nodes explored.
std::pair<std::int64_t, std::uint64_t> solve_on(ChildPass pass, const FlowshopInstance& inst,
                                                BoundKind kind,
                                                std::int64_t ub = std::numeric_limits<std::int64_t>::max()) {
  IntervalExplorer explorer(std::make_shared<const FlowshopInstance>(inst), 0,
                            factorial(inst.jobs()), kind);
  std::uint64_t nodes = 0;
  while (!explorer.done()) nodes += explorer.run(1 << 20, ub, nullptr, pass).nodes;
  return {ub, nodes};
}

// Counts of the from-scratch bound. Ta21s 13x8 from UB 1224 is the proof
// every perfbench sockets_bb_4 solve makes at least once.
void expect_pinned_node_counts(ChildPass pass) {
  const auto ta21 = FlowshopInstance::ta20x20_scaled(0, 13, 8);
  EXPECT_EQ(solve_on(pass, ta21, BoundKind::kOneMachine, 1224),
            std::make_pair(std::int64_t{1224}, std::uint64_t{10751905}));

  const auto ta24 = FlowshopInstance::ta20x20_scaled(3, 11, 7);
  EXPECT_EQ(solve_on(pass, ta24, BoundKind::kOneMachine),
            std::make_pair(std::int64_t{933}, std::uint64_t{461815}));
  EXPECT_EQ(solve_on(pass, ta24, BoundKind::kTwoMachine),
            std::make_pair(std::int64_t{933}, std::uint64_t{362979}));
}

TEST(IntervalExplorer, PinnedNodeCountsOnScaledTaillard) {
  expect_pinned_node_counts(ChildPass::kScalar);
}

TEST(IntervalExplorer, Avx2PassPinnedNodeCountsOnScaledTaillard) {
  if (native_child_pass() != ChildPass::kAvx2) GTEST_SKIP() << "this CPU has no AVX2";
  expect_pinned_node_counts(ChildPass::kAvx2);
}

// -------------------------------------------------------------- work adapter ---

TEST(BBWork, SplitConservesIntervalLength) {
  const auto inst = random_instance(8, 4, 9);
  BBWorkload workload(inst, BoundKind::kOneMachine, CostModel{});
  auto work = workload.make_root_work();
  const double total = work->amount();
  auto piece = work->split(0.25);
  ASSERT_NE(piece, nullptr);
  EXPECT_DOUBLE_EQ(work->amount() + piece->amount(), total);
  EXPECT_NEAR(piece->amount(), total * 0.25, 1.0);
}

TEST(BBWork, SplitMergeStillFindsOptimum) {
  const auto inst = random_instance(7, 4, 17);
  const auto opt = brute_force_optimum(inst);
  BBWorkload workload(inst, BoundKind::kOneMachine, CostModel{});
  auto work = workload.make_root_work();
  auto a = work->split(0.3);
  auto b = work->split(0.5);
  work->merge(std::move(a));
  work->merge(std::move(b));
  while (!work->empty()) (void)work->step(1 << 16);
  EXPECT_EQ(workload.best().makespan(), opt);
}

TEST(BBWork, ObserveBoundPropagatesToExploration) {
  const auto inst = random_instance(9, 5, 41);
  // Exploring with a tight external bound must visit far fewer nodes.
  BBWorkload cold(inst, BoundKind::kOneMachine, CostModel{});
  auto w1 = cold.make_root_work();
  std::uint64_t nodes_cold = 0;
  while (!w1->empty()) nodes_cold += w1->step(1 << 16).units_done;

  BBWorkload warm(inst, BoundKind::kOneMachine, CostModel{});
  auto w2 = warm.make_root_work();
  w2->observe_bound(cold.best().makespan() + 1);
  std::uint64_t nodes_warm = 0;
  while (!w2->empty()) nodes_warm += w2->step(1 << 16).units_done;

  EXPECT_LT(nodes_warm, nodes_cold);
  EXPECT_EQ(warm.best().makespan(), cold.best().makespan());
}

TEST(BBWork, StepReportsImprovedBounds) {
  const auto inst = random_instance(7, 4, 71);
  BBWorkload workload(inst, BoundKind::kOneMachine, CostModel{});
  auto work = workload.make_root_work();
  bool ever_improved = false;
  std::int64_t last = lb::kNoBound;
  while (!work->empty()) {
    const auto r = work->step(64);
    if (r.improved_bound) {
      ever_improved = true;
      EXPECT_LT(r.bound, last);
      last = r.bound;
    }
  }
  EXPECT_TRUE(ever_improved);
  EXPECT_EQ(last, workload.best().makespan());
}

TEST(BBWork, IntervalTruncateDropsReassignedPart) {
  const auto inst = random_instance(8, 4, 83);
  BBWorkload workload(inst, BoundKind::kOneMachine, CostModel{});
  auto work = workload.make_root_work();
  auto* iv = dynamic_cast<lb::IntervalWork*>(work.get());
  ASSERT_NE(iv, nullptr);
  const std::uint64_t end = iv->interval_end();
  iv->interval_truncate(end / 2);
  EXPECT_EQ(iv->interval_end(), end / 2);
  EXPECT_DOUBLE_EQ(work->amount(), static_cast<double>(end / 2));
  // Truncating behind the position empties the work.
  (void)work->step(10);
  iv->interval_truncate(iv->interval_position());
  EXPECT_TRUE(work->empty() || iv->interval_end() > iv->interval_position());
}

TEST(BBWork, CostModelCharged) {
  const auto inst = random_instance(7, 4, 29);
  CostModel costs;
  costs.per_node = sim::microseconds(50);
  BBWorkload workload(inst, BoundKind::kOneMachine, costs);
  auto work = workload.make_root_work();
  const auto r = work->step(100);
  EXPECT_EQ(r.sim_cost, static_cast<sim::Time>(r.units_done) * sim::microseconds(50));
}

}  // namespace
}  // namespace olb::bb
