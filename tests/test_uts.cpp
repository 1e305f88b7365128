// Tests for the UTS generator and its lb::Work adapter.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "lb/work.hpp"
#include "support/rng.hpp"
#include "uts/uts.hpp"
#include "uts/uts_work.hpp"

namespace olb::uts {
namespace {

Params bin_params(HashMode hash, std::uint32_t seed = 19, int b0 = 50,
                  double q = 0.47) {
  Params p;
  p.shape = TreeShape::kBinomial;
  p.hash = hash;
  p.b0 = b0;
  p.q = q;
  p.m = 2;
  p.root_seed = seed;
  return p;
}

TEST(Uts, RootHasB0Children) {
  const auto p = bin_params(HashMode::kFast);
  EXPECT_EQ(num_children(p, root_state(p), 0), 50);
}

TEST(Uts, ChildStatesAreDeterministicAndDistinct) {
  const auto p = bin_params(HashMode::kSha1);
  const auto root = root_state(p);
  const auto c0 = child_state(p, root, 0);
  const auto c0_again = child_state(p, root, 0);
  const auto c1 = child_state(p, root, 1);
  EXPECT_EQ(c0.bytes, c0_again.bytes);
  EXPECT_NE(c0.bytes, c1.bytes);
  EXPECT_NE(c0.bytes, root.bytes);
}

TEST(Uts, Sha1AndFastTreesDifferButBothCountExactly) {
  auto p_sha = bin_params(HashMode::kSha1);
  auto p_fast = bin_params(HashMode::kFast);
  const auto s1 = count_tree(p_sha);
  const auto s2 = count_tree(p_fast);
  EXPECT_GT(s1.nodes, 50u);
  EXPECT_GT(s2.nodes, 50u);
  // Same distribution family, different streams.
  EXPECT_NE(s1.nodes, s2.nodes);
}

TEST(Uts, CountIsSeedDeterministic) {
  const auto p = bin_params(HashMode::kFast);
  EXPECT_EQ(count_tree(p).nodes, count_tree(p).nodes);
  auto p2 = p;
  p2.root_seed = 20;
  EXPECT_NE(count_tree(p).nodes, count_tree(p2).nodes);
}

TEST(Uts, NodesEqualLeavesPlusInternals) {
  // In a BIN tree every non-root node has 0 or m children; with m=2:
  // nodes = 1 (root) + b0 + 2 * (#internal non-root nodes).
  const auto p = bin_params(HashMode::kFast);
  const auto s = count_tree(p);
  const std::uint64_t internal_nonroot = s.nodes - 1 - s.leaves;
  EXPECT_EQ(s.nodes, 1 + static_cast<std::uint64_t>(p.b0) + 2 * internal_nonroot);
}

TEST(Uts, GeometricShapeRespectsDepthCutoff) {
  Params p;
  p.shape = TreeShape::kGeometric;
  p.hash = HashMode::kFast;
  p.b0 = 4;
  p.gen_mx = 5;
  p.root_seed = 3;
  const auto s = count_tree(p);
  EXPECT_LE(s.max_depth, 5);
  EXPECT_GT(s.nodes, 1u);
}

TEST(Uts, ExpectedSizeFormula) {
  Params p = bin_params(HashMode::kFast, 1, 100, 0.25);  // m*q = 0.5
  EXPECT_DOUBLE_EQ(p.expected_size(), 100.0 / 0.5 + 1.0);
  p.q = 0.5;  // critical
  EXPECT_TRUE(std::isinf(p.expected_size()));
}

TEST(Uts, Random31Is31Bits) {
  const auto p = bin_params(HashMode::kSha1);
  auto state = root_state(p);
  for (std::uint32_t i = 0; i < 200; ++i) {
    state = child_state(p, state, i % 3);
    EXPECT_LT(state.random31(), 1u << 31);
  }
}

// ------------------------------------------------------------ work adapter ---

TEST(UtsWork, ProcessingWholeTreeMatchesSequentialCount) {
  const auto p = bin_params(HashMode::kFast);
  const auto expected = count_tree(p).nodes;
  auto work = UtsWork::whole_tree(p, CostModel{});
  std::uint64_t total = 0;
  while (!work->empty()) total += work->step(1000).units_done;
  EXPECT_EQ(total, expected);
  EXPECT_EQ(work->nodes_counted(), expected);
}

TEST(UtsWork, SplitConservesNodes) {
  const auto p = bin_params(HashMode::kFast);
  const auto expected = count_tree(p).nodes;
  auto work = UtsWork::whole_tree(p, CostModel{});
  std::uint64_t total = work->step(40).units_done;  // grow the deque
  auto half = work->split(0.5);
  ASSERT_NE(half, nullptr);
  while (!work->empty()) total += work->step(1000).units_done;
  while (!half->empty()) total += half->step(1000).units_done;
  EXPECT_EQ(total, expected);
}

TEST(UtsWork, SplitFractionsApproximateAmounts) {
  const auto p = bin_params(HashMode::kFast, 5, 400, 0.4);
  auto work = UtsWork::whole_tree(p, CostModel{});
  (void)work->step(1);  // expand root: deque = 400
  ASSERT_EQ(work->amount(), 400.0);
  auto quarter = work->split(0.25);
  ASSERT_NE(quarter, nullptr);
  EXPECT_EQ(quarter->amount(), 100.0);
  EXPECT_EQ(work->amount(), 300.0);
}

TEST(UtsWork, SingleNodeIsIndivisible) {
  const auto p = bin_params(HashMode::kFast);
  auto work = UtsWork::whole_tree(p, CostModel{});
  EXPECT_EQ(work->amount(), 1.0);
  EXPECT_EQ(work->split(0.5), nullptr);
}

TEST(UtsWork, MergeRejoinsStolenWork) {
  const auto p = bin_params(HashMode::kFast);
  const auto expected = count_tree(p).nodes;
  auto work = UtsWork::whole_tree(p, CostModel{});
  std::uint64_t total = work->step(30).units_done;
  auto piece = work->split(0.3);
  ASSERT_NE(piece, nullptr);
  work->merge(std::move(piece));
  while (!work->empty()) total += work->step(1 << 14).units_done;
  EXPECT_EQ(total, expected);
}

TEST(UtsWork, StepRespectsBudget) {
  const auto p = bin_params(HashMode::kFast, 7, 1000, 0.49);
  auto work = UtsWork::whole_tree(p, CostModel{});
  const auto r = work->step(17);
  EXPECT_LE(r.units_done, 17u);
}

TEST(UtsWork, CostModelCharged) {
  CostModel costs;
  costs.per_node = sim::microseconds(3);
  costs.per_child = sim::microseconds(2);
  const auto p = bin_params(HashMode::kFast, 9, 10, 0.0);  // root + 10 leaves
  auto work = UtsWork::whole_tree(p, costs);
  const auto r1 = work->step(1);  // root: 1 node + 10 children
  EXPECT_EQ(r1.sim_cost, sim::microseconds(3 + 2 * 10));
  const auto r2 = work->step(100);  // 10 leaves, no children
  EXPECT_EQ(r2.sim_cost, sim::microseconds(3 * 10));
  EXPECT_TRUE(work->empty());
}

TEST(UtsWork, StealsComeFromTheOldestEnd) {
  // After expanding the root of a 0-probability tree, the deque holds the
  // root's children in order; a split must take the front (oldest).
  const auto p = bin_params(HashMode::kFast, 11, 8, 0.0);
  auto work = UtsWork::whole_tree(p, CostModel{});
  (void)work->step(1);
  auto piece = work->split(0.25);  // 2 of 8
  ASSERT_NE(piece, nullptr);
  EXPECT_EQ(piece->amount(), 2.0);
  // Processing order of the remainder (LIFO from the back) must not contain
  // the two oldest; total still adds up.
  std::uint64_t rest = 0;
  while (!work->empty()) rest += work->step(100).units_done;
  EXPECT_EQ(rest, 6u);
}

TEST(UtsWork, EmptyFrontierHoldsNoMemory) {
  const auto p = bin_params(HashMode::kFast, 3, 150, 0.49);
  auto work = UtsWork::whole_tree(p, CostModel{});
  (void)work->step(1);  // 150 children: three blocks
  EXPECT_GE(work->frontier_bytes(), 3 * 64 * 16u);
  auto piece = work->split(0.5);
  ASSERT_NE(piece, nullptr);
  while (!piece->empty()) (void)piece->step(100);
  EXPECT_EQ(static_cast<UtsWork&>(*piece).frontier_bytes(), 0u);
  work->merge(std::move(piece));
  while (!work->empty()) (void)work->step(7);
  EXPECT_EQ(work->frontier_bytes(), 0u);
}

TEST(UtsWork, RejectsTheSha1Hash) {
  EXPECT_DEATH(UtsWork(bin_params(HashMode::kSha1), CostModel{}), "fast hash");
}

TEST(UtsWork, SpawnThresholdMatchesUniform01AtTheBoundary) {
  // The integer spawn test must agree with uniform01() < q exactly where
  // they could part: the 31-bit values next to q * 2^31, for a q whose
  // scaled value is an integer (0.25) and for ones whose is not. The node
  // is expanded once with room for its children in the back block and once
  // as the block's last entry, where they spill into the next one.
  for (const double q : {0.25, 0.3, 0.49995}) {
    const Params p = bin_params(HashMode::kFast, 1, 4, q);
    const auto near = static_cast<std::uint64_t>(std::floor(q * 2147483648.0));
    for (std::uint64_t x = near - 1; x <= near + 2; ++x) {
      const NodeState state = fast_state((x << 33) | 0x1234567ull);
      for (const int fillers : {0, 63}) {
        UtsWork work(p, CostModel{});
        for (int i = 0; i < fillers; ++i) work.push_pending(NodeState{}, 1);
        work.push_pending(state, 1);
        ASSERT_EQ(work.step(1).units_done, 1u);
        EXPECT_EQ(work.amount(), fillers + num_children(p, state, 1))
            << "q=" << q << " x=" << x << " fillers=" << fillers;
      }
    }
  }
}

// ------------------------------------------------- frontier semantics pin ---

// The frontier as a front/back deque of NodeState entries expanded through
// child_state/num_children: the algorithm UtsWork must reproduce bit for
// bit (node order, split and merge results, units and simulated cost).
struct RefWork {
  struct Item {
    NodeState state;
    int depth = 0;
  };
  std::deque<Item> pending;
  std::uint64_t counted = 0;

  lb::StepResult step(const Params& p, const CostModel& c, std::uint64_t max_units) {
    lb::StepResult r;
    while (r.units_done < max_units && !pending.empty()) {
      const Item item = pending.back();
      pending.pop_back();
      ++r.units_done;
      ++counted;
      r.sim_cost += c.per_node;
      const int kids = num_children(p, item.state, item.depth);
      for (int i = 0; i < kids; ++i) {
        pending.push_back({child_state(p, item.state, static_cast<std::uint32_t>(i)),
                           item.depth + 1});
        r.sim_cost += c.per_child;
      }
    }
    return r;
  }

  /// Returns false (and changes nothing) when UtsWork::split returns null.
  bool split(double fraction, RefWork* out) {
    if (pending.size() < 2) return false;
    auto take = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(pending.size())));
    if (take == 0) take = 1;
    if (take >= pending.size()) take = pending.size() - 1;
    for (std::size_t i = 0; i < take; ++i) {
      out->pending.push_back(pending.front());
      pending.pop_front();
    }
    return true;
  }

  void merge(RefWork& other) {
    for (const Item& item : other.pending) pending.push_back(item);
    counted += other.counted;
    other.pending.clear();
    other.counted = 0;
  }
};

void expect_same_frontier(const UtsWork& work, const RefWork& ref, const char* where) {
  ASSERT_EQ(work.pending_count(), ref.pending.size()) << where;
  EXPECT_EQ(work.amount(), static_cast<double>(ref.pending.size())) << where;
  EXPECT_EQ(work.empty(), ref.pending.empty()) << where;
  EXPECT_EQ(work.nodes_counted(), ref.counted) << where;
  std::size_t i = 0;
  work.visit_pending([&](const NodeState& state, int depth) {
    EXPECT_EQ(state.bytes, ref.pending[i].state.bytes) << where << " entry " << i;
    EXPECT_EQ(depth, ref.pending[i].depth) << where << " entry " << i;
    ++i;
  });
}

struct FrontierRow {
  const char* name;
  Params params;
};

Params geo_params() {
  Params p;
  p.shape = TreeShape::kGeometric;
  p.b0 = 6;
  p.gen_mx = 8;
  p.root_seed = 5;
  return p;
}

TEST(UtsWork, FrontierMatchesTheDequeAlgorithmUnderRandomOperations) {
  const FrontierRow rows[] = {
      {"BIN m=2", bin_params(HashMode::kFast, 3, 150, 0.49)},
      {"BIN m=3", [] {
         Params p = bin_params(HashMode::kFast, 4, 90, 0.32);
         p.m = 3;
         return p;
       }()},
      {"GEO", geo_params()},
  };
  CostModel costs;
  costs.per_node = 3;
  costs.per_child = 7;
  for (const FrontierRow& row : rows) {
    SCOPED_TRACE(row.name);
    const std::uint64_t total = count_tree(row.params).nodes;
    ASSERT_GT(total, 1000u);  // big enough to cross many block edges
    Xoshiro256 rng(0x5eed0000 + static_cast<std::uint64_t>(row.params.root_seed));
    std::vector<std::unique_ptr<lb::Work>> works;
    std::vector<RefWork> refs(1);
    works.push_back(UtsWork::whole_tree(row.params, costs));
    refs[0].pending.push_back({root_state(row.params), 0});
    std::uint64_t units = 0;
    for (int op = 0; op < 4000 && units < total; ++op) {
      const std::size_t i = rng.below(works.size());
      auto& work = static_cast<UtsWork&>(*works[i]);
      const std::uint64_t dice = rng.below(10);
      if (dice < 6) {
        const std::uint64_t k = 1 + rng.below(200);
        const lb::StepResult got = work.step(k);
        const lb::StepResult want = refs[i].step(row.params, costs, k);
        EXPECT_EQ(got.units_done, want.units_done) << "op " << op;
        EXPECT_EQ(got.sim_cost, want.sim_cost) << "op " << op;
        units += got.units_done;
      } else if (dice < 9) {
        const double fraction = 0.02 + 0.96 * static_cast<double>(rng.below(1000)) / 1000.0;
        RefWork piece_ref;
        auto piece = work.split(fraction);
        ASSERT_EQ(piece != nullptr, refs[i].split(fraction, &piece_ref)) << "op " << op;
        if (piece != nullptr) {
          expect_same_frontier(static_cast<UtsWork&>(*piece), piece_ref, "split piece");
          works.push_back(std::move(piece));
          refs.push_back(std::move(piece_ref));
        }
      } else if (works.size() > 1) {
        std::size_t j = rng.below(works.size());
        if (j == i) j = (j + 1) % works.size();
        work.merge(std::move(works[j]));
        refs[i].merge(refs[j]);
        works.erase(works.begin() + static_cast<std::ptrdiff_t>(j));
        refs.erase(refs.begin() + static_cast<std::ptrdiff_t>(j));
      }
      for (std::size_t w = 0; w < works.size(); ++w) {
        expect_same_frontier(static_cast<const UtsWork&>(*works[w]), refs[w], "after op");
      }
      if (HasFailure()) return;
    }
    // Drain what is left; the pieces together visit the whole tree.
    for (std::size_t w = 0; w < works.size(); ++w) {
      while (!works[w]->empty()) {
        const lb::StepResult got = works[w]->step(1000);
        const lb::StepResult want = refs[w].step(row.params, costs, 1000);
        EXPECT_EQ(got.units_done, want.units_done);
        EXPECT_EQ(got.sim_cost, want.sim_cost);
        units += got.units_done;
      }
      expect_same_frontier(static_cast<const UtsWork&>(*works[w]), refs[w], "drained");
    }
    EXPECT_EQ(units, total);
  }
}

}  // namespace
}  // namespace olb::uts
