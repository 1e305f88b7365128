// UTS adapter for the generic lb::Work interface.
//
// Pending (generated but unexplored) tree nodes form a frontier: DFS
// processing pops from the back, stealing splits off the *front* — the
// oldest, shallowest entries, which statistically root the largest subtrees
// (the classic work-stealing convention). amount() is the frontier length.
//
// The adapter runs on the fast hash only (HashMode::kFast; SHA-1 stays the
// sequential reference mode of count_tree). A node is its native 64-bit
// state plus its depth, 16 bytes, and the frontier keeps them in fixed
// 64-entry blocks. One emptied block is kept as a spare so a frontier that
// oscillates at a block edge does not allocate; an empty frontier holds no
// block at all, so an idle peer's work object costs no frontier memory.
// Node order, split/merge results and simulated costs are those of a
// front/back deque of (child_state, num_children) expansions, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "lb/work.hpp"
#include "simnet/time.hpp"
#include "uts/uts.hpp"

namespace olb::uts {

/// Simulated cost model for processing UTS nodes.
struct CostModel {
  sim::Time per_node = sim::microseconds(1);   ///< per node visited
  sim::Time per_child = sim::microseconds(1);  ///< per child state generated
};

class UtsWork final : public lb::Work {
 public:
  /// `params.hash` must be HashMode::kFast.
  UtsWork(Params params, CostModel costs);

  /// The whole tree as one pending node (the root).
  static std::unique_ptr<UtsWork> whole_tree(const Params& params,
                                             const CostModel& costs);

  double amount() const override { return static_cast<double>(size_); }
  bool empty() const override { return size_ == 0; }
  std::unique_ptr<lb::Work> split(double fraction) override;
  void merge(std::unique_ptr<lb::Work> other) override;
  lb::StepResult step(std::uint64_t max_units) override;

  std::uint64_t nodes_counted() const { return nodes_counted_; }
  /// Heap bytes the frontier holds: its blocks, the spare and the block
  /// table. 0 whenever the work is empty.
  std::size_t frontier_bytes() const {
    return (blocks_.size() + (spare_ != nullptr ? 1 : 0)) * sizeof(Block) +
           blocks_.capacity() * sizeof(blocks_[0]);
  }

  // --- wire-serialisation access (runtime work codec) ---

  std::size_t pending_count() const { return size_; }
  /// Visits pending nodes front-to-back as fn(const NodeState&, int depth).
  template <typename Fn>
  void visit_pending(Fn&& fn) const {
    for_each_run([&](const Node* first, std::size_t count) {
      for (const Node* n = first; n != first + count; ++n) {
        fn(fast_state(n->state), static_cast<int>(n->depth));
      }
    });
  }
  /// Appends one pending node at the back (decode rebuilds in visit order).
  /// Only the first 8 state bytes are kept: a fast-hash state has no others.
  void push_pending(const NodeState& state, int depth) {
    const Node n{fast_value(state), depth};
    append(&n, 1);
  }
  void add_nodes_counted(std::uint64_t n) { nodes_counted_ += n; }

 private:
  struct Node {
    std::uint64_t state;
    std::int32_t depth;
  };
  static constexpr std::uint32_t kBlockNodes = 64;
  using Block = std::array<Node, kBlockNodes>;

  /// Calls fn(const Node* first, std::size_t count) on each block's live
  /// run, front to back.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::uint32_t begin = b == 0 ? head_ : 0;
      const std::uint32_t end = b + 1 == blocks_.size() ? tail_ : kBlockNodes;
      fn(blocks_[b]->data() + begin, std::size_t{end - begin});
    }
  }

  /// Number of children of `n`: exactly num_children() on its NodeState.
  int kids_of(Node n) const;
  /// Appends the children of `n` one by one and returns how many: the
  /// step() path of the root, GEO nodes and BIN nodes at a block edge,
  /// kept out of line so step()'s loop keeps its state in registers.
  [[gnu::noinline]] std::uint64_t expand(Node n);
  /// Copies `count` nodes to the back, opening blocks as they fill.
  void append(const Node* first, std::size_t count);
  /// Opens a fresh back block (the spare if there is one).
  void grow();
  /// Drops the emptied back block, keeping it as the spare.
  void retreat();
  /// Frees every block once the frontier is empty.
  void release_if_empty();

  Params params_;
  CostModel costs_;
  /// A non-root BIN node spawns iff `state >> 33 < spawn_below_`, which is
  /// `uniform01() < q` with both sides scaled by 2^31.
  std::uint64_t spawn_below_ = 0;
  /// blocks_[0][head_] is the front, blocks_.back()[tail_ - 1] the back.
  std::vector<std::unique_ptr<Block>> blocks_;
  std::unique_ptr<Block> spare_;
  std::uint32_t head_ = 0;
  std::uint32_t tail_ = 0;
  std::size_t size_ = 0;
  std::uint64_t nodes_counted_ = 0;
};

/// Workload wrapper used by experiment drivers.
class UtsWorkload final : public lb::Workload {
 public:
  UtsWorkload(Params params, CostModel costs) : params_(params), costs_(costs) {}

  std::unique_ptr<lb::Work> make_root_work() override {
    return UtsWork::whole_tree(params_, costs_);
  }
  const char* name() const override { return "UTS"; }

  const Params& params() const { return params_; }
  const CostModel& costs() const { return costs_; }

 private:
  Params params_;
  CostModel costs_;
};

}  // namespace olb::uts
