#include "uts/uts_work.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::uts {
namespace {

/// child_state()'s per-index salt mix64(0x63686c64 + i), precomputed for the
/// small fan-outs of non-root BIN nodes.
constexpr std::uint32_t kSalts = 8;
constexpr std::array<std::uint64_t, kSalts> kChildSalt = [] {
  std::array<std::uint64_t, kSalts> salt{};
  for (std::uint32_t i = 0; i < kSalts; ++i) salt[i] = mix64(0x63686c64ull + i);
  return salt;
}();

/// The fast-hash state of child `index`: child_state() without the bytes.
std::uint64_t child_value(std::uint64_t parent, std::uint32_t index) {
  return mix64(parent ^ mix64(0x63686c64ull + index));
}

}  // namespace

UtsWork::UtsWork(Params params, CostModel costs) : params_(params), costs_(costs) {
  OLB_CHECK_MSG(params.hash == HashMode::kFast,
                "UtsWork runs on the fast hash; SHA-1 is count_tree's reference mode");
  if (params.q > 0) {
    spawn_below_ = static_cast<std::uint64_t>(std::ceil(std::min(params.q, 1.0) * 0x1.0p31));
  }
}

std::unique_ptr<UtsWork> UtsWork::whole_tree(const Params& params,
                                             const CostModel& costs) {
  auto work = std::make_unique<UtsWork>(params, costs);
  work->push_pending(root_state(params), 0);
  return work;
}

int UtsWork::kids_of(Node n) const {
  if (params_.shape == TreeShape::kBinomial) {
    if (n.depth == 0) return params_.b0;
    return (n.state >> 33) < spawn_below_ ? params_.m : 0;
  }
  // Geometric with linear shape, as num_children() computes it.
  if (n.depth >= params_.gen_mx) return 0;
  const double b_d =
      static_cast<double>(params_.b0) *
      (1.0 - static_cast<double>(n.depth) / static_cast<double>(params_.gen_mx));
  if (b_d <= 0.0) return 0;
  const double p = 1.0 / (1.0 + b_d);
  const double u = static_cast<double>(n.state >> 33) * 0x1.0p-31;
  return static_cast<int>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

void UtsWork::grow() {
  blocks_.push_back(spare_ != nullptr ? std::move(spare_)
                                      : std::make_unique_for_overwrite<Block>());
  tail_ = 0;
}

void UtsWork::retreat() {
  spare_ = std::move(blocks_.back());
  blocks_.pop_back();
  tail_ = kBlockNodes;
}

void UtsWork::release_if_empty() {
  if (size_ != 0) return;
  decltype(blocks_)().swap(blocks_);
  spare_.reset();
  head_ = 0;
  tail_ = 0;
}

void UtsWork::append(const Node* first, std::size_t count) {
  while (count != 0) {
    if (blocks_.empty() || tail_ == kBlockNodes) grow();
    const std::uint32_t run =
        static_cast<std::uint32_t>(std::min<std::size_t>(count, kBlockNodes - tail_));
    std::copy_n(first, run, blocks_.back()->data() + tail_);
    tail_ += run;
    size_ += run;
    first += run;
    count -= run;
  }
}

std::unique_ptr<lb::Work> UtsWork::split(double fraction) {
  OLB_CHECK(fraction > 0.0 && fraction < 1.0);
  if (size_ < 2) return nullptr;  // a single node is indivisible
  auto take = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(size_)));
  if (take == 0) take = 1;
  if (take >= size_) take = size_ - 1;

  auto out = std::make_unique<UtsWork>(params_, costs_);
  while (take != 0) {
    const std::uint32_t end = blocks_.size() == 1 ? tail_ : kBlockNodes;
    const std::uint32_t run =
        static_cast<std::uint32_t>(std::min<std::size_t>(take, end - head_));
    out->append(blocks_.front()->data() + head_, run);
    head_ += run;
    size_ -= run;
    take -= run;
    if (head_ == kBlockNodes) {  // the front block is spent
      spare_ = std::move(blocks_.front());
      blocks_.erase(blocks_.begin());
      head_ = 0;
    }
  }
  return out;
}

void UtsWork::merge(std::unique_ptr<lb::Work> other) {
  auto* uts = dynamic_cast<UtsWork*>(other.get());
  OLB_CHECK_MSG(uts != nullptr, "cannot merge foreign work into UtsWork");
  uts->for_each_run([&](const Node* first, std::size_t count) { append(first, count); });
  nodes_counted_ += uts->nodes_counted_;
  uts->size_ = 0;
  uts->release_if_empty();
  uts->nodes_counted_ = 0;
}

std::uint64_t UtsWork::expand(Node n) {
  const int kids = kids_of(n);
  for (int i = 0; i < kids; ++i) {
    const Node child{child_value(n.state, static_cast<std::uint32_t>(i)), n.depth + 1};
    append(&child, 1);
  }
  return kids > 0 ? static_cast<std::uint64_t>(kids) : 0;
}

lb::StepResult UtsWork::step(std::uint64_t max_units) {
  // A non-root BIN node whose m children fit in the back block has all m
  // written and `kids` of them kept: no branch per child, and none on
  // whether it spawns. Every other node goes through expand(). The loop
  // keeps the back of the frontier in locals, because a Node store may
  // alias the members and would force a reload per child.
  const auto m = static_cast<std::uint32_t>(params_.m);
  const bool binomial = params_.shape == TreeShape::kBinomial && m <= kSalts;
  const std::uint64_t spawn_below = spawn_below_;
  Node* back = blocks_.empty() ? nullptr : blocks_.back()->data();
  std::uint32_t tail = tail_;
  std::size_t size = size_;
  std::uint64_t done = 0;
  std::uint64_t children = 0;
  while (done < max_units && size != 0) {
    if (tail == 0) {
      retreat();
      back = blocks_.back()->data();
      tail = kBlockNodes;
    }
    const Node n = back[--tail];
    --size;
    ++done;
    if (binomial && n.depth != 0 && tail + m <= kBlockNodes) {
      const std::uint32_t kids =
          m & (0u - static_cast<std::uint32_t>((n.state >> 33) < spawn_below));
      for (std::uint32_t i = 0; i < m; ++i) {
        back[tail + i] = Node{mix64(n.state ^ kChildSalt[i]), n.depth + 1};
      }
      tail += kids;
      size += kids;
      children += kids;
      continue;
    }
    tail_ = tail;
    size_ = size;
    children += expand(n);
    back = blocks_.back()->data();
    tail = tail_;
    size = size_;
  }
  tail_ = tail;
  size_ = size;
  release_if_empty();
  nodes_counted_ += done;
  lb::StepResult result;
  result.units_done = done;
  result.sim_cost = static_cast<sim::Time>(done) * costs_.per_node +
                    static_cast<sim::Time>(children) * costs_.per_child;
  return result;
}

}  // namespace olb::uts
