#include "uts/uts.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::uts {

double Params::expected_size() const {
  if (shape == TreeShape::kBinomial) {
    const double mq = static_cast<double>(m) * q;
    if (mq >= 1.0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(b0) / (1.0 - mq) + 1.0;
  }
  // GEO with linear shape: product over depths of mean branching; report the
  // crude geometric-series estimate with the depth-0 mean.
  double total = 1.0;
  double level = 1.0;
  for (int d = 0; d < gen_mx; ++d) {
    level *= static_cast<double>(b0) * (1.0 - static_cast<double>(d) / gen_mx);
    total += level;
  }
  return total;
}

double NodeState::uniform01(HashMode hash) const {
  return static_cast<double>(random31(hash)) * 0x1.0p-31;
}

std::uint32_t NodeState::random31(HashMode hash) const {
  const std::size_t first = hash == HashMode::kSha1 ? 16 : 0;
  std::uint32_t v = 0;
  for (std::size_t i = first; i < first + 4; ++i) v = (v << 8) | bytes[i];
  return hash == HashMode::kSha1 ? v & 0x7fffffffu : v >> 1;
}

NodeState fast_state(std::uint64_t value) {
  NodeState s;
  for (int i = 0; i < 8; ++i) {
    s.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value >> (56 - 8 * i));
  }
  return s;
}

std::uint64_t fast_value(const NodeState& s) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | s.bytes[static_cast<std::size_t>(i)];
  return v;
}

NodeState root_state(const Params& params) {
  if (params.hash == HashMode::kSha1) {
    // The reference rng_init: SHA-1 of a 20-byte block, 16 zero bytes and
    // then the big-endian seed.
    std::array<std::uint8_t, 20> block{};
    for (int i = 0; i < 4; ++i) {
      block[static_cast<std::size_t>(16 + i)] =
          static_cast<std::uint8_t>(params.root_seed >> (24 - 8 * i));
    }
    NodeState s;
    s.bytes = Sha1::hash(block);
    return s;
  }
  return fast_state(mix64(0x5554535f726f6f74ull ^ params.root_seed));
}

NodeState child_state(const Params& params, const NodeState& parent,
                      std::uint32_t index) {
  if (params.hash == HashMode::kSha1) {
    Sha1 h;
    h.update(parent.bytes.data(), parent.bytes.size());
    std::array<std::uint8_t, 4> idx_bytes{};
    for (int i = 0; i < 4; ++i) {
      idx_bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(index >> (24 - 8 * i));
    }
    h.update(idx_bytes.data(), idx_bytes.size());
    NodeState s;
    s.bytes = h.finish();
    return s;
  }
  const std::uint64_t parent_value = fast_value(parent);
  return fast_state(mix64(parent_value ^ mix64(0x63686c64ull + index)));
}

int num_children(const Params& params, const NodeState& state, int depth) {
  if (params.shape == TreeShape::kBinomial) {
    if (depth == 0) return params.b0;
    return state.uniform01(params.hash) < params.q ? params.m : 0;
  }
  // Geometric with linear shape.
  if (depth >= params.gen_mx) return 0;
  const double b_d =
      static_cast<double>(params.b0) *
      (1.0 - static_cast<double>(depth) / static_cast<double>(params.gen_mx));
  if (b_d <= 0.0) return 0;
  const double p = 1.0 / (1.0 + b_d);  // geometric parameter with mean b_d
  const double u = state.uniform01(params.hash);
  const int k = static_cast<int>(std::floor(std::log1p(-u) / std::log1p(-p)));
  return k;
}

TreeStats count_tree(const Params& params) {
  struct Item {
    NodeState state;
    int depth;
  };
  std::vector<Item> stack;
  stack.push_back({root_state(params), 0});
  TreeStats stats;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    ++stats.nodes;
    if (item.depth > stats.max_depth) stats.max_depth = item.depth;
    const int kids = num_children(params, item.state, item.depth);
    if (kids == 0) {
      ++stats.leaves;
      continue;
    }
    for (int i = 0; i < kids; ++i) {
      stack.push_back({child_state(params, item.state, static_cast<std::uint32_t>(i)),
                       item.depth + 1});
    }
  }
  return stats;
}

}  // namespace olb::uts
