// The Unbalanced Tree Search (UTS) benchmark (Olivier et al., LCPC'06).
//
// UTS counts the nodes of an implicitly defined random tree whose subtree
// sizes have extreme variance, making it the reference adversary for dynamic
// load balancing. A node is identified by a splittable deterministic random
// state; the state of child i is a cryptographic hash of the parent state
// and i, so any node's subtree can be regenerated anywhere from 20 bytes —
// exactly the property that makes UTS work cheap to ship between peers.
//
// Tree shapes:
//  * Binomial (BIN): the root has b0 children; every other node has m
//    children with probability q and none with probability 1-q. With
//    m*q -> 1 the process is near-critical and subtree sizes are wildly
//    unbalanced. The paper's instances are BIN (b=2000, m=2, q≈0.4999995).
//  * Geometric (GEO): the number of children is geometrically distributed
//    with depth-dependent mean b(d) = b0 * (1 - d/gen_mx) (linear shape),
//    zero beyond depth gen_mx.
//
// Hash modes:
//  * kSha1 — child state = SHA-1(parent state || be32(child index)); matches
//    the construction of the reference benchmark. It is the sequential
//    reference mode: count_tree() runs it, the fidelity tests cover it.
//  * kFast — 64-bit splitmix mixing; ~20x faster, same statistics. Every
//    distributed run uses it: the lb::Work adapter (uts_work.hpp) is
//    fast-hash only.
#pragma once

#include <array>
#include <cstdint>

#include "support/sha1.hpp"

namespace olb::uts {

enum class TreeShape { kBinomial, kGeometric };
enum class HashMode { kSha1, kFast };

struct Params {
  TreeShape shape = TreeShape::kBinomial;
  HashMode hash = HashMode::kFast;
  int b0 = 2000;        ///< root branching factor
  double q = 0.4999;    ///< BIN: probability of having m children
  int m = 2;            ///< BIN: number of children when spawning
  int gen_mx = 6;       ///< GEO: maximum depth
  std::uint32_t root_seed = 599;  ///< the paper's "r" parameter

  /// Expected BIN tree size b0/(1 - m*q) + 1 (infinite if m*q >= 1).
  double expected_size() const;
};

/// A node's 20-byte splittable random state (kFast uses the first 8 bytes).
struct NodeState {
  std::array<std::uint8_t, 20> bytes{};

  /// Uniform value in [0, 1) derived from the state.
  double uniform01() const;
  /// Raw 31-bit value (mirrors the reference benchmark's rng_rand()).
  std::uint32_t random31() const;
};

/// A kFast state's 64-bit value: its first 8 bytes, big-endian.
std::uint64_t fast_value(const NodeState& state);
/// The kFast state of a 64-bit value (bytes 8-19 zero).
NodeState fast_state(std::uint64_t value);

/// State of the tree root for the given parameters.
NodeState root_state(const Params& params);

/// State of child `index` of a node with state `parent`.
NodeState child_state(const Params& params, const NodeState& parent,
                      std::uint32_t index);

/// Number of children of a node with the given state and depth.
int num_children(const Params& params, const NodeState& state, int depth);

/// Result of a full sequential traversal.
struct TreeStats {
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  int max_depth = 0;
};

/// Sequentially counts the whole tree (DFS, explicit stack).
TreeStats count_tree(const Params& params);

}  // namespace olb::uts
