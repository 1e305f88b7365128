// Factorials and the factorial number system (factoradic).
//
// The interval encoding of B&B work (Mezmaz, Melab, Talbi — IPDPS'07) maps
// every permutation of s elements to its lexicographic rank in [0, s!), so
// all work-splitting arithmetic happens on 64-bit ranks. 20! < 2^63, which
// covers the paper's largest problem size (flowshop with 20 jobs).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace olb {

/// Largest s with s! representable in uint64_t.
inline constexpr int kMaxFactorialArg = 20;

/// kFactorials[s] = s! for s in [0, 20].
inline constexpr std::array<std::uint64_t, kMaxFactorialArg + 1> kFactorials = [] {
  std::array<std::uint64_t, kMaxFactorialArg + 1> f{};
  f[0] = 1;
  for (std::size_t i = 1; i < f.size(); ++i) f[i] = f[i - 1] * i;
  return f;
}();

/// s! for s in [0, 20].
constexpr std::uint64_t factorial(int s) {
  OLB_CHECK(s >= 0 && s <= kMaxFactorialArg);
  return kFactorials[static_cast<std::size_t>(s)];
}

/// Lexicographic rank of `perm` (a permutation of 0..s-1) in [0, s!).
std::uint64_t permutation_rank(std::span<const int> perm);

/// Inverse of permutation_rank: the rank-th permutation of 0..s-1.
std::vector<int> permutation_unrank(std::uint64_t rank, int s);

}  // namespace olb
