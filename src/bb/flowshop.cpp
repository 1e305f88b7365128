#include "bb/flowshop.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "support/check.hpp"

namespace olb::bb {

TaillardRng::TaillardRng(std::int64_t seed) : seed_(seed) {
  OLB_CHECK_MSG(seed > 0 && seed < 2147483647, "Taillard seeds lie in (0, 2^31-1)");
}

int TaillardRng::next(int low, int high) {
  // Lehmer generator x <- 16807*x mod (2^31-1), Schrage's decomposition —
  // exactly the portable generator of Taillard (1993), Appendix.
  constexpr std::int64_t kM = 2147483647;
  constexpr std::int64_t kA = 16807;
  constexpr std::int64_t kB = 127773;
  constexpr std::int64_t kC = 2836;
  const std::int64_t k = seed_ / kB;
  seed_ = kA * (seed_ % kB) - k * kC;
  if (seed_ < 0) seed_ += kM;
  const double value01 = static_cast<double>(seed_) / static_cast<double>(kM);
  return low + static_cast<int>(value01 * static_cast<double>(high - low + 1));
}

FlowshopInstance::FlowshopInstance(std::string name, int jobs, int machines,
                                   std::vector<int> processing)
    : name_(std::move(name)), jobs_(jobs), machines_(machines),
      lanes_(machine_lanes(machines)), processing_(std::move(processing)) {
  OLB_CHECK(jobs_ >= 1 && jobs_ <= kMaxRowJobs && machines_ >= 1);
  OLB_CHECK(processing_.size() ==
            static_cast<std::size_t>(jobs_) * static_cast<std::size_t>(machines_));
  for (int v : processing_) OLB_CHECK(v >= 0);

  const std::int64_t total = std::accumulate(processing_.begin(), processing_.end(),
                                             std::int64_t{0});
  OLB_CHECK_MSG(total <= std::numeric_limits<std::int32_t>::max(),
                "total processing time must fit in 32 bits");

  tail_.assign(static_cast<std::size_t>(jobs_) * static_cast<std::size_t>(machines_ + 1), 0);
  for (int j = 0; j < jobs_; ++j) {
    for (int k = machines_ - 1; k >= 0; --k) {
      tail_[static_cast<std::size_t>(j) * static_cast<std::size_t>(machines_ + 1) +
            static_cast<std::size_t>(k)] =
          tail_[static_cast<std::size_t>(j) * static_cast<std::size_t>(machines_ + 1) +
                static_cast<std::size_t>(k + 1)] +
          p(j, k);
    }
  }

  const auto n = static_cast<std::size_t>(jobs_);
  const auto m = static_cast<std::size_t>(machines_);
  const std::size_t lanes = lanes_;
  // Pad lanes: P stays at the job's total, p at 0, the mask clears nothing.
  job_rows_.assign(n * 3 * lanes, ~std::uint32_t{0});
  ranked_tails_.assign(lanes * kRankedTailsStride, 0);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint32_t* row = job_rows_.data() + j * 3 * lanes;
    std::uint32_t sum = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::uint32_t pk =
          k < m ? static_cast<std::uint32_t>(p(static_cast<int>(j), static_cast<int>(k))) : 0;
      sum += pk;
      row[k] = sum;
      row[lanes + k] = pk;
    }
  }
  std::vector<int> order(n);
  for (int k = 0; k < machines_; ++k) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      return tail_after(x, k) < tail_after(y, k) ||
             (tail_after(x, k) == tail_after(y, k) && x < y);
    });
    const auto ks = static_cast<std::size_t>(k);
    for (std::size_t r = 0; r < n; ++r) {
      const int j = order[r];
      job_rows_[static_cast<std::size_t>(j) * 3 * lanes + 2 * lanes + ks] =
          ~(std::uint32_t{1} << r);
      ranked_tails_[ks * kRankedTailsStride + 1 + r] = static_cast<std::uint32_t>(tail_after(j, k));
    }
  }

  johnson_pairs_.resize((m - 1) * n);
  for (int k = 0; k + 1 < machines_; ++k) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int x, int y) { return johnson_before(x, y, k, k + 1); });
    for (std::size_t i = 0; i < n; ++i) {
      const int j = order[i];
      johnson_pairs_[static_cast<std::size_t>(k) * n + i] = {
          std::uint32_t{1} << j, static_cast<std::uint32_t>(p(j, k)),
          static_cast<std::uint32_t>(p(j, k + 1))};
    }
  }
}

bool FlowshopInstance::johnson_before(int x, int y, int ka, int kb) const {
  // Jobs with p_a < p_b first in increasing p_a, then jobs with
  // p_a >= p_b in decreasing p_b; ties by job id.
  const bool x_first = p(x, ka) < p(x, kb);
  const bool y_first = p(y, ka) < p(y, kb);
  if (x_first != y_first) return x_first;
  if (x_first) return p(x, ka) < p(y, ka) || (p(x, ka) == p(y, ka) && x < y);
  return p(x, kb) > p(y, kb) || (p(x, kb) == p(y, kb) && x < y);
}

FlowshopInstance FlowshopInstance::taillard(std::string name, int jobs, int machines,
                                            std::int64_t time_seed) {
  TaillardRng rng(time_seed);
  std::vector<int> processing(static_cast<std::size_t>(jobs) *
                              static_cast<std::size_t>(machines));
  // Taillard's published order: outer loop over machines, inner over jobs.
  for (int k = 0; k < machines; ++k) {
    for (int j = 0; j < jobs; ++j) {
      processing[static_cast<std::size_t>(k) * static_cast<std::size_t>(jobs) +
                 static_cast<std::size_t>(j)] = rng.next(1, 99);
    }
  }
  return FlowshopInstance(std::move(name), jobs, machines, std::move(processing));
}

std::span<const std::int64_t> FlowshopInstance::ta20x20_seeds() {
  static constexpr std::array<std::int64_t, 10> kSeeds = {
      479340445, 268827376, 1958948863, 918272953,  555010963,
      2010851491, 1519833303, 1650692823, 1899368766, 659404659};
  return kSeeds;
}

FlowshopInstance FlowshopInstance::ta20x20_scaled(int index, int jobs, int machines) {
  OLB_CHECK(index >= 0 && index < 10);
  OLB_CHECK(jobs >= 1 && jobs <= 20 && machines >= 1 && machines <= 20);
  // The full instance's stream is machine-major, 20 draws per machine: keep
  // the first `jobs` of each of the first `machines` rows.
  TaillardRng rng(ta20x20_seeds()[static_cast<std::size_t>(index)]);
  std::vector<int> processing;
  processing.reserve(static_cast<std::size_t>(jobs) * static_cast<std::size_t>(machines));
  for (int k = 0; k < machines; ++k) {
    for (int j = 0; j < 20; ++j) {
      const int v = rng.next(1, 99);
      if (j < jobs) processing.push_back(v);
    }
  }
  std::string name = "Ta" + std::to_string(21 + index) + "s";
  return FlowshopInstance(std::move(name), jobs, machines, std::move(processing));
}

std::int64_t FlowshopInstance::makespan(std::span<const int> permutation) const {
  OLB_CHECK(static_cast<int>(permutation.size()) == jobs_);
  std::vector<std::int64_t> completion(static_cast<std::size_t>(machines_), 0);
  for (int j : permutation) advance(completion, j);
  return completion[static_cast<std::size_t>(machines_ - 1)];
}

void FlowshopInstance::advance(std::span<std::int64_t> completion, int j) const {
  OLB_CHECK(static_cast<int>(completion.size()) == machines_);
  OLB_CHECK(j >= 0 && j < jobs_);
  std::int64_t prev = 0;
  for (int k = 0; k < machines_; ++k) {
    const std::int64_t start = std::max(prev, completion[static_cast<std::size_t>(k)]);
    prev = start + p(j, k);
    completion[static_cast<std::size_t>(k)] = prev;
  }
}

std::vector<int> neh_heuristic(const FlowshopInstance& inst) {
  const int n = inst.jobs();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return inst.total_time(a) > inst.total_time(b);
  });

  std::vector<int> sequence;
  sequence.reserve(static_cast<std::size_t>(n));
  for (int j : order) {
    std::size_t best_pos = 0;
    std::int64_t best_mk = -1;
    for (std::size_t pos = 0; pos <= sequence.size(); ++pos) {
      std::vector<int> candidate = sequence;
      candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(pos), j);
      std::vector<std::int64_t> completion(static_cast<std::size_t>(inst.machines()), 0);
      for (int job : candidate) inst.advance(completion, job);
      const std::int64_t mk = completion[static_cast<std::size_t>(inst.machines() - 1)];
      if (best_mk < 0 || mk < best_mk) {
        best_mk = mk;
        best_pos = pos;
      }
    }
    sequence.insert(sequence.begin() + static_cast<std::ptrdiff_t>(best_pos), j);
  }
  return sequence;
}

std::int64_t brute_force_optimum(const FlowshopInstance& inst,
                                 std::vector<int>* best_perm) {
  OLB_CHECK_MSG(inst.jobs() <= 10, "brute force limited to 10 jobs");
  std::vector<int> perm(static_cast<std::size_t>(inst.jobs()));
  std::iota(perm.begin(), perm.end(), 0);
  std::int64_t best = -1;
  do {
    const std::int64_t mk = inst.makespan(perm);
    if (best < 0 || mk < best) {
      best = mk;
      if (best_perm != nullptr) *best_perm = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace olb::bb
