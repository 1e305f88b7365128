#include "simnet/sharded_engine.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace olb::sim {
namespace {

/// Pause instructions a waiter spends before it blocks: about a millisecond
/// on a Sapphire Rapids Xeon (14 ns per pause). Most waits inside a run end
/// within it; once a run ends, the idle pool gives its cores back soon.
constexpr int kSpinLimit = 1 << 16;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Waits until `done(a)` holds and returns the value that satisfied it:
/// spinning first when `spin`, then blocking on the atomic.
template <class T, class Done>
T await(const std::atomic<T>& a, bool spin, Done done) {
  T v = a.load(std::memory_order_acquire);
  for (int i = 0; spin && i < kSpinLimit && !done(v); ++i) {
    cpu_relax();
    v = a.load(std::memory_order_acquire);
  }
  while (!done(v)) {
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

ShardedEngine::ShardedEngine(NetworkConfig config, std::uint64_t seed,
                             int num_peers, int num_shards, bool threaded) {
  OLB_CHECK(num_peers >= 1);
  OLB_CHECK(num_shards >= 1);
  int k = std::min(num_shards, num_peers);
  bool cluster_aligned = false;
  if (config.cluster_capacity > 0) {
    // Shards own whole clusters: every cross-shard link is then a
    // cross-cluster link, which buys the large (inter-cluster) lookahead.
    const int clusters =
        (num_peers + config.cluster_capacity - 1) / config.cluster_capacity;
    k = std::min(k, clusters);
    cluster_aligned = true;
    bases_.resize(static_cast<std::size_t>(k) + 1);
    for (int s = 0; s <= k; ++s) {
      const auto cluster_begin =
          static_cast<long long>(clusters) * s / k;
      bases_[static_cast<std::size_t>(s)] = static_cast<int>(
          std::min<long long>(cluster_begin * config.cluster_capacity,
                              num_peers));
    }
  } else {
    // Single uniform cluster: even peer split, intra-latency lookahead.
    bases_.resize(static_cast<std::size_t>(k) + 1);
    for (int s = 0; s <= k; ++s) {
      bases_[static_cast<std::size_t>(s)] =
          static_cast<int>(static_cast<long long>(num_peers) * s / k);
    }
  }
  lookahead_ = std::max<Time>(
      1, cluster_aligned && k >= 2 ? config.inter_latency : config.intra_latency);
  threaded_ = threaded && k >= 2;
  spin_ = static_cast<unsigned>(k) <= std::thread::hardware_concurrency();
  engines_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    auto engine = std::make_unique<Engine>(config, seed);
    engine->configure_shard(bases_, s);
    engines_.push_back(std::move(engine));
  }
}

ShardedEngine::~ShardedEngine() { stop_workers(); }

int ShardedEngine::shard_of(int id) const {
  OLB_CHECK(id >= 0 && id < bases_.back());
  const auto it = std::upper_bound(bases_.begin(), bases_.end(), id);
  return static_cast<int>(it - bases_.begin()) - 1;
}

int ShardedEngine::add_actor(std::unique_ptr<Actor> actor) {
  const int id = next_id_++;
  OLB_CHECK_MSG(id < bases_.back(), "more actors than the declared peer count");
  const int got = owner(id).add_actor(std::move(actor));
  OLB_CHECK(got == id);  // global add order fills each shard contiguously
  return id;
}

Engine::RunResult ShardedEngine::run(Time time_limit,
                                     std::uint64_t event_limit) {
  if (num_shards() == 1) {
    // One Engine over the whole peer range: one run() call, no windows.
    return engines_[0]->run(time_limit, event_limit);
  }
  Engine::RunResult total;
  std::uint64_t remaining = event_limit;
  window_results_.assign(engines_.size(), {});
  // Seed every shard's start wakes up front: the window base below is the
  // min of next_event_time() across shards, which must already see them.
  for (auto& e : engines_) e->schedule_startup();
  if (threaded_ && workers_.empty()) start_workers();
  for (;;) {
    Time t = kTimeMax;
    for (const auto& e : engines_) {
      t = std::min({t, e->next_event_time(), e->earliest_outbound()});
    }
    if (t == kTimeMax) {
      total.quiesced = true;
      break;
    }
    if (t > time_limit || remaining == 0) break;
    window_end_ = std::min(time_limit, t + (lookahead_ - 1));
    window_budget_ = remaining;
    if (threaded_) {
      pending_.store(2 * num_shards(), std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      serve_window(0);
      await(pending_, spin_, [](int left) { return left == 0; });
    } else {
      for (int s = 0; s < num_shards(); ++s) take_arrivals(s);
      for (int s = 0; s < num_shards(); ++s) run_shard_window(s);
    }
    ++windows_;
    std::uint64_t window_events = 0;
    for (const Engine::RunResult& r : window_results_) {
      window_events += r.events;
      total.end_time = std::max(total.end_time, r.end_time);
    }
    total.events += window_events;
    remaining -= std::min(remaining, window_events);
  }
  return total;
}

void ShardedEngine::run_shard_window(int s) {
  window_results_[static_cast<std::size_t>(s)] =
      engines_[static_cast<std::size_t>(s)]->run(window_end_, window_budget_);
}

void ShardedEngine::take_arrivals(int s) {
  Engine& dst = *engines_[static_cast<std::size_t>(s)];
  for (auto& src : engines_) dst.take_arrivals_from(*src);
}

void ShardedEngine::serve_window(int s) {
  take_arrivals(s);
  arrive();
  // No shard may send into an outbox its destination is still emptying.
  const int k = num_shards();
  await(pending_, spin_, [k](int left) { return left <= k; });
  run_shard_window(s);
  arrive();
}

void ShardedEngine::arrive() {
  const int left = pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (left == num_shards() || left == 0) pending_.notify_all();
}

void ShardedEngine::start_workers() {
  const std::uint32_t start = generation_.load(std::memory_order_relaxed);
  workers_.reserve(engines_.size() - 1);
  for (int s = 1; s < num_shards(); ++s) {
    workers_.emplace_back([this, s, start] {
      std::uint32_t seen = start;
      for (;;) {
        seen = await(generation_, spin_,
                     [seen](std::uint32_t g) { return g != seen; });
        if (stopping_) return;
        serve_window(s);
      }
    });
  }
}

void ShardedEngine::stop_workers() {
  if (workers_.empty()) return;
  stopping_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  stopping_ = false;
}

Tally ShardedEngine::tally() const {
  Tally total;
  for (const auto& e : engines_) total.merge(e->tally());
  return total;
}

void ShardedEngine::set_tracer(trace::TraceSink* tracer) {
  OLB_CHECK_MSG(tracer == nullptr || num_shards() == 1,
                "tracing requires a single shard (one global event order)");
  engines_[0]->set_tracer(tracer);
}

void ShardedEngine::set_metrics(metrics::MetricsHub* hub) {
  OLB_CHECK_MSG(hub == nullptr || num_shards() == 1,
                "live metrics require a single shard");
  engines_[0]->set_metrics(hub);
}

void ShardedEngine::set_faults(const FaultPlan& plan) {
  OLB_CHECK_MSG(num_shards() == 1,
                "fault injection requires a single shard");
  engines_[0]->set_faults(plan);
}

void ShardedEngine::set_perturbation(const SchedulePerturbation& p) {
  OLB_CHECK_MSG(!p.enabled() || num_shards() == 1,
                "schedule perturbation requires a single shard");
  engines_[0]->set_perturbation(p);
}

void ShardedEngine::set_planted_payload_drop(int nth) {
  OLB_CHECK_MSG(nth == 0 || num_shards() == 1,
                "bug plants require a single shard");
  engines_[0]->set_planted_payload_drop(nth);
}

std::size_t ShardedEngine::queue_memory_bytes() const {
  std::size_t total = 0;
  for (const auto& e : engines_) total += e->queue_memory_bytes();
  return total;
}

}  // namespace olb::sim
