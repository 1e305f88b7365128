// run_sockets: the per-process harness of the socket backend. Builds this
// rank's single OverlayPeer from the shared RunConfig (the overlay tree and
// peer config are derived locally and cross-checked during bootstrap), runs
// it on a SocketNet, then all-gathers per-rank result blobs through rank 0
// so every process returns identical cluster-wide metrics — including the
// merged B&B incumbent, so every process prints the globally best solution.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "lb/messages.hpp"
#include "runtime/runtime.hpp"
#include "runtime/socket_net.hpp"
#include "runtime/wire.hpp"
#include "runtime/work_codec.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::runtime {
namespace {

/// Everything a rank reports about its own run; exchanged as an opaque blob
/// via kResult/kSummary and decoded identically everywhere.
struct RankResult {
  bool completed = false;
  std::int64_t best_bound = lb::kNoBound;
  std::uint64_t msgs_sent = 0;
  std::uint64_t work_requests = 0;
  std::uint64_t work_transfers = 0;
  lb::StateTap tap;  ///< tap.peer is the rank
  std::int64_t done_ns = -1;  ///< root's termination time; -1 on other ranks
  std::vector<std::uint8_t> solution;  ///< codec solution blob (may be empty)
};

void encode_rank_result(const RankResult& r, WireWriter& w) {
  w.i32(r.tap.peer);
  w.u8(r.completed ? 1 : 0);
  w.i64(r.best_bound);
  w.u64(r.msgs_sent);
  w.u64(r.work_requests);
  w.u64(r.work_transfers);
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (r.tap.crashed ? 1 : 0) | (r.tap.holds_work ? 2 : 0) |
      (r.tap.terminated ? 4 : 0) | (r.tap.computing ? 8 : 0) |
      (r.tap.departed ? 16 : 0));
  w.u8(flags);
  w.f64(r.tap.work_amount);
  w.u64(r.tap.units_done);
  w.u64(r.tap.transfers_sent);
  w.u64(r.tap.transfers_recv);
  w.u64(r.tap.pending_requests);
  w.u64(r.tap.subtree_size);
  w.i64(r.done_ns);
  w.blob(r.solution);
}

RankResult decode_rank_result(WireReader& r) {
  RankResult out;
  out.tap.peer = r.i32();
  out.completed = r.u8() != 0;
  out.best_bound = r.i64();
  out.msgs_sent = r.u64();
  out.work_requests = r.u64();
  out.work_transfers = r.u64();
  const std::uint8_t flags = r.u8();
  out.tap.crashed = (flags & 1) != 0;
  out.tap.holds_work = (flags & 2) != 0;
  out.tap.terminated = (flags & 4) != 0;
  out.tap.computing = (flags & 8) != 0;
  out.tap.departed = (flags & 16) != 0;
  out.tap.work_amount = r.f64();
  out.tap.units_done = r.u64();
  out.tap.transfers_sent = r.u64();
  out.tap.transfers_recv = r.u64();
  out.tap.pending_requests = r.u64();
  out.tap.subtree_size = r.u64();
  out.done_ns = r.i64();
  out.solution = r.blob();
  OLB_CHECK_MSG(r.exhausted(), "malformed rank result blob");
  return out;
}

/// All ranks must have been launched with the same run parameters; the
/// digest travels in every hello/config frame so a mismatched launch dies
/// at bootstrap instead of silently computing garbage.
std::uint64_t config_digest(const lb::RunConfig& config) {
  std::uint64_t d = 0xA0B1C2D3E4F50617ull;
  const auto mixin = [&d](std::uint64_t v) { d = mix64(d ^ v); };
  mixin(static_cast<std::uint64_t>(config.strategy));
  mixin(static_cast<std::uint64_t>(config.num_peers));
  mixin(static_cast<std::uint64_t>(config.dmax));
  mixin(config.seed);
  mixin(config.chunk_units);
  // Membership schedule: all ranks must agree on who starts dormant and on
  // every scheduled join/leave, or the cluster's trees diverge at runtime.
  mixin(static_cast<std::uint64_t>(config.churn.initial_peers));
  mixin(config.churn.events.size());
  for (const lb::ChurnEvent& e : config.churn.events) {
    mixin(static_cast<std::uint64_t>(e.time));
    mixin(static_cast<std::uint64_t>(e.peer));
    mixin(e.join ? 1 : 0);
  }
  return d;
}

/// `<prefix>.run<k>.rank<r>.ndjson`. The per-rank run counter is
/// process-global (mutex-guarded) so in-process multi-rank tests and
/// sequential runs in one bench process both number their files 0,1,2,...
/// in lockstep across ranks — all ranks pass the same uniform CLI, so their
/// counters advance together.
std::string next_trace_path(const std::string& prefix, int rank) {
  static std::mutex mu;
  static std::map<int, int> run_counter;
  int k;
  {
    std::scoped_lock lock(mu);
    k = run_counter[rank]++;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, ".run%d.rank%d.ndjson", k, rank);
  return prefix + buf;
}

}  // namespace

ThreadRunMetrics run_sockets(lb::Workload& workload, const lb::RunConfig& config) {
  const std::string why = unsupported_reason(lb::Backend::kSockets, config);
  OLB_CHECK_MSG(why.empty(), why.c_str());
  OLB_CHECK(config.num_peers >= 1);
  OLB_CHECK(config.sockets.rank < config.num_peers);

  auto tree = std::make_shared<const overlay::TreeOverlay>(
      lb::make_overlay_tree(config));
  auto oc = std::make_shared<const lb::OverlayConfig>(lb::make_overlay_config(config));
  const std::unique_ptr<WorkCodec> codec = make_work_codec(workload);

  SocketNet::Options options;
  options.rank = config.sockets.rank;
  options.peers = config.sockets.peers;
  options.seed = config.seed;
  options.config_digest = config_digest(config);
  options.overlay_parent.reserve(static_cast<std::size_t>(tree->size()));
  for (int i = 0; i < tree->size(); ++i) {
    options.overlay_parent.push_back(tree->parent(i));
  }
  if (!config.sockets.trace_prefix.empty()) {
    options.trace_path =
        next_trace_path(config.sockets.trace_prefix, options.rank);
  }

  SocketNet net(options, codec.get());
  auto owned = std::make_unique<lb::OverlayPeer>(
      tree, oc, options.rank == 0 ? workload.make_root_work() : nullptr);
  lb::OverlayPeer* peer = owned.get();
  net.set_actor(std::move(owned));

  net.start();
  const RunResult run = net.run(
      [](const sim::Actor& a) {
        return static_cast<const lb::PeerBase&>(a).saw_terminate();
      },
      config.limits.time_limit);

  RankResult mine;
  mine.completed = run.completed;
  mine.best_bound = peer->best_bound();
  mine.msgs_sent = net.messages_sent();
  mine.work_requests = net.sent_of_type(lb::kReqDown) +
                       net.sent_of_type(lb::kReqUp) +
                       net.sent_of_type(lb::kReqBridge);
  mine.work_transfers = net.sent_of_type(lb::kWork);
  mine.tap = peer->state_tap();
  mine.done_ns = options.rank == 0 ? peer->done_time() : -1;
  {
    WireWriter sol;
    codec->encode_solution(sol);
    mine.solution = sol.take();
  }
  WireWriter blob;
  encode_rank_result(mine, blob);

  const std::vector<std::vector<std::uint8_t>> blobs =
      net.exchange_results(blob.take());

  ThreadRunMetrics metrics;
  metrics.wall_seconds = run.wall_seconds;
  bool all_done = true;
  std::int64_t done_ns = -1;
  for (int rank = 0; rank < config.num_peers; ++rank) {
    WireReader reader(blobs[static_cast<std::size_t>(rank)]);
    RankResult r = decode_rank_result(reader);
    OLB_CHECK_MSG(r.tap.peer == rank, "result blobs out of rank order");
    metrics.total_units += r.tap.units_done;
    metrics.best_bound = std::min(metrics.best_bound, r.best_bound);
    metrics.total_messages += r.msgs_sent;
    metrics.work_requests += r.work_requests;
    metrics.work_transfers += r.work_transfers;
    metrics.final_state.push_back(r.tap);
    if (!r.completed || !r.tap.terminated || r.tap.holds_work) all_done = false;
    if (rank == 0) done_ns = r.done_ns;
    if (!r.solution.empty()) {
      WireReader sol(r.solution);
      OLB_CHECK_MSG(codec->merge_solution(sol) && sol.exhausted(),
                    "malformed solution blob in rank result");
    }
  }
  metrics.done_seconds = sim::to_seconds(std::max<std::int64_t>(done_ns, 0));
  metrics.ok = all_done && done_ns >= 0;
  net.shutdown();
  return metrics;
}

}  // namespace olb::runtime
