// run_sockets: the per-process harness of the socket backend. Keeps this
// rank's peer of the cluster lb::build_cluster derives from the shared
// RunConfig (an overlay's tree is cross-checked during bootstrap), runs it
// on a SocketNet, then all-gathers per-rank results through rank 0 and
// folds them with lb::fold_reports, so every process returns identical
// cluster-wide metrics — including the merged B&B incumbent, so every
// process prints the globally best solution.

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lb/messages.hpp"
#include "runtime/runtime.hpp"
#include "runtime/socket_net.hpp"
#include "runtime/wire.hpp"
#include "runtime/work_codec.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::runtime {
namespace {

/// Everything a rank reports about its own run, exchanged as an opaque blob
/// via kResult/kSummary and decoded identically everywhere: its peer report
/// and its sends by type (what lb::fold_reports folds on every backend),
/// and its share of the B&B incumbent.
struct RankResult {
  lb::PeerReport report;  ///< report.tap.peer is the rank
  sim::Tally sends;       ///< messages and sent_by_type only
  std::vector<std::uint8_t> solution;  ///< codec solution blob (may be empty)
};

void encode_rank_result(const RankResult& r, WireWriter& w) {
  const lb::StateTap& tap = r.report.tap;
  w.i32(tap.peer);
  w.i64(r.report.best_bound);
  w.u64(r.report.retries);
  w.i64(r.report.done_time);
  w.u32(static_cast<std::uint32_t>(r.sends.sent_by_type.size()));
  for (std::uint64_t sent : r.sends.sent_by_type) w.u64(sent);
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (tap.crashed ? 1 : 0) | (tap.holds_work ? 2 : 0) |
      (tap.terminated ? 4 : 0) | (tap.computing ? 8 : 0) |
      (tap.departed ? 16 : 0));
  w.u8(flags);
  w.f64(tap.work_amount);
  w.u64(tap.units_done);
  w.u64(tap.transfers_sent);
  w.u64(tap.transfers_recv);
  w.u64(tap.pending_requests);
  w.u64(tap.subtree_size);
  w.blob(r.solution);
}

RankResult decode_rank_result(WireReader& r) {
  RankResult out;
  lb::StateTap& tap = out.report.tap;
  tap.peer = r.i32();
  out.report.best_bound = r.i64();
  out.report.retries = r.u64();
  out.report.done_time = r.i64();
  const std::uint32_t types = r.u32();
  OLB_CHECK_MSG(types <= static_cast<std::uint32_t>(lb::kNumMsgTypes),
                "malformed rank result blob");
  for (std::uint32_t type = 0; type < types; ++type) {
    out.sends.sent_by_type.push_back(r.u64());
    out.sends.messages += out.sends.sent_by_type.back();
  }
  const std::uint8_t flags = r.u8();
  tap.crashed = (flags & 1) != 0;
  tap.holds_work = (flags & 2) != 0;
  tap.terminated = (flags & 4) != 0;
  tap.computing = (flags & 8) != 0;
  tap.departed = (flags & 16) != 0;
  tap.work_amount = r.f64();
  tap.units_done = r.u64();
  tap.transfers_sent = r.u64();
  tap.transfers_recv = r.u64();
  tap.pending_requests = r.u64();
  tap.subtree_size = r.u64();
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
  lb::require_supported(config, lb::Backend::kSockets);
  const std::unique_ptr<WorkCodec> codec = make_work_codec(workload);

  SocketNet::Options options;
  options.rank = config.sockets.rank;
  options.peers = config.sockets.peers;
  options.seed = config.seed;
  options.config_digest = config_digest(config);
  if (lb::strategy_is_overlay(config.strategy)) {
    const overlay::TreeOverlay tree = lb::make_overlay_tree(config);
    for (int i = 0; i < tree.size(); ++i) {
      options.overlay_parent.push_back(tree.parent(i));
    }
  }
  if (!config.sockets.trace_prefix.empty()) {
    options.trace_path =
        next_trace_path(config.sockets.trace_prefix, options.rank);
  }

  SocketNet net(options, codec.get());
  // This rank's peer of the cluster every backend builds; the rest go.
  std::unique_ptr<lb::PeerBase> owned = std::move(
      lb::build_cluster(workload, config)[static_cast<std::size_t>(options.rank)]);
  const lb::PeerBase* peer = owned.get();
  net.set_actor(std::move(owned));

  net.start();
  const RunResult run = net.run(
      [](const sim::Actor& a) {
        return static_cast<const lb::PeerBase&>(a).saw_terminate();
      },
      config.limits.time_limit);

  RankResult mine;
  mine.report = peer->report();
  mine.sends.sent_by_type = net.tally().sent_by_type;
  {
    WireWriter sol;
    codec->encode_solution(sol);
    mine.solution = sol.take();
  }
  WireWriter blob;
  encode_rank_result(mine, blob);

  const std::vector<std::vector<std::uint8_t>> blobs =
      net.exchange_results(blob.take());

  std::vector<lb::PeerReport> reports;
  sim::Tally sends;
  for (int rank = 0; rank < config.num_peers; ++rank) {
    WireReader reader(blobs[static_cast<std::size_t>(rank)]);
    RankResult r = decode_rank_result(reader);
    OLB_CHECK_MSG(r.report.tap.peer == rank, "result blobs out of rank order");
    reports.push_back(r.report);
    sends.merge(r.sends);
    if (!r.solution.empty()) {
      WireReader sol(r.solution);
      OLB_CHECK_MSG(codec->merge_solution(sol) && sol.exhausted(),
                    "malformed solution blob in rank result");
    }
  }
  // A rank's clock starts at its own receipt of the start barrier, so the
  // run's time is the declaring rank's, never a minimum over ranks.
  ThreadRunMetrics metrics = thread_metrics(
      lb::fold_reports(
          config.num_peers,
          [&](int rank) { return reports[static_cast<std::size_t>(rank)]; }, sends),
      run.wall_seconds);
  net.shutdown();
  return metrics;
}

}  // namespace olb::runtime
