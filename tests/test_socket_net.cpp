// End-to-end tests of the socket backend (runtime::SocketNet +
// runtime::run_sockets): a real multi-rank cluster over loopback TCP —
// ranks as in-process threads, each with its own workload instance and
// transport, exactly as separate processes would be — must reproduce the
// execution-order-independent invariants: exact UTS node counts, exact B&B
// optima, identical aggregate metrics on every rank, and per-rank traces
// that pass the conformance oracles after a causal merge.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bb/bb_work.hpp"
#include "check/oracles.hpp"
#include "check/trace_merge.hpp"
#include "lb/driver.hpp"
#include "lb/messages.hpp"
#include "runtime/runtime.hpp"
#include "runtime/wire.hpp"
#include "trace/export.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

/// Kernel-chosen free loopback ports. The bind-then-close race against
/// other processes is acceptable for a test.
std::vector<std::string> loopback_address_table(int n) {
  std::vector<std::string> table;
  for (int i = 0; i < n; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    table.push_back("127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));
    close(fd);
  }
  return table;
}

lb::RunConfig socket_config(lb::Strategy strategy, int rank,
                            const std::vector<std::string>& table,
                            std::uint64_t chunk) {
  lb::RunConfig c;
  c.strategy = strategy;
  c.num_peers = static_cast<int>(table.size());
  c.dmax = 3;
  c.seed = 1;
  c.chunk_units = chunk;
  c.backend = lb::Backend::kSockets;
  c.limits.time_limit = sim::seconds(120.0);  // wall-clock watchdog
  c.sockets.rank = rank;
  c.sockets.peers = table;
  return c;
}

uts::Params small_uts_params() {
  uts::Params p;
  p.b0 = 200;
  p.q = 0.45;
  p.m = 2;
  p.root_seed = 3;  // ~2000 expected nodes
  return p;
}

/// Runs every rank of a socket cluster as an in-process thread, each with
/// its own workload built by `make_workload` — process-isolation semantics
/// without fork, since SocketNet holds no process-global state.
template <typename MakeWorkload>
std::vector<runtime::ThreadRunMetrics> run_cluster(
    int n, lb::Strategy strategy, std::uint64_t chunk,
    const MakeWorkload& make_workload, const std::string& trace_prefix = "",
    std::vector<std::unique_ptr<lb::Workload>>* keep_workloads = nullptr,
    const std::function<void(lb::RunConfig&)>& tweak = {}) {
  const auto table = loopback_address_table(n);
  std::vector<runtime::ThreadRunMetrics> results(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<lb::Workload>> workloads;
  for (int rank = 0; rank < n; ++rank) workloads.push_back(make_workload());
  std::vector<std::thread> ranks;
  for (int rank = 0; rank < n; ++rank) {
    ranks.emplace_back([&, rank] {
      lb::RunConfig config = socket_config(strategy, rank, table, chunk);
      config.sockets.trace_prefix = trace_prefix;
      if (tweak) tweak(config);
      results[static_cast<std::size_t>(rank)] = runtime::run_sockets(
          *workloads[static_cast<std::size_t>(rank)], config);
    });
  }
  for (std::thread& t : ranks) t.join();
  if (keep_workloads != nullptr) *keep_workloads = std::move(workloads);
  return results;
}

TEST(SocketNet, UtsExactNodeCountAcrossFourRanks) {
  uts::UtsWorkload reference(small_uts_params(), uts::CostModel{});
  const auto seq = lb::run_sequential(reference);
  ASSERT_GT(seq.units, 100u);

  const auto results = run_cluster(4, lb::Strategy::kOverlayBTD, 64, [] {
    return std::make_unique<uts::UtsWorkload>(small_uts_params(),
                                              uts::CostModel{});
  });
  for (const auto& m : results) {
    EXPECT_TRUE(m.ok);
    // Every rank aggregates the same cluster-wide totals.
    EXPECT_EQ(m.total_units, seq.units);
    EXPECT_EQ(m.total_messages, results.front().total_messages);
    EXPECT_EQ(m.work_transfers, results.front().work_transfers);
    ASSERT_EQ(m.final_state.size(), 4u);
    for (const auto& tap : m.final_state) {
      EXPECT_TRUE(tap.terminated);
      EXPECT_FALSE(tap.holds_work);
    }
    // The root's subtree-size estimate crosses the result exchange too: at
    // quiescence it is the live weight of the whole overlay.
    EXPECT_EQ(m.final_state[0].subtree_size, 4u);
  }
}

TEST(SocketNet, UtsTdStrategyAlsoExact) {
  uts::UtsWorkload reference(small_uts_params(), uts::CostModel{});
  const auto seq = lb::run_sequential(reference);

  const auto results = run_cluster(3, lb::Strategy::kOverlayTD, 32, [] {
    return std::make_unique<uts::UtsWorkload>(small_uts_params(),
                                              uts::CostModel{});
  });
  for (const auto& m : results) {
    EXPECT_TRUE(m.ok);
    EXPECT_EQ(m.total_units, seq.units);
  }
}

TEST(SocketNet, BBOptimumAndSolutionMergeAcrossRanks) {
  auto make = [] {
    return std::make_unique<bb::BBWorkload>(
        bb::FlowshopInstance::ta20x20_scaled(0, 8, 5),
        bb::BoundKind::kOneMachine, bb::CostModel{});
  };
  auto reference = make();
  const auto seq = lb::run_sequential(*reference);
  ASSERT_NE(seq.bound, lb::kNoBound);

  std::vector<std::unique_ptr<lb::Workload>> workloads;
  const auto results =
      run_cluster(4, lb::Strategy::kOverlayBTD, 32, make, "", &workloads);
  for (const auto& m : results) {
    EXPECT_TRUE(m.ok);
    EXPECT_EQ(m.best_bound, seq.bound);
  }
  // The result exchange merged the winning schedule into every rank's
  // incumbent, not just the rank that found it.
  for (const auto& wl : workloads) {
    auto* bb_wl = dynamic_cast<bb::BBWorkload*>(wl.get());
    ASSERT_NE(bb_wl, nullptr);
    EXPECT_EQ(bb_wl->best().makespan(), seq.bound);
    EXPECT_EQ(bb_wl->best().permutation(),
              dynamic_cast<bb::BBWorkload*>(workloads.front().get())
                  ->best()
                  .permutation());
  }
}

TEST(SocketNet, PerRankTracesPassOraclesAfterCausalMerge) {
  const std::string prefix = testing::TempDir() + "socket_trace";
  const int n = 4;
  const auto results = run_cluster(n, lb::Strategy::kOverlayBTD, 64, [] {
    return std::make_unique<uts::UtsWorkload>(small_uts_params(),
                                              uts::CostModel{});
  }, prefix);
  for (const auto& m : results) ASSERT_TRUE(m.ok);

  std::vector<std::vector<trace::TraceEvent>> streams;
  for (int rank = 0; rank < n; ++rank) {
    const std::string path =
        prefix + ".run0.rank" + std::to_string(rank) + ".ndjson";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    streams.push_back(trace::read_ndjson(in));
    EXPECT_FALSE(streams.back().empty()) << path;
  }
  const auto merged = check::merge_causal(streams);

  check::OracleOptions options;
  options.work_msg_type = lb::kWork;
  options.faults_possible = false;
  options.expect_no_clamp = true;
  options.strict_link_fifo = false;  // ranks share no clock or link order
  check::OracleSet oracles(options);
  for (const trace::TraceEvent& e : merged) oracles.record(e);
  oracles.finish();
  for (const auto& v : oracles.violations()) {
    ADD_FAILURE() << check::to_string(v);
  }

  int terminated = 0;
  for (const trace::TraceEvent& e : merged) {
    if (e.kind == trace::EventKind::kTerminated) ++terminated;
  }
  EXPECT_EQ(terminated, n);
}

TEST(SocketNet, UtsExactUnderJoinAndLeaveChurn) {
  // One dormant rank joins mid-run and one initial member drains out — the
  // same elastic-membership protocol the sim tests cover, here over real
  // TCP links on every rank of a four-process-shaped cluster.
  uts::UtsWorkload reference(small_uts_params(), uts::CostModel{});
  const auto seq = lb::run_sequential(reference);

  const auto results = run_cluster(
      4, lb::Strategy::kOverlayBTD, 64,
      [] {
        return std::make_unique<uts::UtsWorkload>(small_uts_params(),
                                                  uts::CostModel{});
      },
      "", nullptr, [](lb::RunConfig& config) {
        config.churn = lb::make_random_churn(
            /*joins=*/1, /*leaves=*/1, /*num_peers=*/4, sim::milliseconds(1),
            sim::milliseconds(10), /*seed=*/99);
      });
  for (const auto& m : results) {
    EXPECT_TRUE(m.ok);
    EXPECT_EQ(m.total_units, seq.units);
    ASSERT_EQ(m.final_state.size(), 4u);
    for (const auto& tap : m.final_state) {
      EXPECT_TRUE(tap.terminated);
      EXPECT_FALSE(tap.holds_work);
    }
  }
}

TEST(SocketNet, RogueConnectionKilledMidFrameDoesNotDisturbTheCluster) {
  // Regression for the partially-written-frame path: a connection that dies
  // after delivering only a prefix of a frame header must park as kNeedMore
  // and be torn down on the EOF/RST, never tripping the garbage-header
  // check or wedging the rank. Two rogues hit rank 0 mid-run — one closing
  // cleanly (FIN after 5 header bytes), one abruptly (RST via SO_LINGER 0)
  // — and the cluster must still finish with exact counts.
  uts::UtsWorkload reference(small_uts_params(), uts::CostModel{});
  const auto seq = lb::run_sequential(reference);

  const int n = 3;
  const auto table = loopback_address_table(n);
  const std::string& target = table[0];
  const auto port = static_cast<std::uint16_t>(
      std::stoi(target.substr(target.find(':') + 1)));

  std::vector<runtime::ThreadRunMetrics> results(n);
  std::vector<std::unique_ptr<lb::Workload>> workloads;
  for (int rank = 0; rank < n; ++rank) {
    workloads.push_back(std::make_unique<uts::UtsWorkload>(small_uts_params(),
                                                           uts::CostModel{}));
  }
  const auto launch_rank = [&](int rank) {
    return std::thread([&, rank] {
      const lb::RunConfig config =
          socket_config(lb::Strategy::kOverlayTD, rank, table, 32);
      results[static_cast<std::size_t>(rank)] =
          runtime::run_sockets(*workloads[static_cast<std::size_t>(rank)],
                               config);
    });
  };
  // Only rank 0 at first: it cannot finish (or even leave bootstrap) until
  // ranks 1 and 2 appear, so the rogues below are guaranteed to hit a live,
  // mid-run epoll loop — no race against the cluster completing.
  std::vector<std::thread> ranks;
  ranks.push_back(launch_rank(0));

  // Rank 0 binds its listener during startup; retry until it is up.
  const auto connect_rogue = [&]() -> int {
    for (int attempt = 0; attempt < 5000; ++attempt) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return -1;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        return fd;
      }
      close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  };

  // A valid frame truncated after 5 bytes: well inside the 12-byte header,
  // so the receiver cannot tell it from a slow legitimate peer.
  const auto frame =
      runtime::make_frame(runtime::FrameType::kHello, runtime::WireWriter{});
  static_assert(runtime::kFrameHeaderSize > 5);
  bool rogues_connected = true;
  for (const bool abortive : {false, true}) {
    const int fd = connect_rogue();
    if (fd < 0) {
      rogues_connected = false;  // reported after the join below
      continue;
    }
    EXPECT_EQ(send(fd, frame.data(), 5, MSG_NOSIGNAL), 5);
    // Give the rank a chance to read the partial header before the close
    // lands, so both orderings (bytes then EOF, bytes+EOF together) occur
    // across the two rogues.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (abortive) {
      const linger hard{1, 0};  // close() sends RST, not FIN
      EXPECT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard), 0);
    }
    close(fd);
  }

  // Now let the cluster form and run to completion.
  for (int rank = 1; rank < n; ++rank) ranks.push_back(launch_rank(rank));
  for (std::thread& t : ranks) t.join();
  EXPECT_TRUE(rogues_connected) << "rank 0 never started listening";
  for (const auto& m : results) {
    EXPECT_TRUE(m.ok);
    EXPECT_EQ(m.total_units, seq.units);
  }
}

}  // namespace
}  // namespace olb
