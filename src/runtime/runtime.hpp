// The real-time backends and the one dispatch from a RunConfig to a run.
//
// run_threads runs the cluster lb::build_cluster makes for a RunConfig —
// the simulator's own actors, for any strategy — on real threads over real
// work (runtime::ThreadNet) instead of the discrete-event simulator;
// run_sockets runs one rank of it per OS process (runtime::SocketNet). Both
// fold their peers' reports and their merged send tally with
// lb::fold_reports, as the simulator does.
// run() switches on config.backend over those two and lb::run_distributed;
// lb::unsupported_reason is the one list of what each backend cannot run.
//
// The real-time backends run every strategy (TD/TR/BTD, RWS, MW, AHMW),
// fault-free and homogeneous — fault injection, speed scaling and the
// lost-work plant are simulator concepts. Results are checked against
// execution-order-independent invariants (exact node counts, B&B optima)
// rather than reproduced byte-for-byte.
//
// Performance: the per-message path is allocation-free in steady state
// (a receiver swaps its whole mailbox vector with its own batch vector, so
// both keep their capacity), a sleeping receiver is notified once per
// batch, and the per-chunk loop takes no lock while its mailbox is empty
// and performs no clock reads unless a timer is armed — see
// thread_net.hpp, perfbench's threads_uts_4 workload and
// bench/runtime_speedup (small chunk_units puts a run in this
// messaging-bound regime).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "lb/driver.hpp"

namespace olb::runtime {

struct ThreadRunMetrics {
  double wall_seconds = 0.0;  ///< whole run, thread launch to last join
  /// Wall seconds until the declaring peer (the overlay root, the RWS
  /// initiator, the MW master, the AHMW top master) *declared* termination
  /// — the protocol's own completion signal, before the kTerminate fan-out
  /// and thread joins. On sockets, on the declaring rank's clock.
  double done_seconds = 0.0;
  std::uint64_t total_units = 0;
  std::int64_t best_bound = lb::kNoBound;
  std::uint64_t total_messages = 0;
  std::uint64_t work_requests = 0;   ///< lb::work_requests of the sends
  std::uint64_t work_transfers = 0;  ///< kWork messages sent
  std::vector<std::uint64_t> sent_by_type;  ///< indexed by lb::MsgType
  bool ok = false;  ///< terminated everywhere, no work left anywhere
  /// Post-run per-peer protocol snapshots (peer-id order) for the
  /// conformance oracles — the same taps the simulator backend reports.
  std::vector<lb::StateTap> final_state;
};

/// Runs `workload` on config.backend. Real-time results are converted to
/// the simulator's RunMetrics shape: the declaring peer's termination time
/// fills the timing fields and simulator-only series (events, utilisation, queueing
/// delay, per-peer message vectors) stay zero or empty.
lb::RunMetrics run(lb::Workload& workload, const lb::RunConfig& config);

/// Runs `workload` under `config` on one thread per peer: lb::build_cluster,
/// then the runner below.
ThreadRunMetrics run_threads(lb::Workload& workload, const lb::RunConfig& config);

/// Runs an already-built cluster on one thread per peer (`peers[i]` is peer
/// i) until every peer saw termination. Requires config.backend == kThreads
/// and a config the list accepts (lb::require_supported). A tracer in
/// the config need not be thread-safe: ThreadNet::set_tracer makes it so.
/// The first config.num_peers peers are folded; any beyond them (the
/// service gate) are hosted but not folded. `harvest`, when set, runs after
/// the threads are joined, while the peers still live.
/// `config.limits.time_limit` caps the wall clock (a watchdog — a correct
/// run finishes long before it).
ThreadRunMetrics run_threads(std::vector<std::unique_ptr<lb::PeerBase>> peers,
                             const lb::RunConfig& config,
                             const std::function<void()>& harvest = {});

/// Socket-backend counterpart: runs THIS process's single peer
/// (config.sockets.rank) of a multi-process cluster over TCP
/// (runtime::SocketNet), then all-gathers per-rank reports so the returned
/// metrics are the cluster-wide fold — identical on every process.
/// Requires config.backend == kSockets and a config the list accepts
/// (lb::require_supported); socket traces go to per-process NDJSON files via
/// config.sockets.trace_prefix. `config.limits.time_limit` caps the wall
/// clock per process.
ThreadRunMetrics run_sockets(lb::Workload& workload, const lb::RunConfig& config);

/// A real-time run's metrics: its fold (lb::fold_reports) and its wall time.
ThreadRunMetrics thread_metrics(lb::RunMetrics folded, double wall_seconds);

}  // namespace olb::runtime
