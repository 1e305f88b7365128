// The real-time backends and the one dispatch from a RunConfig to a run.
//
// run_threads builds the same overlay cluster a RunConfig describes, but
// executes it on real threads over real work (runtime::ThreadNet) instead
// of the discrete-event simulator; run_sockets runs one rank of it per OS
// process (runtime::SocketNet). run() switches on config.backend over those
// two and lb::run_distributed, and unsupported_reason() is the single list
// of what each backend cannot run.
//
// The real-time backends run overlay strategies (TD/TR/BTD) only,
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

#include <string>

#include "lb/driver.hpp"

namespace olb::runtime {

struct ThreadRunMetrics {
  double wall_seconds = 0.0;  ///< whole run, thread launch to last join
  /// Wall seconds until the root *declared* termination (the protocol's own
  /// completion signal, before the kTerminate fan-out and thread joins).
  double done_seconds = 0.0;
  std::uint64_t total_units = 0;
  std::int64_t best_bound = lb::kNoBound;
  std::uint64_t total_messages = 0;
  std::uint64_t work_requests = 0;   ///< kReqDown/kReqUp/kReqBridge sent
  std::uint64_t work_transfers = 0;  ///< kWork messages sent
  bool ok = false;  ///< terminated everywhere, no work left anywhere
  /// Post-run per-peer protocol snapshots (peer-id order) for the
  /// conformance oracles — the same taps the simulator backend reports.
  std::vector<lb::StateTap> final_state;
};

/// Why `backend` cannot run `config`, or "" when it can. The simulator runs
/// everything; the real-time backends reject non-overlay strategies, fault
/// plans, speed scaling and the lost-work plant, and sockets additionally
/// reject in-process trace sinks and metrics hubs and need a configured
/// SocketBringup whose address table has exactly config.num_peers entries.
/// run_threads and run_sockets abort (OLB_CHECK) on a non-empty reason.
std::string unsupported_reason(lb::Backend backend, const lb::RunConfig& config);

/// Runs `workload` on config.backend. Real-time results are converted to
/// the simulator's RunMetrics shape: the root's termination time fills the
/// timing fields and simulator-only series (events, utilisation, queueing
/// delay, per-peer message vectors) stay zero or empty.
lb::RunMetrics run(lb::Workload& workload, const lb::RunConfig& config);

/// Runs `workload` under `config` on one thread per peer. Requires
/// unsupported_reason(kThreads, config) to be empty (OLB_CHECK). A tracer in
/// the config need not be thread-safe: ThreadNet::set_tracer makes it so.
/// `config.num_peers` is the thread count;
/// `config.limits.time_limit` caps the wall clock (a watchdog — a correct
/// run finishes long before it).
ThreadRunMetrics run_threads(lb::Workload& workload, const lb::RunConfig& config);

/// Socket-backend counterpart: runs THIS process's single peer
/// (config.sockets.rank) of a multi-process cluster over TCP
/// (runtime::SocketNet), then all-gathers per-rank results so the returned
/// metrics are the cluster-wide aggregate — identical on every process.
/// Requires unsupported_reason(kSockets, config) to be empty (OLB_CHECK);
/// socket traces go to per-process NDJSON files via
/// config.sockets.trace_prefix. `config.limits.time_limit` caps the wall
/// clock per process.
ThreadRunMetrics run_sockets(lb::Workload& workload, const lb::RunConfig& config);

}  // namespace olb::runtime
