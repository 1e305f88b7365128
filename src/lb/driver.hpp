// Experiment driver: builds a simulated cluster for one (workload, strategy,
// scale, seed) combination, runs it to quiescence and returns the metrics
// the paper reports.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lb/overlay_lb.hpp"
#include "lb/work.hpp"
#include "metrics/hub.hpp"
#include "simnet/faults.hpp"
#include "simnet/network.hpp"
#include "simnet/perturb.hpp"
#include "simnet/tally.hpp"
#include "trace/trace.hpp"

namespace olb::lb {

enum class Strategy {
  kOverlayTD,   ///< deterministic tree, degree dmax
  kOverlayTR,   ///< randomised recursive tree
  kOverlayBTD,  ///< TD extended with bridge edges
  kRWS,         ///< random work stealing (steal-half)
  kMW,          ///< master-worker (B&B-style interval pool)
  kAHMW,        ///< adaptive hierarchical master-worker
};

const char* strategy_name(Strategy s);

/// True for the overlay family (TD/TR/BTD).
bool strategy_is_overlay(Strategy s);

/// Execution backend for a run. kSim is the discrete-event simulator
/// (sim::ShardedEngine over one or more sim::Engine shards); kThreads runs
/// the same protocol objects on real threads (runtime::ThreadNet) over real
/// shared-memory work; kSockets runs one peer per OS process joined by TCP
/// (runtime::SocketNet). runtime::run dispatches on it, and
/// lb::unsupported_reason lists what each backend cannot run.
enum class Backend {
  kSim,
  kThreads,
  kSockets,
};

const char* backend_name(Backend b);

/// Case-insensitive lookup ("sim", "threads", "sockets"). Returns false
/// (leaving *out untouched) for unknown names.
bool backend_from_name(std::string_view name, Backend* out);

/// Registry: every Strategy value, in display order.
const std::vector<Strategy>& all_strategies();

/// Case-insensitive lookup by display name ("btd", "RWS", ...). Returns
/// false (leaving *out untouched) for unknown names.
bool strategy_from_name(std::string_view name, Strategy* out);

/// "TD|TR|BTD|RWS|MW|AHMW" — for flag help strings and error messages.
std::string strategy_names();

/// Overlay protocol tuning (see OverlayConfig for semantics).
struct OverlayTuning {
  SplitPolicy split = SplitPolicy::kSubtreeProportional;
  std::uint64_t split_fixed_units = 1;  ///< k for SplitPolicy::kFixedUnits
  sim::Time retry_delay = sim::microseconds(100);
  sim::Time bridge_patience = sim::microseconds(300);
};

/// Heterogeneous-cluster extension (the paper's future work): a seeded
/// `fraction` of peers run at `slow_factor` x nominal compute speed
/// (0 disables). With `capacity_weighted` the overlay's converge-cast sums
/// speed-proportional capacity weights, so subtree-proportional sharing
/// routes work towards compute power.
struct Heterogeneity {
  double fraction = 0.0;
  double slow_factor = 1.0;
  bool capacity_weighted = false;
};

/// Watchdogs: a correct run quiesces long before either limit. On the
/// real-time backends time_limit is interpreted against the wall clock.
struct Limits {
  sim::Time time_limit = sim::seconds(100000.0);
  std::uint64_t event_limit = 400'000'000;
};

/// Socket-backend bring-up parameters (Backend::kSockets only): which rank
/// this process is and where every rank listens. The address table must be
/// identical across all processes of a run — rank 0 redistributes it during
/// bootstrap and every process cross-checks. Default-constructed =
/// unconfigured; the sockets transport refuses to run.
struct SocketBringup {
  int rank = -1;
  std::vector<std::string> peers;  ///< "host:port" per rank, index = rank
  /// When non-empty, each run writes `<prefix>.run<k>.rank<r>.ndjson`
  /// protocol traces for the conformance oracles (tools/olb_check_trace).
  std::string trace_prefix;

  bool configured() const { return rank >= 0 && !peers.empty(); }
};

/// Deliberate protocol mutations for the conformance harness (src/check):
/// a planted bug must be *found* by the invariant oracles, proving they
/// watch the properties they claim to. Default-constructed = no mutation =
/// exactly the unmutated run.
struct PlantedBug {
  enum class Kind {
    kNone,
    /// Overlay split fractions biased upwards after clamping — served
    /// shares can exceed 1 (split-fraction oracle territory).
    kSplitBias,
    /// The second payload-carrying message silently vanishes in the
    /// network — a lost transfer (conservation/completion oracle territory).
    kLostWork,
  };
  Kind kind = Kind::kNone;
  double split_bias = 0.6;  ///< added to every fraction under kSplitBias

  bool enabled() const { return kind != Kind::kNone; }
};

struct RunConfig {
  Strategy strategy = Strategy::kOverlayBTD;
  int num_peers = 100;
  int dmax = 10;  ///< degree of TD/BTD (and of the AHMW hierarchy)
  std::uint64_t seed = 1;
  sim::NetworkConfig net;
  std::uint64_t chunk_units = 64;
  bool diffuse_bounds = true;
  double min_split_amount = 4.0;

  sim::Time mw_checkpoint_period = sim::milliseconds(2);
  double ahmw_decomposition = 30.0;

  OverlayTuning overlay;
  Heterogeneity het;
  Limits limits;

  /// Fault injection (default-constructed = disabled = exactly the
  /// fault-free run). When enabled() the driver switches every protocol
  /// into its fault-tolerant mode; crash victims must be recoverable under
  /// the strategy (see crash_refusal below).
  sim::FaultPlan faults;

  /// Elastic membership (default-constructed = disabled = exactly the
  /// fixed-n run; zero-churn simulator timelines stay byte-identical).
  /// Overlay strategies only, mutually exclusive with fault injection —
  /// see unsupported_reason. Works on all three backends: dormant peers are
  /// pre-provisioned actors/ranks that activate at their scheduled join.
  ChurnPlan churn;

  /// Schedule perturbation (default-constructed = disabled = byte-identical
  /// to a run that predates the feature). Simulator backend only.
  sim::SchedulePerturbation perturb;

  /// Conformance-harness bug plant (default = none). Simulator backend for
  /// kLostWork; kSplitBias works on every backend (it lives in the shared
  /// OverlayConfig).
  PlantedBug plant;

  /// Optional trace sink (not owned). When set, the engine and every peer
  /// record structured events into it and RunMetrics gains the derived
  /// timelines below. Null (the default) costs one predicted branch per
  /// would-be event.
  trace::TraceSink* tracer = nullptr;

  /// Optional live-metrics hub (not owned; see metrics/hub.hpp). When set,
  /// the backend registers its instruments, every peer its per-peer gauges
  /// and histograms, and snapshots stream to the hub's file on its interval
  /// (simulated ms on kSim, wall ms on kThreads). Metrics only read state,
  /// so simulator runs stay byte-identical with or without a hub.
  metrics::MetricsHub* metrics = nullptr;

  /// Simulator sharding (Backend::kSim only; see simnet/sharded_engine.hpp).
  /// 0 (default) and 1 both run one shard: a single engine and event queue
  /// over the whole peer range. >= 2 splits the peer range into that many
  /// cluster-aligned shards under conservative lookahead — deterministic,
  /// but a different (equally valid) timeline than the single-queue run.
  /// Features that assume one global event order (tracing, live metrics,
  /// fault injection, perturbation, the lost-work plant) refuse >= 2 (see
  /// unsupported_reason), as does service mode (svc::unsupported_reason).
  int sim_shards = 0;

  /// Execution backend. runtime::run dispatches on it, and each runner only
  /// accepts its own (all three share this config type so flag parsing and
  /// sweep code stay backend-agnostic).
  Backend backend = Backend::kSim;

  /// Per-process bring-up for Backend::kSockets; ignored otherwise.
  SocketBringup sockets;
};

/// Builds the overlay tree for an overlay-strategy run exactly the way the
/// simulator backend does (TR uses a seeded randomised tree, TD/BTD the
/// deterministic dmax-ary one), so both backends agree on the topology.
overlay::TreeOverlay make_overlay_tree(const RunConfig& config);

/// Assembles the OverlayConfig an overlay peer gets under `config`, again
/// shared by both backends. Fault-tolerant timing is derived from the
/// network model iff the fault plan is enabled.
OverlayConfig make_overlay_config(const RunConfig& config);

/// The peer that receives the initial work under Strategy::kRWS ("the
/// paper pushes the application to a random node"). Exposed so fault plans
/// can avoid crashing it — RWS cannot survive losing its initiator.
int rws_initiator(std::uint64_t seed, int num_peers);

/// Why `peer` must not crash under config.strategy, or "" when its crash
/// is recoverable: overlays and MW must keep peer 0 (root / master), RWS
/// must keep the initiator, and AHMW only tolerates leaf crashes. The one
/// per-peer crash rule: unsupported_reason checks fault plans with it, and
/// generators draw victims with it.
std::string_view crash_refusal(const RunConfig& config, int peer);

/// Why `config` cannot run, or "" when it can: the first rule it breaks
/// from the one list of which combinations of strategy, size, backend,
/// shard count and mode exist. The list: n >= 1 (MW n >= 2) and dmax >= 1;
/// crash victims pass crash_refusal and MW keeps a worker; a churn plan is
/// well-formed (overlay strategy, no fault plan, 1 <= initial_peers <= n,
/// the root never leaves, one join for each dormant peer and only for them,
/// at most one leave a member, a late joiner's leave after its join); the
/// real-time backends take no fault plan, speed scaling or lost-work plant;
/// sockets take no in-process tracer or hub and need a configured bring-up
/// whose table has n entries; and sim_shards >= 2 takes no tracer, hub,
/// fault plan, perturbation or lost-work plant, which all need one global
/// event order. svc::unsupported_reason adds service mode's rules.
std::string unsupported_reason(const RunConfig& config);

/// Aborts (OLB_CHECK) unless config.backend is `runner` and
/// unsupported_reason(config) is empty, printing the reason: the check
/// every runner makes at entry, before it builds an engine, a thread net or
/// a socket.
void require_supported(const RunConfig& config, Backend runner);

/// Deterministic random churn schedule: the last `joins` peers of an
/// n-peer run start dormant and join at times uniform in [from, to];
/// `leaves` distinct initial members (never peer 0) leave gracefully at
/// times in the same window. `joins + 1 <= num_peers` and
/// `leaves < num_peers - joins` (the root must survive). Deterministic in
/// `seed`, so sweeps replay exactly — the membership analogue of
/// sim::make_random_crashes.
ChurnPlan make_random_churn(int joins, int leaves, int num_peers,
                            sim::Time from, sim::Time to, std::uint64_t seed);

struct RunMetrics {
  /// Simulated seconds until the protocol *detected* completion.
  double exec_seconds = 0.0;
  /// Simulated time of the last completed compute chunk (excludes the
  /// termination-detection tail); used for parallel-efficiency numerators.
  double last_compute_seconds = 0.0;
  std::uint64_t total_units = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t work_requests = 0;   ///< lb::work_requests of the sends
  std::uint64_t work_transfers = 0;  ///< kWork messages
  std::vector<std::uint64_t> msgs_per_peer;  ///< sent, indexed by peer id
  std::vector<std::uint64_t> sent_by_type;   ///< indexed by lb::MsgType
  /// Cluster utilisation per 1 ms of simulated time (0..1 per bucket).
  std::vector<double> utilization;
  std::int64_t best_bound = kNoBound;
  std::uint64_t events = 0;
  bool ok = false;  ///< quiesced, protocol terminated, no work left anywhere

  /// Simulator shards actually used (at least 1) and conservative windows
  /// executed (0 for one shard, which never enters the window loop).
  int sim_shards = 1;
  std::uint64_t sim_windows = 0;

  /// --- fault accounting (all zero for fault-free runs) ---
  std::uint64_t msgs_dropped = 0;     ///< control messages destroyed by links
  std::uint64_t msgs_duplicated = 0;  ///< control messages delivered twice
  std::uint64_t latency_spikes = 0;
  std::uint64_t work_bounced = 0;  ///< payloads returned off crashed peers
  std::uint64_t peers_crashed = 0;
  std::uint64_t retries = 0;  ///< protocol-level request retransmissions
  /// Work units destroyed by crashes (held by the victim, or bounced with
  /// no live sender). Zero means the run explored the full problem.
  double work_lost_units = 0.0;

  /// Inbox queueing delay (seconds a message waits between arrival and
  /// service) — always measured; the MW master's collapse shows up here.
  double queueing_delay_mean = 0.0;
  double queueing_delay_max = 0.0;

  /// Filled only when RunConfig::tracer is set: number of recorded /
  /// dropped events and per-1 ms-bucket derived time series.
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<double> work_in_flight;  ///< mean kWork msgs in flight
  std::vector<double> idle_peers;      ///< peers inside an idle episode
  std::vector<double> pending_depth;   ///< mean parked-request depth

  /// Post-run per-peer protocol snapshots for the conformance oracles
  /// (src/check), indexed by peer id. Always filled — the taps are a few
  /// scalar reads per peer after the run, nothing per-event.
  std::vector<StateTap> final_state;

  /// Parallel efficiency against a sequential execution time (seconds).
  double parallel_efficiency(double seq_seconds, int num_peers) const {
    return seq_seconds / (static_cast<double>(num_peers) * exec_seconds);
  }
};

/// Builds the cluster `config` describes: one peer per id, in id order (the
/// MW master is peer 0), with `workload`'s root work at the peer the
/// strategy starts from. Every backend runs these same actors: the
/// simulator and the thread backend add them all, a socket rank keeps its
/// own. Aborts on a config unsupported_reason refuses.
std::vector<std::unique_ptr<PeerBase>> build_cluster(Workload& workload,
                                                     const RunConfig& config);

/// Folds a run's peer reports (`report(i)` for peer i in [0, n), e.g.
/// PeerBase::report) and what the run counted outside its peers (`tally`)
/// into its metrics, the same on every backend and in service mode: units,
/// best bound, retries, the state taps, exec_seconds from the declaring
/// peer's done_time, and ok — one peer declared termination and every live
/// peer terminated holding no work; then the messages, sends by type, work
/// requests and transfers, and what only the simulator counts (utilisation
/// over n peers, last compute end, queueing delay, fault tallies). The
/// backend adds events and traces. Reports are taken one at a time, so a
/// 10^6-peer run never holds them all.
RunMetrics fold_reports(int n, const std::function<PeerReport(int)>& report,
                        const sim::Tally& tally);

/// Runs the workload under the given configuration: build_cluster, then the
/// runner below. Aborts (OLB_CHECK) on protocol invariant violations;
/// returns ok=false if a watchdog fired.
RunMetrics run_distributed(Workload& workload, const RunConfig& config);

/// Runs an already-built cluster on the simulator: `peers[i]` is peer i.
/// Requires config.backend == kSim and a config the list accepts
/// (require_supported).
/// The first config.num_peers peers are folded; any beyond them (the
/// service gate) are hosted but not folded. `harvest`, when set, runs after
/// the run, while the peers still live (service mode reads its gate and job
/// tallies there).
RunMetrics run_distributed(std::vector<std::unique_ptr<PeerBase>> peers,
                           const RunConfig& config,
                           const std::function<void()>& harvest = {});

/// Sequential reference: total simulated compute time of the whole problem
/// on one peer (no engine, no messages).
struct SequentialMetrics {
  double exec_seconds = 0.0;
  std::uint64_t units = 0;
  std::int64_t bound = kNoBound;
};
SequentialMetrics run_sequential(Workload& workload);

/// The paper's testbed layout: a single cluster below 800 peers; beyond
/// that, peers 736.. live in a second cluster with slower interconnect.
sim::NetworkConfig paper_network(int num_peers);

}  // namespace olb::lb
