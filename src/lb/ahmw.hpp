// AHMW — Adaptive Hierarchical Master-Worker (Bendjoudi, Melab, Talbi;
// JPDC 2012 / FGCS 2012), the hierarchical B&B baseline of the paper's
// Table II.
//
// All peers are packed into a degree-10 hierarchy (the degree the AHMW
// papers report as best). Interior nodes act as masters, leaves as workers;
// every peer also explores its own pool. Work flows strictly downwards in
// level-dependent grains — a master at level L hands out pieces of
// ~total/B^(L+1) leaf ranks — so deeper masters deal finer work ("the B&B
// work grain is a function of the master's level"). An empty master pulls
// from its parent and, failing that, steals half from a random master of
// its own level (the papers' intra-level cooperation); an empty worker can
// only poll its master. Nobody ever splits a *busy* peer's work — the
// rigidity that makes AHMW collapse on instances whose hard regions land in
// one piece, visible in the paper's Table II (e.g. Ta21).
//
// Termination: Dijkstra-Scholten rooted at the top master, which then
// broadcasts kTerminate down the hierarchy.
//
// Fault tolerance (config.fault_tolerant, set by the driver iff a FaultPlan
// is enabled; only *leaf* crashes are supported — the driver rejects master
// victims): pulls and steals time out and are retried, Dijkstra–Scholten is
// replaced by the top master's lease poll (flat_peer.hpp), and terminated
// peers answer straggler pulls with kTerminate so a dropped broadcast cannot
// strand a worker.
#pragma once

#include <memory>
#include <vector>

#include "lb/flat_peer.hpp"
#include "overlay/tree_overlay.hpp"

namespace olb::lb {

struct AhmwConfig {
  PeerConfig peer;
  /// Grain divisor base: a level-L master serves pieces of total/B^(L+1).
  double decomposition_base = 30.0;
  /// Total problem size in work units (the driver sets this from the
  /// workload, e.g. jobs! for B&B); defines the absolute grain sizes.
  double total_amount = 0.0;
  /// Pause before re-polling after a failed pull.
  sim::Time retry_delay = sim::microseconds(500);

  // --- fault tolerance (driver sets these iff a FaultPlan is enabled) ---
  bool fault_tolerant = false;
  /// An unanswered pull/steal is abandoned and retried after this long.
  sim::Time request_timeout = sim::milliseconds(1);
  /// Poll-termination cadence; must exceed the maximum message lifetime.
  sim::Time lease_interval = sim::milliseconds(2);
};

class AhmwPeer final : public FlatPeer {
 public:
  /// `initial_work` non-null exactly for the hierarchy root (peer 0).
  AhmwPeer(std::shared_ptr<const overlay::TreeOverlay> tree, const AhmwConfig& config,
           std::unique_ptr<Work> initial_work);

 protected:
  void on_start() override;
  void on_message(sim::Message m) override;
  void on_timer(std::int64_t tag) override;
  void became_idle() override;
  void diffuse_bound() override;
  void retry_request() override {
    if (!is_root()) pull_from_parent();
  }
  void declare_termination() override;

 private:
  bool is_root() const { return id() == tree_->root(); }
  bool is_master() const { return !tree_->children(id()).empty(); }

  void pull_from_parent();
  void steal_from_sibling();
  void arm_retry();
  double grain_fraction() const;

  std::shared_ptr<const overlay::TreeOverlay> tree_;
  AhmwConfig config_;
  std::unique_ptr<Work> initial_work_;
  std::vector<int> level_peers_;  ///< masters of the same hierarchy level
  bool retry_armed_ = false;
};

}  // namespace olb::lb
