// Random Work Stealing (RWS) — the paper's generic reference baseline.
//
// An idle peer picks a victim uniformly at random, sends a steal request and
// waits for the answer: half the victim's work (steal-half, the strategy the
// literature and the paper retain as best) or a failure, after which the
// thief immediately retries with a new random victim. Termination is
// detected with Dijkstra–Scholten over the work-transfer graph, rooted at
// the peer the problem was initially pushed to; that initiator broadcasts
// kTerminate when the diffusing computation collapses.
//
// RWS can be read as work stealing over a *complete* overlay: idle peers
// probe blindly, which is competitive at low scale and degrades at high
// scale — the effect the paper measures in Fig. 5.
//
// Fault tolerance (config.fault_tolerant, set by the driver iff a FaultPlan
// is enabled): steal requests time out and are retried against a fresh live
// victim, and Dijkstra–Scholten — which a single lost or duplicated kSignal
// corrupts — is replaced by the initiator's lease poll over per-peer
// work-transfer counters (flat_peer.hpp).
#pragma once

#include <memory>

#include "lb/flat_peer.hpp"

namespace olb::lb {

struct RwsConfig {
  PeerConfig peer;

  // --- fault tolerance (driver sets these iff a FaultPlan is enabled) ---
  bool fault_tolerant = false;
  /// An unanswered kSteal is abandoned and retried after this long.
  sim::Time request_timeout = sim::milliseconds(1);
  /// Poll-termination cadence; must exceed the maximum message lifetime.
  sim::Time lease_interval = sim::milliseconds(2);
};

class RwsPeer final : public FlatPeer {
 public:
  /// `initial_work` non-null exactly for the initiator peer.
  RwsPeer(const RwsConfig& config, std::unique_ptr<Work> initial_work);

 protected:
  void on_start() override;
  void on_message(sim::Message m) override;
  void on_timer(std::int64_t tag) override;
  void became_idle() override;
  void diffuse_bound() override;
  void retry_request() override { try_steal(); }
  void declare_termination() override;

 private:
  void try_steal();

  std::unique_ptr<Work> initial_work_;
};

}  // namespace olb::lb
