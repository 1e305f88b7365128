// Seeded fault injection for the simulated cluster.
//
// A FaultPlan describes everything that may go wrong in one run:
//
//  * link faults  — every control message is independently dropped,
//    duplicated or hit by a latency spike with the configured
//    probabilities. Messages on the reliable channel
//    (Message::reliable_channel) are exempt. Work transfers ride it because
//    they carry a payload: faults never silently destroy or clone work —
//    cloning work would corrupt the application state, and destroying it
//    is modelled explicitly through crashes instead. The overlay's
//    termination waves (kProbe, kProbeAck) ride it because their sender
//    sets Message::reliable: the fault-tolerant counter waves are built on
//    waves that always come back.
//  * crashes      — a peer fail-stops at an absolute simulated time: its
//    inbox is discarded, and it never speaks again. A control message
//    arriving there vanishes; a reliable-channel one bounces back to its
//    sender once (so a bounced kProbe reaches its sender as a kProbe from
//    the dead peer, which the sender answers unless it already knows of
//    the crash). All surviving peers learn about the crash after
//    `detection_delay` (an eventually-perfect failure detector).
//  * stalls       — a peer freezes for a duration (GC pause, OS jitter)
//    and then resumes; no state is lost.
//
// Determinism: fault decisions are drawn from a dedicated RNG stream keyed
// by (engine seed, FaultPlan::salt), so enabling faults never perturbs the
// latency-jitter or per-actor streams — a faulty run differs from the
// fault-free run only by the injected faults themselves, and a plan with
// all probabilities zero and no schedules is exactly the fault-free run.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/time.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::sim {

/// Per-link (in fact, global: all links behave identically) fault rates.
struct LinkFaults {
  double drop_prob = 0.0;   ///< P(control message silently lost)
  double dup_prob = 0.0;    ///< P(control message delivered twice)
  double spike_prob = 0.0;  ///< P(control message delayed by spike_latency)
  Time spike_latency = milliseconds(2);

  bool any() const { return drop_prob > 0.0 || dup_prob > 0.0 || spike_prob > 0.0; }
};

struct CrashEvent {
  int peer = -1;
  Time at = 0;
};

struct StallEvent {
  int peer = -1;
  Time at = 0;
  Time duration = 0;
};

struct FaultPlan {
  LinkFaults link;
  std::vector<CrashEvent> crashes;
  std::vector<StallEvent> stalls;
  /// How long after a crash every surviving peer is notified (failure
  /// detector latency). All survivors are notified at the same instant.
  Time detection_delay = milliseconds(1);
  /// Extra key folded into the fault RNG stream, so sweeps can vary the
  /// fault pattern independently of the workload seed.
  std::uint64_t salt = 0;

  bool enabled() const { return link.any() || !crashes.empty() || !stalls.empty(); }

  /// Aborts on malformed plans (out-of-range peers, negative times or
  /// probabilities, duplicate crash victims).
  void validate(int num_peers) const;

  // Builder-style helpers for tests and sweeps.
  FaultPlan& add_crash(int peer, Time at) {
    crashes.push_back({peer, at});
    return *this;
  }
  FaultPlan& add_stall(int peer, Time at, Time duration) {
    stalls.push_back({peer, at, duration});
    return *this;
  }
};

/// `count` distinct crash victims drawn uniformly from [1, num_peers) —
/// peer 0 is spared because every strategy roots its protocol there — at
/// times uniform in [from, to). Deterministic in `seed`.
FaultPlan make_random_crashes(int count, int num_peers, Time from, Time to,
                              std::uint64_t seed);

/// Engine-side fault decision maker. Owns the plan and the dedicated RNG
/// stream the engine draws each faulty send's fate from. Crashed peers are
/// marked on the actors themselves (sim::Actor::crashed).
class FaultInjector {
 public:
  /// Must be called before the run when the plan is enabled.
  void configure(const FaultPlan& plan, int num_peers, std::uint64_t engine_seed) {
    plan.validate(num_peers);
    plan_ = plan;
    active_ = plan.enabled();
    rng_ = Xoshiro256(mix64(engine_seed ^ 0x6661756c74ull) ^ mix64(plan.salt));
  }

  bool link_active() const { return active_ && plan_.link.any(); }
  const FaultPlan& plan() const { return plan_; }

  /// The fate of one control message, drawn from the fault stream. Exactly
  /// three uniform draws per call regardless of outcome, so the stream
  /// position (and hence every later decision) does not depend on earlier
  /// outcomes — this is what makes fault sweeps comparable across rates.
  struct Fate {
    bool drop = false;
    bool duplicate = false;
    Time extra_latency = 0;
  };
  Fate draw_fate() {
    Fate f;
    const double u_drop = rng_.uniform01();
    const double u_dup = rng_.uniform01();
    const double u_spike = rng_.uniform01();
    f.drop = u_drop < plan_.link.drop_prob;
    f.duplicate = u_dup < plan_.link.dup_prob;
    if (u_spike < plan_.link.spike_prob) f.extra_latency = plan_.link.spike_latency;
    return f;
  }

 private:
  FaultPlan plan_;
  bool active_ = false;
  Xoshiro256 rng_;
};

/// Upper bound on one message's in-flight time under this (network, plan)
/// combination — the quantity protocol lease intervals must dominate for
/// lease-based termination rules to be safe.
Time max_message_latency(Time base_latency, Time jitter, const FaultPlan& plan);

}  // namespace olb::sim
