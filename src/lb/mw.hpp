// Master-Worker (MW) — the B&B-specific baseline of Mezmaz, Melab, Talbi
// (IPDPS'07), as described in the paper's §IV-C.
//
// One dedicated master manages a global pool of interval descriptors
// {owner, begin, end}. Workers explore their interval, periodically
// checkpoint their position to the master, and request fresh work when
// empty. To serve a request, the master picks the pool interval with the
// *largest length from its own (possibly stale) view*, splits it in two
// halves, ships the right half to the requester and notifies the owner to
// truncate — an asynchronous steal-half that never blocks on the owner.
// Staleness can make the two workers overlap slightly (the paper reports
// 0.39 % redundant exploration; B&B is idempotent so only time is lost).
//
// All coordination flows through the master, whose per-message service time
// makes it a queueing hot spot — competitive at 200 cores, collapsing past
// ~600 (the paper's Fig. 4), both of which emerge from the simulation.
//
// Fault tolerance (config.fault_tolerant, set by the driver iff a FaultPlan
// is enabled; master crashes are rejected by the driver): worker requests
// carry an epoch and are retransmitted until served — the master ignores
// epochs it already answered, disambiguating retransmits from new requests.
// A crashed worker's pool entry is reclaimed (owner cleared, position as of
// its last checkpoint) and later served *whole* to the next requester;
// work bounced off the crashed worker is discarded at the master because
// the reclaimed entry still covers the interval — re-exploration from the
// checkpoint is idempotent. Termination counts live workers only.
#pragma once

#include <memory>
#include <vector>

#include "lb/interval_work.hpp"
#include "lb/peer_base.hpp"

namespace olb::lb {

struct MwConfig {
  PeerConfig peer;
  sim::Time checkpoint_period = sim::milliseconds(2);

  // --- fault tolerance (driver sets these iff a FaultPlan is enabled) ---
  bool fault_tolerant = false;
  /// An unanswered kMWRequest is retransmitted after this long.
  sim::Time request_timeout = sim::milliseconds(1);
};

/// The master: peer 0. Does not explore; owns the interval pool. It is a
/// PeerBase for the harvest's sake (bound, termination, state tap) but
/// never holds work or computes.
class MwMaster final : public PeerBase {
 public:
  MwMaster(MwConfig config, IntervalWorkload* factory);

  /// holds_work reports *unowned* pool entries — reclaimed intervals no
  /// live worker is exploring. parked_ is legitimately non-empty at
  /// termination (workers park, then the master terminates them), so it is
  /// exposed but not an invariant.
  StateTap state_tap() const override {
    StateTap t = PeerBase::state_tap();
    for (const Entry& e : pool_) {
      if (e.owner == -1 && e.length() > 0) {
        t.holds_work = true;
        t.work_amount += static_cast<double>(e.length());
      }
    }
    t.pending_requests = parked_.size();
    return t;
  }

 protected:
  void on_start() override;
  void on_message(sim::Message m) override;
  void on_peer_down(int peer) override;
  void became_idle() override {}  // never holds work
  /// Adds the master's pool gauges (unowned backlog, parked workers) on top
  /// of the funnel counters the Actor base arms.
  void on_metrics(metrics::Registry& registry) override;
  void on_metrics_poll() override;

 private:
  struct Entry {
    int owner = -1;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t length() const { return end > begin ? end - begin : 0; }
  };

  void on_request(int worker, std::int64_t epoch);
  void serve_parked();
  void drop_entry_of(int worker);
  Entry* largest_entry();
  void maybe_terminate();
  void broadcast_bound(int except);

  MwConfig config_;
  IntervalWorkload* factory_;
  std::vector<Entry> pool_;
  std::vector<int> parked_;  ///< workers waiting for work
  bool assigned_initial_ = false;

  // Live metrics (null unless a hub is attached; see on_metrics).
  metrics::Gauge* m_pool_ = nullptr;    ///< olb_mw_pool_unowned
  metrics::Gauge* m_parked_ = nullptr;  ///< olb_mw_parked_workers

  // fault-tolerance state
  std::vector<char> worker_down_;
  int crashed_workers_ = 0;
  std::vector<std::int64_t> request_epoch_;  ///< latest epoch requested
  std::vector<std::int64_t> served_epoch_;   ///< latest epoch answered
};

/// A worker: explores intervals, checkpoints, requests when empty.
class MwWorker final : public PeerBase {
 public:
  explicit MwWorker(MwConfig config) : PeerBase(config.peer), config_(config) {}

  StateTap state_tap() const override {
    StateTap t = PeerBase::state_tap();
    t.pending_requests = request_outstanding_ ? 1 : 0;
    return t;
  }

 protected:
  void on_start() override;
  void on_message(sim::Message m) override;
  void on_timer(std::int64_t tag) override;
  void became_idle() override;
  void diffuse_bound() override;

 private:
  static constexpr int kMasterId = 0;

  void request_work();

  MwConfig config_;
  bool request_outstanding_ = false;
  bool checkpoint_armed_ = false;
  std::int64_t req_epoch_ = 0;  ///< fault tolerance: current request epoch
};

}  // namespace olb::lb
