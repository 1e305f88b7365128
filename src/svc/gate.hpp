// The job gate: a non-fleet actor (id == fleet size) that turns a
// precomputed arrival schedule into kJobInject messages for the overlay
// root, enforcing priority-aware admission control on the way.
//
// Lifecycle of a job at the gate (doc table: trace/trace.hpp):
//
//   submitted  the arrival timer fires; kJobSubmit is recorded.
//   admitted   there is a free service slot (inject immediately) or room in
//              the bounded pending queue (park, highest priority first);
//              kJobAdmit is recorded either way.
//   rejected   no slot and the queue is full: the job is shed with
//              kJobReject and never enters the fleet (open-loop overload
//              protection — the kJobRejected outcome of admission control).
//   injected   kJobXfer to the root carries the job's root work.
//   done       the root's per-job accounting waves confirmed the job drained
//              (kJobDone message); the gate records the sojourn and refills
//              free slots from the pending queue in (class, id) order.
//
// When the schedule is exhausted, the queue empty, and nothing in service,
// the gate sends kSvcShutdown — only then may the root's ordinary
// termination detection declare and broadcast kTerminate, which the gate
// also receives (it sits outside the tree, the root notifies it directly).
//
// The gate is an lb::PeerBase, like the MW master, so every backend's runner
// hosts it with the fleet and ends the run when every actor, the gate
// included, saw_terminate(). It never holds work or computes. On kTerminate
// it sets the flag without PeerBase::stop(), so service traces carry no
// kTerminated line for it and the termination oracle never counts it.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/messages.hpp"
#include "lb/peer_base.hpp"
#include "lb/work.hpp"
#include "metrics/metrics.hpp"

namespace olb::svc {

struct AdmissionConfig {
  int max_in_service = 3;       ///< concurrent jobs multiplexed on the fleet
  std::size_t queue_bound = 8;  ///< cap on the pending (admitted) queue
};

class JobGate final : public lb::PeerBase {
 public:
  struct Arrival {
    sim::Time time = 0;
    std::uint64_t job = 0;  ///< dense ids in schedule (= arrival) order
    int job_class = 0;      ///< lower = higher priority
  };
  /// Per-job outcome for post-run harvest (indexed by job id). Times are
  /// -1 until the corresponding transition happened.
  struct Outcome {
    bool rejected = false;
    sim::Time submitted = -1;
    sim::Time injected = -1;
    sim::Time done = -1;
    double amount = 0;  ///< root work amount at submission
  };

  /// `schedule` must be time-sorted with dense job ids 0..size-1;
  /// `factories[job]` builds job's root work (not owned, outlives the run).
  JobGate(std::vector<Arrival> schedule, std::vector<lb::Workload*> factories,
          AdmissionConfig admission, int root, int num_classes);

  // --- post-run inspection (harness side) ---
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t completed() const { return completed_; }
  std::size_t peak_pending() const { return peak_pending_; }
  /// Rejections issued while the queue still had room — impossible by
  /// construction; the counter exists so tests can pin the property.
  std::uint64_t bad_rejects() const { return bad_rejects_; }

 protected:
  void on_start() override;
  void on_message(sim::Message m) override;
  void on_timer(std::int64_t tag) override;
  void became_idle() override {}  // never holds work
  /// The Actor's funnel counters and the per-class latency histograms;
  /// PeerBase's per-peer instruments track work the gate never holds.
  void on_metrics(metrics::Registry& registry) override;
  void on_metrics_poll() override {}

 private:
  void process_arrivals();
  void arm_next_arrival();
  void admit_or_shed(const Arrival& a);
  void inject(std::uint64_t job);
  void on_job_done(std::uint64_t job);
  void maybe_shutdown();

  std::vector<Arrival> schedule_;
  std::vector<lb::Workload*> factories_;
  AdmissionConfig admission_;
  int root_ = 0;
  int num_classes_ = 1;

  std::size_t next_ = 0;  ///< first unprocessed schedule entry
  /// Admitted jobs waiting for a service slot, sorted by (class, job id) —
  /// the pop order; job ids are arrival-ordered, so within a class the
  /// queue is FIFO.
  std::vector<std::uint64_t> pending_;
  std::vector<std::unique_ptr<lb::Work>> cached_;  ///< parked root work
  std::vector<int> class_of_;                      ///< by job id
  int in_service_ = 0;
  bool shutdown_sent_ = false;

  std::vector<Outcome> outcomes_;
  std::uint64_t submitted_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t bad_rejects_ = 0;

  // Live metrics (null unless a hub is attached): per-class latency
  // histograms, keyed by class id.
  std::vector<metrics::Histogram*> m_sojourn_;
  std::vector<metrics::Histogram*> m_queueing_;
};

}  // namespace olb::svc
