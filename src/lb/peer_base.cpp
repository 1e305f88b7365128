#include "lb/peer_base.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace olb::lb {

struct PeerBase::Instruments final : metrics::ActorEventCounters {
  metrics::Gauge* queue = nullptr;         ///< olb_peer_queue_depth
  metrics::Gauge* inflight = nullptr;      ///< olb_peer_inflight_requests
  metrics::Counter* units = nullptr;       ///< olb_peer_units_total
  metrics::Histogram* sojourn = nullptr;   ///< olb_peer_sojourn_ns
  std::uint64_t units_reported = 0;
  sim::Time idle_since = -1;  ///< -1 = currently holding work
};

PeerBase::Instruments* PeerBase::peer_instruments() const {
  // on_metrics installs an Instruments before the Actor base arms it, so a
  // non-null pointer here is always ours.
  return static_cast<Instruments*>(instruments());
}

bool PeerBase::acquire_work(std::unique_ptr<Work> w) {
  if (w == nullptr || w->empty()) return holds_work();
  // Sojourn metric: close an open idle episode — this acquisition is the
  // work the episode was waiting for. Gated on the instruments so
  // metrics-off runs never pay the now() read (a syscall on the thread
  // backend).
  if (Instruments* m = peer_instruments();
      m != nullptr && m->idle_since >= 0 && !holds_work()) [[unlikely]] {
    const sim::Time waited = now() - m->idle_since;
    metrics::record(m->sojourn,
                    static_cast<std::uint64_t>(waited > 0 ? waited : 0));
    m->idle_since = -1;
  }
  if (work_ == nullptr) {
    work_ = std::move(w);
  } else {
    work_->merge(std::move(w));
  }
  if (bound_ != kNoBound) work_->observe_bound(bound_);
  return true;
}

std::unique_ptr<Work> PeerBase::split_work(double fraction) {
  if (!holds_work()) return nullptr;
  if (fraction <= 0.0) return nullptr;
  if (work_->amount() < config_.min_split_amount) return nullptr;
  fraction = std::min(fraction, 0.99);
  return work_->split(fraction);
}

void PeerBase::continue_processing() {
  if (computing()) return;
  if (!holds_work()) return;
  const StepResult result = work_->step(config_.chunk_units);
  units_done_ += result.units_done;
  if (result.bound < bound_) bound_ = result.bound;
  // Execute-then-advance: the work state is already final, but the results
  // become externally visible only when the compute span ends.
  start_compute(result.sim_cost);
}

bool PeerBase::note_bound(std::int64_t b) {
  if (b >= bound_) return false;
  bound_ = b;
  if (work_ != nullptr) work_->observe_bound(bound_);
  return true;
}

void PeerBase::on_compute_done() {
  maybe_diffuse();
  after_chunk();
  if (holds_work()) {
    continue_processing();
  } else {
    // Sojourn metric: the idle episode starts when the last local chunk
    // finishes with nothing left, not when a request goes out.
    if (Instruments* m = peer_instruments(); m != nullptr && m->idle_since < 0)
        [[unlikely]] {
      m->idle_since = now();
    }
    became_idle();
  }
}

StateTap PeerBase::state_tap() const {
  StateTap t;
  t.peer = id();
  t.crashed = crashed();
  t.departed = departed_;
  t.holds_work = holds_work();
  t.work_amount = holds_work() ? work_->amount() : 0.0;
  t.terminated = terminated_;
  t.computing = computing();
  t.units_done = units_done_;
  return t;
}

double PeerBase::on_crashed() {
  const double lost = holds_work() ? work_->amount() : 0.0;
  work_.reset();
  return lost;
}

void PeerBase::count_retry(int target, int msg_type, std::int64_t attempt) {
  ++retries_;
  emit_trace(trace::EventKind::kRetry, target, msg_type, attempt);
}

void PeerBase::on_metrics(metrics::Registry& registry) {
  // Resumed runs re-arm: keep the existing struct (and its sojourn and
  // units state), only re-fetch the idempotent get-or-create pointers.
  if (instruments() == nullptr) set_instruments(std::make_unique<Instruments>());
  sim::Actor::on_metrics(registry);
  Instruments& m = *peer_instruments();
  m.queue = registry.gauge("olb_peer_queue_depth", id());
  m.inflight = registry.gauge("olb_peer_inflight_requests", id());
  m.units = registry.counter("olb_peer_units_total", id());
  m.sojourn = registry.histogram("olb_peer_sojourn_ns", id());
  // Peers that start without work are idle from t=0: open their first
  // sojourn episode at run start so the initial work distribution shows up.
  if (!holds_work()) m.idle_since = 0;
}

void PeerBase::on_metrics_poll() {
  Instruments& m = *peer_instruments();
  const StateTap tap = state_tap();
  m.queue->set(static_cast<std::int64_t>(tap.work_amount));
  m.inflight->set(static_cast<std::int64_t>(tap.pending_requests));
  m.units->inc(units_done_ - m.units_reported);
  m.units_reported = units_done_;
}

void PeerBase::maybe_diffuse() {
  if (!config_.diffuse_bounds) return;
  if (bound_ < diffused_bound_) {
    diffused_bound_ = bound_;
    diffuse_bound();
  }
}

}  // namespace olb::lb
