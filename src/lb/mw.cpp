#include "lb/mw.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace olb::lb {

// ---------------------------------------------------------------- master ---

MwMaster::MwMaster(MwConfig config, IntervalWorkload* factory)
    : PeerBase(config.peer), config_(config), factory_(factory) {
  OLB_CHECK_MSG(factory_ != nullptr,
                "MW requires an interval-encoded workload (B&B)");
}

void MwMaster::on_metrics(metrics::Registry& registry) {
  // The Actor's funnel counters only: PeerBase's per-peer instruments track
  // held work and compute spans, which the master never has.
  sim::Actor::on_metrics(registry);
  m_pool_ = registry.gauge("olb_mw_pool_unowned", id());
  m_parked_ = registry.gauge("olb_mw_parked_workers", id());
}

void MwMaster::on_metrics_poll() {
  // Same definition as state_tap's holds_work: backlog is the unowned pool
  // length — intervals no live worker is exploring.
  std::int64_t backlog = 0;
  for (const Entry& e : pool_) {
    if (e.owner == -1) backlog += static_cast<std::int64_t>(e.length());
  }
  m_pool_->set(backlog);
  m_parked_->set(static_cast<std::int64_t>(parked_.size()));
}

void MwMaster::on_start() {
  if (config_.fault_tolerant) {
    const auto n = static_cast<std::size_t>(num_peers());
    worker_down_.assign(n, 0);
    request_epoch_.assign(n, -1);
    served_epoch_.assign(n, -1);
  }
}

MwMaster::Entry* MwMaster::largest_entry() {
  Entry* best = nullptr;
  for (Entry& e : pool_) {
    if (e.length() == 0) continue;
    if (best == nullptr || e.length() > best->length()) best = &e;
  }
  return best;
}

void MwMaster::drop_entry_of(int worker) {
  std::erase_if(pool_, [worker](const Entry& e) { return e.owner == worker; });
}

void MwMaster::on_request(int worker, std::int64_t epoch) {
  if (config_.fault_tolerant) {
    // Retransmit of a request we already answered (the kWork is, or was, in
    // flight) or of one still parked — the epoch disambiguates both from a
    // genuinely new request.
    if (epoch == served_epoch_[worker]) return;
    if (std::find(parked_.begin(), parked_.end(), worker) != parked_.end()) {
      return;
    }
    request_epoch_[worker] = epoch;
  }
  // A request implies the worker's interval is exhausted.
  drop_entry_of(worker);
  parked_.push_back(worker);
  serve_parked();
  emit_trace(trace::EventKind::kQueueDepth, -1, 0,
             static_cast<std::int64_t>(parked_.size()));
  maybe_terminate();
}

void MwMaster::serve_parked() {
  while (!parked_.empty()) {
    const int worker = parked_.front();
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    if (!assigned_initial_) {
      // First assignment: the whole problem.
      assigned_initial_ = true;
      begin = 0;
      end = factory_->interval_total();
    } else {
      // Reclaimed intervals of crashed workers are served whole: nobody is
      // exploring them, so halving would strand the remainder (and a
      // length-1 orphan could never be split at all).
      Entry* orphan = nullptr;
      if (config_.fault_tolerant) {
        for (Entry& e : pool_) {
          if (e.owner >= 0 || e.length() == 0) continue;
          if (orphan == nullptr || e.length() > orphan->length()) orphan = &e;
        }
      }
      if (orphan != nullptr) {
        begin = orphan->begin;
        end = orphan->end;
        orphan->end = orphan->begin;  // now empty; harmless in the pool
      } else {
        Entry* victim = largest_entry();
        if (victim == nullptr || victim->length() < 2) return;  // nothing to split
        const std::uint64_t mid = victim->begin + victim->length() / 2;
        begin = mid;
        end = victim->end;
        victim->end = mid;
        if (victim->owner >= 0) {
          // Epoch-pinned like checkpoints: a spike-delayed notify landing
          // after the owner was served a *newer* interval must not truncate
          // that one (the cut-away segment would never be explored).
          const std::int64_t epoch =
              config_.fault_tolerant ? served_epoch_[victim->owner] : 0;
          send(victim->owner, sim::Message(kMWSplitNotify, bound_,
                                           static_cast<std::int64_t>(mid),
                                           epoch));
        }
      }
    }
    parked_.erase(parked_.begin());
    pool_.push_back(Entry{worker, begin, end});
    if (config_.fault_tolerant) served_epoch_[worker] = request_epoch_[worker];
    emit_trace(trace::EventKind::kServe, worker, kMWRequest, 0,
               static_cast<std::int64_t>(end - begin));
    auto work = factory_->make_interval_work(begin, end);
    if (bound_ != kNoBound) work->observe_bound(bound_);
    sim::Message m(kWork, bound_);
    m.payload = std::make_unique<WorkPayload>(std::move(work));
    send(worker, std::move(m));
  }
}

void MwMaster::maybe_terminate() {
  if (terminated_) return;
  if (!assigned_initial_) return;  // no worker ever asked: impossible in runs
  const int live_workers = num_peers() - 1 - crashed_workers_;
  if (static_cast<int>(parked_.size()) != live_workers) return;
  for (const Entry& e : pool_) OLB_CHECK(e.length() == 0);
  done_time_ = now();
  stop();
  for (int w = 1; w < num_peers(); ++w) {
    if (config_.fault_tolerant && worker_down_[w] != 0) continue;
    send(w, sim::Message(kTerminate, bound_));
  }
}

void MwMaster::broadcast_bound(int except) {
  for (int w = 1; w < num_peers(); ++w) {
    if (config_.fault_tolerant && worker_down_[w] != 0) continue;
    if (w != except) send(w, sim::Message(kBound, bound_));
  }
}

void MwMaster::on_peer_down(int peer) {
  OLB_CHECK(config_.fault_tolerant);
  const auto idx = static_cast<std::size_t>(peer);
  if (idx >= worker_down_.size() || worker_down_[idx] != 0) return;
  worker_down_[idx] = 1;
  ++crashed_workers_;
  if (terminated_) return;
  parked_.erase(std::remove(parked_.begin(), parked_.end(), peer), parked_.end());
  // Reclaim the crashed worker's interval as of its last checkpoint; it is
  // re-served whole, and B&B re-exploration is idempotent.
  for (Entry& e : pool_) {
    if (e.owner == peer) e.owner = -1;
  }
  serve_parked();  // the reclaimed interval may feed parked workers
  maybe_terminate();
}

void MwMaster::on_message(sim::Message m) {
  if (m.type != kTerminate && m.a < bound_) {
    bound_ = m.a;
    broadcast_bound(m.src);
  }
  if (config_.fault_tolerant) {
    if (m.src >= 0 && m.src < static_cast<int>(worker_down_.size()) &&
        worker_down_[m.src] != 0 && m.type != kWork) {
      return;  // in-flight message of a dead worker
    }
    if (terminated_) {
      if (m.type == kMWRequest) {
        // The worker missed the broadcast (dropped kTerminate).
        send(m.src, sim::Message(kTerminate, bound_));
      }
      return;
    }
  }
  switch (m.type) {
    case kMWRequest:
      on_request(m.src, m.b);
      break;
    case kMWCheckpoint: {
      // A latency-spiked checkpoint can arrive after the worker's interval
      // was dropped (its next request overtook it) and a fresh one served;
      // applying the stale position to the fresh entry would advance its
      // begin over never-explored work — silently pruning the search space.
      // The epoch pins the checkpoint to the serve it progresses (found by
      // the conformance fuzzer: a "lossless" MW run missing the optimum).
      if (config_.fault_tolerant && m.c != served_epoch_[m.src]) break;
      const auto pos = static_cast<std::uint64_t>(m.b);
      for (Entry& e : pool_) {
        if (e.owner == m.src) {
          e.begin = std::min(std::max(e.begin, pos), e.end);
          break;
        }
      }
      break;
    }
    case kBound:
      break;  // bound already absorbed above
    case kWork:
      // Work bounced off a crashed worker. Discard: the reclaimed pool
      // entry still covers this interval and will be re-served.
      OLB_CHECK_MSG(config_.fault_tolerant, "unexpected kWork at MwMaster");
      break;
    default:
      OLB_CHECK_MSG(false, "unexpected message type for MwMaster");
  }
}

// ---------------------------------------------------------------- worker ---

void MwWorker::on_start() { request_work(); }

void MwWorker::request_work() {
  if (request_outstanding_ || terminated_) return;
  request_outstanding_ = true;
  emit_trace(trace::EventKind::kIdleBegin);
  emit_trace(trace::EventKind::kRequest, kMasterId, kMWRequest);
  if (config_.fault_tolerant) {
    ++req_epoch_;
    send(kMasterId, sim::Message(kMWRequest, bound_, req_epoch_));
    set_timer(config_.request_timeout,
              kMwRequestTimeoutTimer | (req_epoch_ << kTimerTagShift));
  } else {
    send(kMasterId, sim::Message(kMWRequest, bound_));
  }
}

void MwWorker::became_idle() { request_work(); }

void MwWorker::diffuse_bound() {
  // Workers report improvements to the master, which rebroadcasts.
  send(kMasterId, sim::Message(kBound, bound_));
}

void MwWorker::on_timer(std::int64_t tag) {
  switch (tag & kTimerTagMask) {
    case kMwCheckpointTimer: {
      checkpoint_armed_ = false;
      if (terminated_ || !holds_work()) return;
      const auto* iv = dynamic_cast<const IntervalWork*>(work_.get());
      OLB_CHECK(iv != nullptr);
      // The epoch ties the checkpoint to the serve that produced this
      // interval; the master must not apply it to a later one.
      send(kMasterId,
           sim::Message(kMWCheckpoint, bound_,
                        static_cast<std::int64_t>(iv->interval_position()),
                        req_epoch_));
      checkpoint_armed_ = true;
      set_timer(config_.checkpoint_period, kMwCheckpointTimer);
      return;
    }
    case kMwRequestTimeoutTimer:
      if (terminated_ || !request_outstanding_) return;
      if ((tag >> kTimerTagShift) != req_epoch_) return;  // answered
      count_retry(kMasterId, kMWRequest, req_epoch_);
      send(kMasterId, sim::Message(kMWRequest, bound_, req_epoch_));
      set_timer(config_.request_timeout,
                kMwRequestTimeoutTimer | (req_epoch_ << kTimerTagShift));
      return;
    default:
      OLB_CHECK_MSG(false, "unexpected timer tag for MwWorker");
  }
}

void MwWorker::on_message(sim::Message m) {
  if (m.type != kTerminate) note_bound(m.a);
  if (terminated_) {
    OLB_CHECK(m.type != kWork);
    return;
  }
  switch (m.type) {
    case kWork: {
      request_outstanding_ = false;
      emit_trace(trace::EventKind::kIdleEnd, m.src, m.type);
      auto* payload = static_cast<WorkPayload*>(m.payload.get());
      acquire_work(std::move(payload->work));
      if (!checkpoint_armed_) {
        checkpoint_armed_ = true;
        set_timer(config_.checkpoint_period, kMwCheckpointTimer);
      }
      continue_processing();
      break;
    }
    case kMWSplitNotify: {
      // Stale notify for an interval this worker already exhausted (its
      // next request overtook the notify); truncating the current interval
      // would silently orphan the cut-away segment. Found by the
      // conformance fuzzer as a "lossless" run missing the optimum.
      if (config_.fault_tolerant && m.c != req_epoch_) break;
      if (work_ != nullptr) {
        auto* iv = dynamic_cast<IntervalWork*>(work_.get());
        OLB_CHECK(iv != nullptr);
        iv->interval_truncate(static_cast<std::uint64_t>(m.b));
        if (!holds_work() && !computing()) request_work();
      }
      break;
    }
    case kBound:
      break;  // absorbed by note_bound above
    case kTerminate:
      OLB_CHECK_MSG(!holds_work(), "terminate reached a worker still holding work");
      stop();
      break;
    default:
      OLB_CHECK_MSG(false, "unexpected message type for MwWorker");
  }
}

}  // namespace olb::lb
