#include "svc/gate.hpp"

#include <algorithm>
#include <utility>

#include "lb/job_work.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace olb::svc {

JobGate::JobGate(std::vector<Arrival> schedule,
                 std::vector<lb::Workload*> factories,
                 AdmissionConfig admission, int root, int num_classes)
    : PeerBase(lb::PeerConfig{}),
      schedule_(std::move(schedule)),
      factories_(std::move(factories)),
      admission_(admission),
      root_(root),
      num_classes_(num_classes) {
  OLB_CHECK(admission_.max_in_service >= 1);
  OLB_CHECK(num_classes_ >= 1);
  OLB_CHECK(factories_.size() == schedule_.size());
  cached_.resize(schedule_.size());
  class_of_.resize(schedule_.size(), 0);
  outcomes_.resize(schedule_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    OLB_CHECK_MSG(schedule_[i].job == i, "schedule job ids must be dense");
    OLB_CHECK(i == 0 || schedule_[i - 1].time <= schedule_[i].time);
    class_of_[i] = schedule_[i].job_class;
  }
}

void JobGate::on_start() {
  if (schedule_.empty()) {
    maybe_shutdown();
    return;
  }
  arm_next_arrival();
}

void JobGate::arm_next_arrival() {
  if (next_ >= schedule_.size()) return;
  const sim::Time delay = schedule_[next_].time - now();
  set_timer(delay > 0 ? delay : 0, lb::kSvcArrivalTimer);
}

void JobGate::on_timer(std::int64_t tag) {
  if ((tag & lb::kTimerTagMask) != lb::kSvcArrivalTimer) return;
  if (terminated_) return;
  process_arrivals();
}

void JobGate::process_arrivals() {
  while (next_ < schedule_.size() && schedule_[next_].time <= now()) {
    admit_or_shed(schedule_[next_]);
    ++next_;
  }
  arm_next_arrival();
  maybe_shutdown();  // e.g. the tail of the schedule was shed entirely
}

void JobGate::admit_or_shed(const Arrival& a) {
  auto work = factories_[a.job]->make_root_work();
  const std::int64_t am = lb::amount_milli(work->amount());
  Outcome& rec = outcomes_[a.job];
  rec.submitted = now();
  rec.amount = work->amount();
  ++submitted_;
  emit_trace(trace::EventKind::kJobSubmit, -1, static_cast<int>(a.job),
             a.job_class, am);
  if (in_service_ < admission_.max_in_service) {
    ++admitted_;
    emit_trace(trace::EventKind::kJobAdmit, -1, static_cast<int>(a.job),
               a.job_class, am);
    cached_[a.job] = std::move(work);
    inject(a.job);
    return;
  }
  if (pending_.size() < admission_.queue_bound) {
    ++admitted_;
    emit_trace(trace::EventKind::kJobAdmit, -1, static_cast<int>(a.job),
               a.job_class, am);
    cached_[a.job] = std::move(work);
    // Keep pending_ sorted by (class, job id): pop order = priority order.
    const auto pos = std::lower_bound(
        pending_.begin(), pending_.end(), a.job,
        [&](std::uint64_t x, std::uint64_t y) {
          const int cx = class_of_[x], cy = class_of_[y];
          return cx != cy ? cx < cy : x < y;
        });
    pending_.insert(pos, a.job);
    peak_pending_ = std::max(peak_pending_, pending_.size());
    return;
  }
  // Shed: both the slots and the queue are full.
  if (pending_.size() < admission_.queue_bound) ++bad_rejects_;
  ++rejected_;
  rec.rejected = true;
  emit_trace(trace::EventKind::kJobReject, -1, static_cast<int>(a.job),
             a.job_class, static_cast<std::int64_t>(pending_.size()));
}

void JobGate::inject(std::uint64_t job) {
  Outcome& rec = outcomes_[static_cast<std::size_t>(job)];
  rec.injected = now();
  ++in_service_;
  auto work = std::move(cached_[static_cast<std::size_t>(job)]);
  OLB_CHECK(work != nullptr);
  const int cls = class_of_[static_cast<std::size_t>(job)];
  emit_trace(trace::EventKind::kJobXfer, root_, static_cast<int>(job),
             lb::amount_milli(work->amount()), 0);
  sim::Message msg(lb::kJobInject, 0, cls, static_cast<std::int64_t>(job));
  auto payload = std::make_unique<lb::JobPayload>();
  payload->job = job;
  payload->job_class = cls;
  payload->work = std::move(work);
  msg.payload = std::move(payload);
  send(root_, std::move(msg));
}

void JobGate::on_job_done(std::uint64_t job) {
  Outcome& rec = outcomes_[static_cast<std::size_t>(job)];
  OLB_CHECK_MSG(rec.injected >= 0 && rec.done < 0,
                "kJobDone for a job not in service");
  rec.done = now();
  --in_service_;
  ++completed_;
  const int cls = class_of_[static_cast<std::size_t>(job)];
  const sim::Time sojourn = rec.done - rec.submitted;
  const sim::Time queueing = rec.injected - rec.submitted;
  emit_trace(trace::EventKind::kJobDone, -1, static_cast<int>(job), cls,
             sojourn);
  if (!m_sojourn_.empty()) [[unlikely]] {
    metrics::record(m_sojourn_[static_cast<std::size_t>(cls)],
                    static_cast<std::uint64_t>(sojourn > 0 ? sojourn : 0));
    metrics::record(m_queueing_[static_cast<std::size_t>(cls)],
                    static_cast<std::uint64_t>(queueing > 0 ? queueing : 0));
  }
  while (in_service_ < admission_.max_in_service && !pending_.empty()) {
    const std::uint64_t refill = pending_.front();
    pending_.erase(pending_.begin());
    inject(refill);
  }
  maybe_shutdown();
}

void JobGate::maybe_shutdown() {
  if (shutdown_sent_ || terminated_) return;
  if (next_ < schedule_.size() || !pending_.empty() || in_service_ > 0) return;
  shutdown_sent_ = true;
  send(root_, sim::Message(lb::kSvcShutdown, 0, 0, 0));
}

void JobGate::on_message(sim::Message m) {
  switch (m.type) {
    case lb::kJobDone:
      if (!terminated_) on_job_done(static_cast<std::uint64_t>(m.c));
      break;
    case lb::kTerminate:
      terminated_ = true;  // not stop(): the gate traces no kTerminated
      break;
    default:
      OLB_CHECK_MSG(false, "unexpected message type for JobGate");
  }
}

void JobGate::on_metrics(metrics::Registry& registry) {
  sim::Actor::on_metrics(registry);
  for (int c = 0; c < num_classes_; ++c) {
    m_sojourn_.push_back(registry.histogram("olb_svc_sojourn_ns", c));
    m_queueing_.push_back(registry.histogram("olb_svc_queueing_ns", c));
  }
}

}  // namespace olb::svc
