#include "lb/overlay_lb.hpp"

#include <algorithm>
#include <limits>

#include "lb/job_work.hpp"
#include "support/check.hpp"

namespace olb::lb {

OverlayPeer::OverlayPeer(std::shared_ptr<const overlay::TreeOverlay> tree,
                         std::shared_ptr<const OverlayConfig> config,
                         std::unique_ptr<Work> initial_work,
                         std::uint64_t capacity_weight)
    : PeerBase(config->peer), tree_(std::move(tree)), config_(std::move(config)),
      initial_work_(std::move(initial_work)), weight_(capacity_weight) {
  OLB_CHECK(weight_ >= 1);
  if (config_->churn.enabled()) churn_ = std::make_unique<Churn>();
  if (config_->fault_tolerant) ft_ = std::make_unique<FaultTolerance>();
  if (config_->service.enabled) svc_ = std::make_unique<Service>();
}

OverlayPeer::RootTermination& OverlayPeer::root_term() {
  OLB_CHECK(is_root());
  if (root_ == nullptr) root_ = std::make_unique<RootTermination>();
  return *root_;
}

std::span<const OverlayPeer::PhantomChild> OverlayPeer::phantoms() const {
  if (churn_ == nullptr) return {};
  return churn_->phantoms;
}

std::size_t OverlayPeer::child_index(int child_id) const {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].id == child_id) return i;
  }
  return kNpos;
}

bool OverlayPeer::all_children_pending() const {
  return std::all_of(children_.begin(), children_.end(),
                     [](const Child& c) { return c.pending; });
}

bool OverlayPeer::locally_quiet() const {
  return idle_ && !holds_work() && !computing();
}

void OverlayPeer::trace_queue_depth() {
  const auto depth =
      static_cast<std::int64_t>(
          std::count_if(children_.begin(), children_.end(),
                        [](const Child& c) { return c.pending; })) +
      static_cast<std::int64_t>(pending_bridges_.size());
  emit_trace(trace::EventKind::kQueueDepth, -1, 0, depth);
}

void OverlayPeer::send_work(int dst, std::unique_ptr<Work> w, int req_type,
                            double fraction) {
  emit_trace(trace::EventKind::kServe, dst, req_type, trace::fraction_ppm(fraction),
             static_cast<std::int64_t>(w->amount()));
  // Counted unconditionally (pure counter, no protocol effect): the FT
  // termination waves read it via own_sent(), the conformance state taps
  // always do.
  ++ft_sent_;
  std::int64_t job_tag = 0;
  if (svc_enabled()) {
    // Every service transfer is a single-job JobBag piece; tag the message
    // with its id, bump the per-job counter the accounting waves read, and
    // record the tagged transfer for the conservation oracle.
    const JobBag::Slot& slot = static_cast<JobBag*>(w.get())->sole_slot();
    job_tag = static_cast<std::int64_t>(slot.job);
    ++svc_->counters[slot.job].first;
    emit_trace(trace::EventKind::kJobXfer, dst, static_cast<std::int32_t>(slot.job),
               amount_milli(w->amount()), req_type);
  }
  auto msg = make_msg(kWork, req_type == kReqBridge ? 1 : 0, job_tag);
  msg.payload = std::make_unique<WorkPayload>(std::move(w));
  send(dst, std::move(msg));
}

// ---------------------------------------------------------------- setup ---

void OverlayPeer::on_start() {
  // Service mode: the root starts workless — jobs arrive from the gate.
  OLB_CHECK((initial_work_ != nullptr) == (is_root() && !svc_enabled()));
  // Crash book-keeping is only read on fault-tolerant paths; allocating it
  // unconditionally would cost n bytes per peer — n^2 across the run, which
  // at n = 10^5 is the whole memory budget (10 GB). Fault-free runs carry no
  // FaultTolerance struct at all.
  if (ft_ != nullptr) {
    ft_->peer_down.assign(static_cast<std::size_t>(num_peers()), 0);
  }
  if (churn_enabled()) {
    for (const ChurnEvent& e : config_->churn.events) {
      if (e.peer != id()) continue;
      if (e.join) churn_->join_at = e.time; else churn_->leave_at = e.time;
    }
    if (id() >= config_->churn.initial_peers) {
      // Dormant peer: sits outside the overlay until its scheduled join.
      member_ = false;
      OLB_CHECK_MSG(churn_->join_at >= 0, "dormant peer without a scheduled join");
      set_timer(std::max<sim::Time>(churn_->join_at - now(), 0), kOverlayJoinTimer);
      return;
    }
    if (churn_->leave_at >= 0) {
      set_timer(std::max<sim::Time>(churn_->leave_at - now(), 0),
                kOverlayLeaveTimer);
    }
  }
  parent_ = is_root() ? -1 : tree_->parent(id());
  const overlay::ChildSpan initial_children = tree_->children(id());
  children_.reserve(initial_children.size());
  for (const int c : initial_children) {
    // Under churn the initial members are the id-prefix [0, initial_peers);
    // the overlay invariant parent[i] < i makes that prefix upward-closed,
    // so filtering dormant ids out of the child lists yields a connected
    // subtree.
    if (churn_enabled() && c >= config_->churn.initial_peers) continue;
    children_.push_back(Child{c});
  }
  sizes_missing_ = static_cast<int>(children_.size());
  if (sizes_missing_ == 0) {
    // Leaf (or singleton root): size known immediately.
    my_size_ = weight_;
    if (is_root()) {
      become_ready();
    } else {
      send(parent(), make_msg(kSizeUp, static_cast<std::int64_t>(my_size_)));
    }
  }
  if (config_->fault_tolerant && !is_root()) {
    // Retransmit kSizeUp until the start signal arrives (covers a dropped
    // converge-cast message in either direction).
    set_timer(config_->request_timeout, kOverlaySetupTimer);
  }
}

void OverlayPeer::on_size_up(const sim::Message& m) {
  std::size_t idx = child_index(m.src);
  if (idx == kNpos) {
    // Under churn a rewired child introduces itself with kSizeUp before the
    // leaver's kLeave handover lands here (the two race on disjoint links).
    OLB_CHECK_MSG(config_->fault_tolerant || churn_enabled(),
                  "message from a non-child peer");
    idx = adopt_child(m.src, 0);
  }
  // A duplicated or retransmitted kSizeUp is a refresh: update the size and
  // re-send the start signal if we already have it.
  const bool refresh = ready_ || children_[idx].size != 0;
  OLB_CHECK_MSG(config_->fault_tolerant || churn_enabled() || !refresh,
                "duplicate kSizeUp");
  children_[idx].size = static_cast<std::uint64_t>(m.b);
  if (refresh) {
    if (ready_) {
      send(m.src, make_msg(kSizeDown, static_cast<std::int64_t>(my_size_)));
    }
    return;
  }
  if (--sizes_missing_ > 0) return;
  finish_converge_cast();
}

void OverlayPeer::finish_converge_cast() {
  my_size_ = weight_;
  for (const Child& c : children_) my_size_ += c.size;
  // The distributed converge-cast must agree with the static overlay
  // (capacity weights deliberately diverge from plain node counts; crashes
  // and dormant peers are removed from the count).
  OLB_CHECK(config_->capacity_weighted || config_->fault_tolerant ||
            churn_enabled() || my_size_ == tree_->subtree_size(id()));
  if (is_root()) {
    become_ready();
  } else {
    send(parent(), make_msg(kSizeUp, static_cast<std::int64_t>(my_size_)));
  }
}

void OverlayPeer::on_size_down(const sim::Message& m) {
  parent_size_ = static_cast<std::uint64_t>(m.b);
  if (ready_) return;  // duplicated start signal (fault-tolerant refresh)
  become_ready();
}

void OverlayPeer::become_ready() {
  OLB_CHECK(!ready_);
  ready_ = true;
  for (const Child& c : children_) {
    send(c.id, make_msg(kSizeDown, static_cast<std::int64_t>(my_size_)));
  }
  if (config_->fault_tolerant || (churn_enabled() && is_root())) {
    // FT: every peer leases its protocol state. Churn: the root alone must
    // re-poll — a join or leave changes no transfer counter, so no kReqUp
    // refresh reaches the root; without this tick a membership event that
    // dirties the confirming wave would hang the run (nothing else would
    // ever relaunch the pair).
    set_timer(config_->lease_interval, kOverlayLeaseTimer);
  }
  if (is_root()) {
    if (svc_enabled()) {
      // Workless start: the gate streams jobs in. The wave timer is the
      // root's only self-driven cadence — it launches per-job accounting
      // waves while jobs are in flight and dies with termination.
      set_timer(config_->service.wave_interval, kOverlayJobWaveTimer);
      start_idle_episode();
    } else {
      OLB_CHECK(acquire_work(std::move(initial_work_)));
      continue_processing();
    }
  } else {
    start_idle_episode();
  }
  // Joins that arrived mid-converge-cast were parked; adopt them now.
  if (churn_enabled() && !churn_->parked_joins.empty()) {
    const auto parked = std::move(churn_->parked_joins);
    churn_->parked_joins.clear();
    for (const auto& [joiner, weight] : parked) accept_join(joiner, weight);
  }
}

// -------------------------------------------------------- idle protocol ---

void OverlayPeer::became_idle() { start_idle_episode(); }

void OverlayPeer::start_idle_episode() {
  if (terminated_ || !ready_ || !member_ || holds_work() || computing()) return;
  if (!idle_) emit_trace(trace::EventKind::kIdleBegin, -1, 0, episode_ + 1);
  idle_ = true;
  ++episode_;
  up_requested_ = false;
  send_bridge_request();
  start_down_phase();
}

void OverlayPeer::send_bridge_request() {
  const int n = fleet_size();  // the service gate is never a bridge partner
  if (!config_->use_bridges || n < 2) return;
  if (config_->fault_tolerant && crash_epoch() >= n - 1) return;  // no live partner
  // At most one bridge request is ever parked: if the previous partner has
  // not served us yet it still will the moment it acquires work (idle peers
  // cooperate by chaining parked requests — the paper's "logical cluster of
  // idle nodes"), so re-sending would only multiply work transfers.
  if (bridge_target_ != -1) {
    if (now() - bridge_sent_at_ < config_->bridge_patience) return;
    // Abandon the parked request (it may still be served later — the work
    // simply merges in) and sample a new partner.
    bridge_target_ = -1;
  }
  int u;
  do {
    u = static_cast<int>(rng().below(static_cast<std::uint64_t>(n)));
  } while (u == id() || known_down(u));
  bridge_target_ = u;
  bridge_sent_at_ = now();
  emit_trace(trace::EventKind::kRequest, u, kReqBridge);
  send(u, make_msg(kReqBridge, static_cast<std::int64_t>(my_size_)));
}

void OverlayPeer::start_down_phase() {
  down_order_.clear();
  for (const Child& c : children_) {
    if (!c.pending) down_order_.push_back(c.id);
  }
  // Uniformly random visiting order (paper: "choosing a child uniformly at
  // random at each step").
  for (std::size_t i = down_order_.size(); i > 1; --i) {
    std::swap(down_order_[i - 1], down_order_[rng().below(i)]);
  }
  down_pos_ = 0;
  advance_down();
}

void OverlayPeer::advance_down() {
  if (!idle_ || terminated_) return;
  while (down_pos_ < down_order_.size()) {
    const int c = down_order_[down_pos_];
    const std::size_t idx = child_index(c);
    if (idx == kNpos || children_[idx].pending) {
      ++down_pos_;
      continue;  // became pending (or crashed) since the phase started
    }
    awaiting_child_ = c;
    emit_trace(trace::EventKind::kRequest, c, kReqDown);
    send(c, make_msg(kReqDown, 0, episode_));
    if (config_->fault_tolerant) {
      // A lost kReqDown or kNoWork would park this peer forever; after the
      // timeout the silence is treated as kNoWork. The sequence number in
      // the tag voids timers whose request was in fact answered.
      set_timer(config_->request_timeout,
                kOverlayReqTimeoutTimer | (++ft_->down_req_seq << kTimerTagShift));
    }
    return;
  }
  awaiting_child_ = -1;
  maybe_send_up();
}

void OverlayPeer::maybe_send_up() {
  if (!all_children_pending()) {
    // Some child answered "no work" transiently but its subtree is still
    // active; retry the downward phase after a short backoff.
    arm_retry_timer();
    return;
  }
  if (is_root()) {
    check_root_termination();
  } else if (!up_requested_) {
    send_up_request();
  }
  // In bridge mode an idle peer keeps sampling random bridge partners while
  // it waits — work may re-enter its subtree only over a bridge, and the
  // pure tree protocol would otherwise sit passive until termination.
  if (config_->use_bridges && !terminated_) arm_retry_timer();
}

void OverlayPeer::arm_retry_timer() {
  if (retry_timer_armed_) return;
  retry_timer_armed_ = true;
  set_timer(config_->retry_delay, kOverlayRetryTimer);
}

void OverlayPeer::send_up_request() {
  up_requested_ = true;
  last_sent_agg_ = {agg_sent(), agg_recv()};
  // The kRequest carries the subtree aggregates so the BTD monotonicity
  // oracle (src/check) can watch the four-counter inputs evolve.
  emit_trace(trace::EventKind::kRequest, parent(), kReqUp,
             static_cast<std::int64_t>(last_sent_agg_.first),
             static_cast<std::int64_t>(last_sent_agg_.second));
  send(parent(), make_msg(kReqUp, static_cast<std::int64_t>(last_sent_agg_.first),
                          static_cast<std::int64_t>(last_sent_agg_.second)));
}

void OverlayPeer::on_timer(std::int64_t tag) {
  if (!member_) {
    // Dormant peers only ever act on their join timer; a departed peer's
    // residual retry/lease timers are stale protocol state.
    if ((tag & kTimerTagMask) == kOverlayJoinTimer) on_join_timer();
    return;
  }
  switch (tag & kTimerTagMask) {
    case kOverlayLeaveTimer:
      if (terminated_) return;
      if (!ready_) {
        // Setup has not completed yet; a member cannot unwind links it has
        // not announced. Retry shortly — converge-casts finish fast.
        set_timer(config_->retry_delay, kOverlayLeaveTimer);
        return;
      }
      if (computing()) {
        churn_->leave_pending = true;  // after_chunk() picks it up
        return;
      }
      begin_leave();
      return;
    case kOverlayRetryTimer:
      retry_timer_armed_ = false;
      if (terminated_ || !idle_ || awaiting_child_ != -1 || holds_work()) return;
      send_bridge_request();
      start_down_phase();
      return;
    case kOverlayReqTimeoutTimer: {
      if (terminated_ || !idle_ || awaiting_child_ == -1) return;
      if ((tag >> kTimerTagShift) != ft_->down_req_seq) return;  // answered
      count_retry(awaiting_child_, kReqDown, ft_->down_req_seq);
      awaiting_child_ = -1;
      ++down_pos_;
      advance_down();
      return;
    }
    case kOverlaySetupTimer:
      if (ready_ || terminated_) return;  // setup done: stop retransmitting
      if (my_size_ != 0) {
        count_retry(parent(), kSizeUp, 0);
        send(parent(), make_msg(kSizeUp, static_cast<std::int64_t>(my_size_)));
      }
      set_timer(config_->request_timeout, kOverlaySetupTimer);
      return;
    case kOverlayLeaseTimer:
      on_lease_tick();
      return;
    case kOverlayJobWaveTimer:
      // Per-job accounting cadence (service mode, root only). Stops re-arming
      // once the fleet terminates so the simulation can quiesce.
      if (terminated_) return;
      if (!svc_->wave.in_progress() && !svc_->open.empty()) {
        svc_launch_wave();
      }
      set_timer(config_->service.wave_interval, kOverlayJobWaveTimer);
      return;
    default:
      OLB_CHECK_MSG(false, "unexpected timer tag for OverlayPeer");
  }
}

// -------------------------------------------------------------- serving ---

double OverlayPeer::apply_policy(double proportional) const {
  switch (config_->split) {
    case SplitPolicy::kSubtreeProportional:
      return proportional;
    case SplitPolicy::kHalf:
      return 0.5;
    case SplitPolicy::kFixedUnits: {
      const double amount = work_ != nullptr ? work_->amount() : 0.0;
      if (amount <= 0.0) return 0.0;
      return static_cast<double>(config_->fixed_units) / amount;
    }
  }
  return proportional;
}

double OverlayPeer::clamp_fraction(double raw, int req_type) {
  if (raw > 0.0 && raw <= 1.0) return raw;  // the well-formed fast path
  // <= 0 (or NaN, which fails both comparisons) falls back to steal-half —
  // the share a peer with no usable size information would offer; > 1 means
  // "give them everything that is divisible", i.e. cap at the whole (which
  // split_work further limits to 0.99 so the server keeps a remainder).
  const double clamped = raw <= 0.0 ? 0.5 : 1.0;
  emit_trace(trace::EventKind::kSplitClamp, -1, req_type,
             trace::fraction_ppm(std::clamp(raw, -1000.0, 1000.0)),
             trace::fraction_ppm(clamped));
  return clamped;
}

// The subtree-proportional split fractions (paper §II.B). T_x is the
// (capacity-weighted) size of x's subtree learned in the setup
// converge-cast; "self" is the serving peer. Each requester class gets the
// share of the serving peer's work that its subtree is of the relevant
// enclosing population, so work lands in proportion to the compute power
// that will drain it.

/// Serving a child's upward request: share = T_child / T_self — the
/// child's subtree as a fraction of mine (which contains it).
double OverlayPeer::fraction_for_child(std::size_t child_idx, int req_type) {
  // All ratios are formed in double: the aggregates are uint64, and stale
  // values (see clamp_fraction) would otherwise wrap on subtraction.
  return biased(clamp_fraction(
      apply_policy(static_cast<double>(children_[child_idx].size) /
                   static_cast<double>(my_size_)),
      req_type));
}

/// Serving the parent's downward request: share =
/// (T_parent − T_self) / T_parent — everything in the parent's subtree
/// that is *not* mine, as a fraction of the parent's subtree.
double OverlayPeer::fraction_for_parent() {
  return biased(clamp_fraction(
      apply_policy((static_cast<double>(parent_size_) -
                    static_cast<double>(my_size_)) /
                   static_cast<double>(parent_size_)),
      kReqDown));
}

/// Serving a bridge request (BTD): share = T_req / (T_self + T_req) — the
/// two subtrees are disjoint, so the requester's weight relative to the
/// pair decides the share.
double OverlayPeer::fraction_for_bridge(std::uint64_t requester_size) {
  return biased(clamp_fraction(
      apply_policy(static_cast<double>(requester_size) /
                   static_cast<double>(my_size_ + requester_size)),
      kReqBridge));
}

void OverlayPeer::on_req_down(const sim::Message& m) {
  if (holds_work()) {
    const double fraction = fraction_for_parent();
    if (auto w = split_work(fraction)) {
      send_work(m.src, std::move(w), kReqDown, fraction);
      return;
    }
  }
  emit_trace(trace::EventKind::kNoServe, m.src, kReqDown);
  send(m.src, make_msg(kNoWork, 0, m.c));
}

void OverlayPeer::on_req_up(const sim::Message& m) {
  std::size_t idx = child_index(m.src);
  if (idx == kNpos) {
    if (churn_enabled()) {
      // A departed peer refreshing its phantom ledger (after forwarding a
      // late work delivery): update the counters, never mark it pending —
      // phantoms are polled, not served.
      for (PhantomChild& ph : churn_->phantoms) {
        if (ph.peer != m.src) continue;
        ph.agg.first = std::max(ph.agg.first, static_cast<std::uint64_t>(m.b));
        ph.agg.second = std::max(ph.agg.second, static_cast<std::uint64_t>(m.c));
        if (is_root()) {
          recheck_root_termination();
        } else if (idle_ && up_requested_ &&
                   std::pair{agg_sent(), agg_recv()} != last_sent_agg_) {
          send_up_request();
        }
        return;
      }
    }
    OLB_CHECK_MSG(config_->fault_tolerant || churn_enabled(),
                  "message from a non-child peer");
    // Under churn: a rewired child racing its leaver's kLeave handover.
    idx = adopt_child(m.src, std::max<std::uint64_t>(
                                 tree_->subtree_size(m.src), 1));
  }
  Child& child = children_[idx];
  child.pending = true;
  // Keep the per-counter maximum, as the phantom ledger above does: the
  // counters are monotone, so the maximum is the newest reading even when a
  // later kReqUp overtook an earlier one on the link (a send from a
  // compute-done hook pays no handling cost, so the next send can leave
  // less than the link's jitter after it).
  child.agg_sent = std::max(child.agg_sent, static_cast<std::uint64_t>(m.b));
  child.agg_recv = std::max(child.agg_recv, static_cast<std::uint64_t>(m.c));

  if (holds_work()) {
    const double fraction = fraction_for_child(idx, kReqUp);
    if (auto w = split_work(fraction)) {
      child.pending = false;
      send_work(m.src, std::move(w), kReqUp, fraction);
    }
    trace_queue_depth();
    return;  // unsplittable: the child stays pending, retried after chunks
  }
  trace_queue_depth();

  if (is_root()) {
    recheck_root_termination();
    return;
  }
  if (idle_ && up_requested_) {
    // Refresh: forward updated subtree aggregates upwards (the paper's
    // "aggregated work request messages") — but only when they actually
    // changed; unchanged counters carry no information and a refresh per
    // descendant idle event would cascade O(depth) messages.
    if (std::pair{agg_sent(), agg_recv()} != last_sent_agg_) send_up_request();
  } else if (idle_ && awaiting_child_ == -1) {
    maybe_send_up();
  }
}

void OverlayPeer::on_req_bridge(const sim::Message& m) {
  if (holds_work()) {
    const double fraction = fraction_for_bridge(static_cast<std::uint64_t>(m.b));
    if (auto w = split_work(fraction)) {
      ++bridge_sent_;
      send_work(m.src, std::move(w), kReqBridge, fraction);
      return;
    }
  }
  emit_trace(trace::EventKind::kNoServe, m.src, kReqBridge);
  for (const ParkedBridge& pb : pending_bridges_) {
    if (pb.peer == m.src) return;  // already pending here
  }
  // The size arrives off the wire on the socket backend: refuse to narrow a
  // value that does not fit rather than park a wrong split weight.
  OLB_CHECK_MSG(m.b >= 0 && m.b <= std::numeric_limits<std::uint32_t>::max(),
                "bridge requester size out of range");
  pending_bridges_.push_back({m.src, static_cast<std::uint32_t>(m.b)});
  trace_queue_depth();
}

void OverlayPeer::on_work(sim::Message m) {
  OLB_CHECK_MSG(!terminated_, "work arrived after termination was declared");
  ++ft_recv_;  // unconditional, mirroring ft_sent_ in send_work
  if (m.b == 1) ++bridge_recv_;
  dirty_outstanding_probe();
  if (m.b == 1 && m.src == bridge_target_) bridge_target_ = -1;
  if (idle_) emit_trace(trace::EventKind::kIdleEnd, m.src, m.type, episode_);
  idle_ = false;
  awaiting_child_ = -1;
  auto* payload = static_cast<WorkPayload*>(m.payload.get());
  OLB_CHECK(payload != nullptr);
  if (svc_enabled()) {
    // The piece's job tag rides field c (send_work); count the receipt for
    // the accounting waves and record the merge for the oracle before the
    // acquire consumes the piece.
    const auto job = static_cast<std::uint64_t>(m.c);
    ++svc_->counters[job].second;
    emit_trace(trace::EventKind::kJobMerge, m.src, static_cast<std::int32_t>(job),
               amount_milli(payload->work->amount()), m.b);
  }
  acquire_work(std::move(payload->work));
  serve_pending();
  continue_processing();
}

void OverlayPeer::serve_pending() {
  if (!holds_work()) return;
  bool served_any = false;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i].pending) continue;
    const double fraction = fraction_for_child(i, kReqUp);
    auto w = split_work(fraction);
    if (w == nullptr) {
      if (served_any) trace_queue_depth();
      return;  // too small to divide further right now
    }
    children_[i].pending = false;
    served_any = true;
    send_work(children_[i].id, std::move(w), kReqUp, fraction);
  }
  while (!pending_bridges_.empty()) {
    const auto [peer, size] = pending_bridges_.front();
    const double fraction = fraction_for_bridge(size);
    auto w = split_work(fraction);
    if (w == nullptr) {
      if (served_any) trace_queue_depth();
      return;
    }
    pending_bridges_.erase(pending_bridges_.begin());
    ++bridge_sent_;
    served_any = true;
    send_work(peer, std::move(w), kReqBridge, fraction);
  }
  if (served_any) trace_queue_depth();
}

void OverlayPeer::after_chunk() {
  if (svc_enabled()) svc_emit_chunks();
  if (churn_enabled() && churn_->leave_pending) {
    churn_->leave_pending = false;
    if (!terminated_ && member_) {
      begin_leave();
      return;
    }
  }
  serve_pending();
}

// --------------------------------------------------- elastic membership ---

bool OverlayPeer::is_static_ancestor(int anc, int node) const {
  int p = tree_->parent(node);
  while (p != -1) {
    if (p == anc) return true;
    p = tree_->parent(p);
  }
  return false;
}

void OverlayPeer::apply_size_delta(std::int64_t delta, bool forward_up) {
  if (delta == 0) return;
  const std::int64_t next = static_cast<std::int64_t>(my_size_) + delta;
  my_size_ = next < static_cast<std::int64_t>(weight_)
                 ? weight_
                 : static_cast<std::uint64_t>(next);
  if (forward_up && member_ && !is_root()) {
    send(parent_, make_msg(kSizeDelta, delta));
  }
}

void OverlayPeer::on_size_delta(const sim::Message& m) {
  const std::int64_t delta = m.b;
  const std::size_t idx = child_index(m.src);
  if (idx != kNpos) {
    const std::int64_t next =
        static_cast<std::int64_t>(children_[idx].size) + delta;
    children_[idx].size = next < 1 ? 1 : static_cast<std::uint64_t>(next);
  }
  apply_size_delta(delta, /*forward_up=*/true);
}

void OverlayPeer::on_join_timer() {
  if (member_ || terminated_ || departed_) return;
  // Churn excludes faults, so the single request cannot be lost; it either
  // finds a member that adopts us or a terminated peer that answers
  // kTerminate (the run ended first).
  send(tree_->root(), make_msg(kJoinReq, static_cast<std::int64_t>(weight_), id()));
}

void OverlayPeer::on_join_req(sim::Message m) {
  const int joiner = static_cast<int>(m.c);
  const auto weight = static_cast<std::uint64_t>(m.b);
  if (!ready_) {
    churn_->parked_joins.emplace_back(joiner, weight);
    return;
  }
  if (static_cast<int>(children_.size()) < config_->join_degree) {
    accept_join(joiner, weight);
    return;
  }
  // BON-style weighted coin: forward towards a child with probability
  // inversely proportional to its subtree size, steering joins into the
  // lightest regions of the overlay.
  double total = 0.0;
  for (const Child& c : children_) {
    total += 1.0 / static_cast<double>(c.size + 1);
  }
  double x = rng().uniform01() * total;
  std::size_t pick = children_.size() - 1;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    x -= 1.0 / static_cast<double>(children_[i].size + 1);
    if (x <= 0.0) {
      pick = i;
      break;
    }
  }
  // The joiner's id travels in field c — routing rewrites m.src per hop.
  send(children_[pick].id, std::move(m));
}

void OverlayPeer::accept_join(int joiner, std::uint64_t weight) {
  OLB_CHECK(churn_enabled() && ready_ && member_);
  if (child_index(joiner) != kNpos) return;  // duplicate request, already in
  adopt_child(joiner, weight);
  ++churn_->member_events;
  dirty_outstanding_probe();
  // The new child starts non-pending, which blocks the termination condition
  // until its first upward request integrates it into the quiet proof.
  apply_size_delta(static_cast<std::int64_t>(weight), /*forward_up=*/true);
  send(joiner, make_msg(kJoinAccept, static_cast<std::int64_t>(my_size_)));
}

void OverlayPeer::on_join_accept(const sim::Message& m) {
  if (member_ || terminated_ || departed_) return;
  member_ = true;
  ready_ = true;
  parent_ = m.src;
  parent_size_ = static_cast<std::uint64_t>(m.b);
  my_size_ = weight_;
  emit_trace(trace::EventKind::kMemberJoin, parent_, 0,
             static_cast<std::int64_t>(weight_));
  if (churn_->leave_at >= 0) {
    set_timer(std::max<sim::Time>(churn_->leave_at - now(), 0),
              kOverlayLeaveTimer);
  }
  start_idle_episode();
}

void OverlayPeer::begin_leave() {
  OLB_CHECK_MSG(!is_root(), "the overlay root cannot leave");
  OLB_CHECK(member_ && ready_ && !computing());
  // (1) Drain: residual work moves to the parent as a counted,
  // bridge-flagged transfer — it lands in the wave counters before the
  // kLeave snapshot below, so termination cannot race the handover.
  if (holds_work()) {
    ++bridge_sent_;
    send_work(parent_, std::move(work_), kReqBridge, 1.0);
  }
  // (2) Rewire every child to the parent. Children re-announce themselves
  // (kSizeUp) and re-send any open upward request on the new link.
  for (const Child& c : children_) {
    send(c.id, make_msg(kRewire, parent_, static_cast<std::int64_t>(parent_size_)));
  }
  // (3) Hand the parent our child links, inherited phantoms and final
  // transfer counters in one message.
  auto msg = make_msg(kLeave, static_cast<std::int64_t>(weight_), id());
  auto payload = std::make_unique<LeavePayload>();
  payload->children.reserve(children_.size());
  for (const Child& c : children_) {
    payload->children.push_back({c.id, c.size, c.pending, c.agg_sent, c.agg_recv});
  }
  payload->phantoms.reserve(churn_->phantoms.size());
  for (const PhantomChild& ph : churn_->phantoms) {
    payload->phantoms.push_back({ph.peer, ph.agg.first, ph.agg.second});
  }
  payload->sent = own_sent();
  payload->recv = own_recv();
  msg.payload = std::move(payload);
  send(parent_, std::move(msg));
  emit_trace(trace::EventKind::kMemberLeave, parent_, 0,
             static_cast<std::int64_t>(weight_));
  // (4) Retire. parent_ stays valid: the departed peer keeps forwarding
  // strays towards the member side and answering probes with its true
  // counters (the phantom entry at the parent points the waves here).
  if (idle_) emit_trace(trace::EventKind::kIdleEnd, parent_, kLeave, episode_);
  member_ = false;
  departed_ = true;
  idle_ = false;
  awaiting_child_ = -1;
  children_.clear();
  pending_bridges_.clear();
  churn_->phantoms.clear();
  bridge_target_ = -1;
}

void OverlayPeer::on_leave(sim::Message m) {
  const auto* lp = static_cast<const LeavePayload*>(m.payload.get());
  OLB_CHECK(lp != nullptr);
  const int leaver = static_cast<int>(m.c);  // src is rewritten on forwards
  ++churn_->member_events;
  dirty_outstanding_probe();
  const std::size_t idx = child_index(leaver);
  if (idx != kNpos) {
    children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  // Keep the leaver's final counters as a phantom child: subtree aggregates
  // retain its contribution, probes keep polling it directly.
  std::vector<PhantomChild>& phantoms = churn_->phantoms;
  phantoms.push_back({leaver, {lp->sent, lp->recv}});
  for (const auto& ph : lp->phantoms) {
    bool known = false;
    for (PhantomChild& mine : phantoms) {
      if (mine.peer != ph.peer) continue;
      mine.agg.first = std::max(mine.agg.first, ph.sent);
      mine.agg.second = std::max(mine.agg.second, ph.recv);
      known = true;
      break;
    }
    if (!known) phantoms.push_back({ph.peer, {ph.sent, ph.recv}});
  }
  apply_size_delta(-static_cast<std::int64_t>(m.b), /*forward_up=*/true);
  // Merge the transferred child links. A child may have introduced itself
  // already (its rewire-triggered kSizeUp/kReqUp raced this handover):
  // merge component-wise, never regress a pending flag or an aggregate.
  for (const auto& cl : lp->children) {
    const std::size_t ci = child_index(cl.peer);
    if (ci == kNpos) {
      Child& c = children_[adopt_child(cl.peer, cl.size)];
      c.pending = cl.pending;
      c.agg_sent = cl.agg_sent;
      c.agg_recv = cl.agg_recv;
    } else {
      Child& c = children_[ci];
      c.size = std::max(c.size, cl.size);
      c.pending = c.pending || cl.pending;
      c.agg_sent = std::max(c.agg_sent, cl.agg_sent);
      c.agg_recv = std::max(c.agg_recv, cl.agg_recv);
    }
  }
  trace_queue_depth();
  if (awaiting_child_ == leaver) {
    // Our open downward request went to the leaver; it answered (or will
    // answer) out of departed_dispatch, but advance defensively.
    awaiting_child_ = -1;
    ++down_pos_;
    if (ft_ != nullptr) ++ft_->down_req_seq;  // void the request timeout
    advance_down();
  }
  if (is_root()) {
    recheck_root_termination();
  } else if (idle_ && up_requested_) {
    if (std::pair{agg_sent(), agg_recv()} != last_sent_agg_) send_up_request();
  } else if (idle_ && awaiting_child_ == -1) {
    arm_retry_timer();
  }
}

void OverlayPeer::on_rewire(const sim::Message& m) {
  const int new_parent = static_cast<int>(m.b);
  if (new_parent == parent_) return;
  const int old_parent = parent_;
  parent_ = new_parent;
  parent_size_ = std::max<std::uint64_t>(static_cast<std::uint64_t>(m.c), 1);
  emit_trace(trace::EventKind::kReparent, parent_, 0, old_parent);
  // Introduce ourselves: the new parent may not have processed the kLeave
  // handover yet. kSizeUp registers us and refreshes our size there (the
  // refresh reply also updates parent_size_ precisely).
  if (my_size_ != 0) {
    send(parent_, make_msg(kSizeUp, static_cast<std::int64_t>(my_size_)));
  }
  // Our subtree-finished signal (if any) died with the old parent.
  if (idle_ && up_requested_) send_up_request();
}

void OverlayPeer::dirty_outstanding_probe() {
  if (probe_.in_progress()) probe_dirty_ = true;
}

void OverlayPeer::departed_dispatch(sim::Message m) {
  switch (m.type) {
    case kWork: {
      // Late serve of a request made before leaving (a parked bridge, an
      // in-flight answer). Forward it to the member side as a counted,
      // bridge-flagged transfer: both hops land in the wave counters, so
      // the counter rule still sees the work while it is in flight.
      if (m.b == 1) ++bridge_recv_;
      ++ft_recv_;
      ++bridge_sent_;
      auto* payload = static_cast<WorkPayload*>(m.payload.get());
      OLB_CHECK(payload != nullptr);
      send_work(parent_, std::move(payload->work), kReqBridge, 1.0);
      // Refresh the phantom ledger at our keeper so the pre-wave counter
      // gate catches up (the probes poll our true counters directly).
      send(parent_, make_msg(kReqUp, static_cast<std::int64_t>(own_sent()),
                             static_cast<std::int64_t>(own_recv())));
      break;
    }
    case kReqDown:
      send(m.src, make_msg(kNoWork, 0, m.c));
      break;
    case kProbe:
      send_probe_ack(m.src, static_cast<std::uint64_t>(m.b), /*dirty=*/false,
                     own_reading());
      break;
    case kTerminate:
      if (!terminated_) stop();
      break;
    case kJoinReq:
      send(parent_, std::move(m));  // pass strays towards the member side
      break;
    case kLeave:
      // A child departed before processing its own rewire and addressed the
      // handover to us. Pass it to the member side whole: on_leave reads the
      // leaver from the payload fields, so the src rewrite on this hop is
      // harmless — dropping it would strand the leaver's child entry at its
      // keeper as never-pending and wedge termination.
      send(parent_, std::move(m));
      break;
    case kSizeDelta:
      // An in-flight size update racing our departure. Forward it whole:
      // the member side applies it to its own estimate and keeps relaying
      // upward (our old child re-announces its absolute size on rewire, and
      // kSizeUp refreshes never touch my_size_, so nothing double-counts) —
      // dropping it would leave every ancestor's estimate permanently stale.
      send(parent_, std::move(m));
      break;
    case kSizeUp:
    case kReqUp:
      // A live child still points here (its rewire raced ours). Redirect it:
      // on_rewire makes it re-introduce itself and re-send any open upward
      // request on the new link, so no pending flag is lost.
      send(m.src, make_msg(kRewire, parent_,
                           static_cast<std::int64_t>(parent_size_)));
      break;
    case kRewire:
      // Our old parent left too; future forwards go to its parent.
      parent_ = static_cast<int>(m.b);
      break;
    default:
      break;  // stale control chatter addressed to the old member
  }
}

void OverlayPeer::dormant_dispatch(sim::Message m) {
  switch (m.type) {
    case kJoinAccept:
      on_join_accept(m);
      break;
    case kTerminate:
      // The run ended before (or raced) our join: a kJoinReq reaching a
      // terminated member is answered with kTerminate addressed to us.
      if (!terminated_) stop();
      break;
    default:
      break;  // e.g. a bridge request sampled towards a non-member
  }
}

// ------------------------------------------------------ bound diffusion ---

void OverlayPeer::diffuse_bound() {
  if (!is_root()) send(parent(), make_msg(kBound));
  for (const Child& c : children_) send(c.id, make_msg(kBound));
}

void OverlayPeer::on_bound_msg(const sim::Message& m) {
  if (!note_bound(m.a)) return;
  if (bound_ >= diffused_bound_) return;
  diffused_bound_ = bound_;
  if (!is_root() && parent() != m.src) send(parent(), make_msg(kBound));
  for (const Child& c : children_) {
    if (c.id != m.src) send(c.id, make_msg(kBound));
  }
}

// ------------------------------------------------------- fault recovery ---

int OverlayPeer::nearest_live_ancestor(int peer_id) const {
  // Root crashes are rejected by the driver, so the walk terminates.
  OLB_CHECK(peer_id != tree_->root());
  int p = tree_->parent(peer_id);
  while (p != tree_->root() && known_down(p)) {
    p = tree_->parent(p);
  }
  return p;
}

std::size_t OverlayPeer::adopt_child(int peer_id, std::uint64_t size_hint) {
  children_.push_back(Child{peer_id, false, size_hint});
  if (!ready_ && size_hint == 0) ++sizes_missing_;
  return children_.size() - 1;
}

void OverlayPeer::rebuild_children() {
  const int n = num_peers();
  std::vector<Child> now_children;
  for (int j = 0; j < n; ++j) {
    if (j == id() || j == tree_->root()) continue;  // the root has no parent
    if (known_down(j)) continue;
    if (nearest_live_ancestor(j) != id()) continue;
    const std::size_t old = child_index(j);
    if (old != kNpos) {
      now_children.push_back(children_[old]);
    } else {
      // Adopted orphan. The static subtree size is a placeholder split
      // weight until its kSizeUp refresh arrives; starting non-pending
      // blocks termination until the orphan re-requests upwards.
      now_children.push_back(Child{j, false, tree_->subtree_size(j)});
    }
  }
  children_ = std::move(now_children);
  if (!ready_) {
    sizes_missing_ = static_cast<int>(
        std::count_if(children_.begin(), children_.end(),
                      [](const Child& c) { return c.size == 0; }));
    // Removing a crashed child can complete the converge-cast by itself.
    if (sizes_missing_ == 0 && my_size_ == 0) finish_converge_cast();
  }
}

void OverlayPeer::on_peer_down(int peer) {
  OLB_CHECK(config_->fault_tolerant);
  const auto pidx = static_cast<std::size_t>(peer);
  if (pidx >= ft_->peer_down.size() || ft_->peer_down[pidx] != 0) return;
  ft_->peer_down[pidx] = 1;
  ++ft_->crash_epoch;
  if (terminated_) return;
  if (is_root()) root_term().rule.invalidate();  // wave pairs must share an epoch
  if (bridge_target_ == peer) bridge_target_ = -1;
  pending_bridges_.erase(
      std::remove_if(pending_bridges_.begin(), pending_bridges_.end(),
                     [peer](const ParkedBridge& pb) { return pb.peer == peer; }),
      pending_bridges_.end());
  // Subtree sizes along the crashed peer's ancestor path used to stay stale
  // until the next converge-cast refresh (which fault recovery never runs),
  // skewing every split fraction computed from them. Decrement the local
  // estimate and the child entry the crash hangs under; the dead peer's own
  // child entry (if direct) is rebuilt below, where its adopted orphans
  // bring their static sizes along. Capacity weights of remote peers are
  // unknown here, so a crashed peer counts as weight 1 — the same
  // approximation rebuild_children uses for adopted orphans.
  if (my_size_ != 0 && is_static_ancestor(id(), peer)) {
    for (Child& c : children_) {
      if (c.id == peer) break;  // direct child: handled by rebuild
      if (!is_static_ancestor(c.id, peer)) continue;
      if (c.size > 1) --c.size;
      break;
    }
    apply_size_delta(-1, /*forward_up=*/false);
  }
  const int old_parent = parent_;
  if (!is_root()) parent_ = nearest_live_ancestor(id());
  rebuild_children();
  if (!is_root() && parent_ != old_parent) {
    emit_trace(trace::EventKind::kReparent, parent_, 0, old_parent);
    // Split weights for the new parent are approximations until sizes are
    // refreshed; exactness only affects balance quality, not correctness.
    parent_size_ = tree_->subtree_size(parent_);
    if (my_size_ != 0) {
      send(parent_, make_msg(kSizeUp, static_cast<std::int64_t>(my_size_)));
    }
    // Our subtree-finished signal (if any) died with the old parent.
    if (idle_ && up_requested_) send_up_request();
  }
  if (awaiting_child_ == peer) {
    // The pending downward request can never be answered now.
    awaiting_child_ = -1;
    ++down_pos_;
    ++ft_->down_req_seq;  // void the outstanding timeout
    advance_down();
  }
  if (idle_ && awaiting_child_ == -1 && !terminated_) arm_retry_timer();
}

void OverlayPeer::on_lease_tick() {
  if (terminated_) return;  // no re-arm: the timer dies with the protocol
  if (is_root()) {
    RootTermination& rt = root_term();
    if (probe_.in_progress() &&
        now() - rt.probe_launched_at >= config_->lease_interval) {
      // The wave lost a message (or its relay crashed); abandon it.
      count_retry(-1, kProbe, static_cast<std::int64_t>(probe_.id));
      probe_.acks_missing = 0;
    }
    check_root_termination();
  } else if (idle_ && up_requested_) {
    // Lease refresh: a lost upward request (or one swallowed by a crashed
    // parent before adoption kicked in) must not hang termination.
    count_retry(parent(), kReqUp, 0);
    send_up_request();
  }
  set_timer(config_->lease_interval, kOverlayLeaseTimer);
}

// ---------------------------------------------------------- termination ---

// Plain runs count only bridge transfers: tree serves are covered by the
// converge-cast discipline (a served child must report idle again before its
// subtree reads as quiet). FT and churn runs count every transfer instead —
// a crash or departure severs that discipline mid-flight (e.g. a tree serve
// in flight to a peer that just left is invisible to the bridge counters,
// and the departed peer's counted forward only starts at receipt), so the
// four-counter rule must see all work to keep the Mattern argument sound.
std::uint64_t OverlayPeer::own_sent() const {
  return config_->fault_tolerant || churn_enabled() ? ft_sent_ : bridge_sent_;
}

std::uint64_t OverlayPeer::own_recv() const {
  return config_->fault_tolerant || churn_enabled() ? ft_recv_ : bridge_recv_;
}


std::uint64_t OverlayPeer::agg_sent() const {
  std::uint64_t s = own_sent();
  for (const Child& c : children_) s += c.agg_sent;
  for (const PhantomChild& ph : phantoms()) s += ph.agg.first;
  return s;
}

std::uint64_t OverlayPeer::agg_recv() const {
  std::uint64_t r = own_recv();
  for (const Child& c : children_) r += c.agg_recv;
  for (const PhantomChild& ph : phantoms()) r += ph.agg.second;
  return r;
}

void OverlayPeer::check_root_termination() {
  if (!is_root() || terminated_) return;
  // Service mode: the gate owns end-of-stream. Until it says kSvcShutdown
  // more jobs may still be injected, so global quiescence means nothing.
  if (svc_enabled() && !svc_->shutdown) return;
  if (!locally_quiet() || !all_children_pending()) return;
  if (!config_->fault_tolerant && !config_->use_bridges && !churn_enabled()) {
    // Pure tree mode: a child's upward request proves its whole subtree is
    // finished, so the condition alone is exact. Unreliable links can leave
    // pending flags stale, and under churn a serve can be in flight to a
    // peer that already left (its departed forward re-injects the work
    // outside the tree discipline), so those runs confirm with counter
    // waves like bridge mode.
    declare_termination();
    return;
  }
  RootTermination& rt = root_term();
  if (probe_.in_progress()) {
    rt.recheck_after_probe = true;
    return;
  }
  // Unbalanced counters: some receipt/send is still unreported; the owning
  // subtree will re-idle and refresh its upward request, re-triggering us.
  // (After a crash the victim's counters are gone for good.)
  if (crash_epoch() == 0 && agg_sent() != agg_recv()) return;
  // Under faults the confirming wave waits one lease (finish_probe_at_root).
  if (config_->fault_tolerant && rt.rule.primed() &&
      now() - rt.last_wave_end < config_->lease_interval) {
    return;  // the lease timer re-checks
  }
  launch_probe();
}

void OverlayPeer::recheck_root_termination() {
  if (probe_.in_progress()) {
    root_term().recheck_after_probe = true;
  } else {
    check_root_termination();
  }
}

bool OverlayPeer::forward_wave(WaveNode& wave, int type, std::uint64_t id, int parent) {
  wave = WaveNode{id, parent, static_cast<int>(children_.size() + phantoms().size())};
  auto forward = [&](int dst) {
    auto msg = make_msg(type);
    if (type == kProbe) {
      msg.b = static_cast<std::int64_t>(id);
      msg.reliable = true;
    } else {
      auto payload = std::make_unique<JobProbePayload>();
      payload->probe_id = id;
      msg.payload = std::move(payload);
    }
    send(dst, std::move(msg));
  };
  for (const Child& c : children_) forward(c.id);
  // Phantoms are polled directly: the departed peer answers with its *true*
  // counters, so a stale phantom ledger can only block termination (the
  // pre-wave gate), never falsely balance it.
  for (const PhantomChild& ph : phantoms()) forward(ph.peer);
  return wave.in_progress();
}

void OverlayPeer::launch_probe() {
  RootTermination& rt = root_term();
  rt.probe_launched_at = now();
  rt.recheck_after_probe = false;
  const std::uint64_t id = probe_.id + 1;
  emit_trace(trace::EventKind::kProbeWave, -1, 0, static_cast<std::int64_t>(id));
  join_probe(id, -1);
}

void OverlayPeer::join_probe(std::uint64_t id, int parent) {
  probe_sum_ = own_reading();
  probe_dirty_ = false;
  if (!forward_wave(probe_, kProbe, id, parent)) reply_probe();
}

void OverlayPeer::on_probe(sim::Message m) {
  if (terminated_) return;
  const auto id = static_cast<std::uint64_t>(m.b);
  if (!locally_quiet() || !all_children_pending()) {
    send_probe_ack(m.src, id, /*dirty=*/true, {.crash_epoch = crash_epoch()});
    return;
  }
  join_probe(id, m.src);
}

void OverlayPeer::on_probe_ack(sim::Message m) {
  if (terminated_) return;
  if (!probe_.awaits(probe_ack_wave(m.b))) return;  // stale
  probe_sum_.absorb(probe_ack_reading(m.b, m.c));
  probe_dirty_ = probe_dirty_ || probe_ack_dirty(m.b);
  if (--probe_.acks_missing == 0) reply_probe();
}

void OverlayPeer::send_probe_ack(int dst, std::uint64_t id, bool dirty,
                                 const CounterReading& r) {
  auto msg = make_msg(kProbeAck, pack_probe_ack_b(id, dirty, r), pack_probe_ack_c(r));
  msg.reliable = true;
  send(dst, std::move(msg));
}

void OverlayPeer::reply_probe() {
  if (is_root()) {
    finish_probe_at_root();
    return;
  }
  const bool quiet = !probe_dirty_ && locally_quiet() && all_children_pending();
  send_probe_ack(probe_.parent, probe_.id, !quiet, probe_sum_);
}

void OverlayPeer::on_metrics(metrics::Registry& registry) {
  PeerBase::on_metrics(registry);
  if (is_root()) root_term().m_wave = registry.histogram("olb_term_wave_ns", id());
}

void OverlayPeer::finish_probe_at_root() {
  RootTermination& rt = root_term();
  rt.last_wave_end = now();
  // Wave latency = launch at the root to the last ack folding back in.
  if (rt.m_wave != nullptr) [[unlikely]] {
    const sim::Time lat = rt.last_wave_end - rt.probe_launched_at;
    metrics::record(rt.m_wave, static_cast<std::uint64_t>(lat > 0 ? lat : 0));
  }
  // A wave that met a crash the root has not heard of yet is not quiet: it
  // compares with nothing the root knows.
  const bool quiet = !probe_dirty_ && locally_quiet() && all_children_pending() &&
                     probe_sum_.crash_epoch <= crash_epoch();
  CounterReading reading = probe_sum_;
  reading.crash_epoch = crash_epoch();
  const Settle verdict = rt.rule.settle(quiet, reading);
  emit_trace(trace::EventKind::kProbeWave, -1, verdict == Settle::kDirty ? 2 : 1,
             static_cast<std::int64_t>(probe_.id),
             static_cast<std::int64_t>(reading.sent) -
                 static_cast<std::int64_t>(reading.recv));
  switch (verdict) {
    case Settle::kStable:
      declare_termination();
      return;
    case Settle::kClean:
      // The confirming wave: back to back on reliable links; under faults
      // the lease timer launches it one lease later, so every transfer in
      // flight during this wave has landed before the next polls its
      // receiver.
      if (!config_->fault_tolerant) launch_probe();
      return;
    case Settle::kDirty:
      if (rt.recheck_after_probe) {
        rt.recheck_after_probe = false;
        check_root_termination();
      }
      return;
  }
}

void OverlayPeer::declare_termination() {
  OLB_CHECK(is_root());
  done_time_ = now();
  stop();
  for (const Child& c : children_) send(c.id, make_msg(kTerminate));
  for (const PhantomChild& ph : phantoms()) send(ph.peer, make_msg(kTerminate));
  // The gate sits outside the tree; tell it directly so it can exit.
  if (svc_enabled()) send(config_->service.gate, make_msg(kTerminate));
}

void OverlayPeer::on_terminate() {
  OLB_CHECK_MSG(!holds_work(), "terminate reached a peer still holding work");
  OLB_CHECK_MSG(!computing(), "terminate reached a peer still computing");
  stop();
  idle_ = false;
  pending_bridges_.clear();
  for (const Child& c : children_) send(c.id, make_msg(kTerminate));
  for (const PhantomChild& ph : phantoms()) send(ph.peer, make_msg(kTerminate));
}

// ------------------------------------------------ multi-job service mode ---
//
// Per-job completion is detected with root-led accounting waves (kJobProbe /
// kJobProbeAck) that ALWAYS recurse — busy peers answer too, unlike the
// termination probes — aggregating per job: transfer pieces sent, pieces
// received, and milli-units currently held. The root applies the counter
// rule (counter_wave.hpp) to each open job, with zero holdings as its quiet
// condition: the job is done when two consecutive waves read the same
// balanced counters and nobody holds any of it. Sent/recv counters are
// monotone and execute-then-advance makes a peer's held amount externally
// consistent by the time it answers a probe, so such a pair proves no piece
// of the job is in flight and no peer holds any of it.

JobBag* OverlayPeer::bag() { return static_cast<JobBag*>(work_.get()); }

void OverlayPeer::svc_emit_chunks() {
  JobBag* b = bag();
  if (b == nullptr) return;
  for (const JobBag::ChunkRecord& cr : b->take_chunk_records()) {
    emit_trace(trace::EventKind::kJobChunk, -1, static_cast<int>(cr.job),
               static_cast<std::int64_t>(cr.units), cr.delta_milli);
  }
}

void OverlayPeer::on_job_inject(sim::Message m) {
  OLB_CHECK(svc_enabled() && is_root());
  OLB_CHECK_MSG(!terminated_, "inject after termination (gate bug)");
  auto* jp = static_cast<JobPayload*>(m.payload.get());
  OLB_CHECK(jp != nullptr && jp->work != nullptr);
  const std::uint64_t job = jp->job;
  svc_->open.try_emplace(job);
  // The inject is not a peer transfer (the gate sits outside the fleet), so
  // it does not bump the per-job counters — waves stay sent == recv
  // symmetric. The
  // oracle's transfer balance instead pairs the gate's kJobXfer with this:
  emit_trace(trace::EventKind::kJobMerge, m.src, static_cast<int>(job),
             amount_milli(jp->work->amount()), 0);
  if (idle_) emit_trace(trace::EventKind::kIdleEnd, m.src, m.type, episode_);
  idle_ = false;
  awaiting_child_ = -1;
  auto piece = std::make_unique<JobBag>();
  piece->add_job(job, jp->job_class, std::move(jp->work));
  acquire_work(std::move(piece));
  serve_pending();
  continue_processing();
}

void OverlayPeer::svc_fill_own_stats() {
  svc_->table.clear();
  for (const auto& [job, sr] : svc_->counters) {
    JobStat& st = svc_->table[job];
    st.job = job;
    st.sent = sr.first;
    st.recv = sr.second;
  }
  const JobBag* b = bag();
  if (b != nullptr) {
    b->for_each_hold([&](std::uint64_t job, double amount) {
      JobStat& st = svc_->table[job];
      st.job = job;
      st.holds_milli += amount_milli(amount);
    });
  }
}

void OverlayPeer::svc_launch_wave() {
  OLB_CHECK(is_root());
  svc_join_wave(svc_->wave.id + 1, -1);
}

void OverlayPeer::svc_join_wave(std::uint64_t id, int parent) {
  svc_fill_own_stats();
  if (!forward_wave(svc_->wave, kJobProbe, id, parent)) svc_reply_wave();
}

void OverlayPeer::on_job_probe(sim::Message m) {
  OLB_CHECK(svc_enabled());
  if (terminated_) return;
  const auto* pp = static_cast<const JobProbePayload*>(m.payload.get());
  svc_join_wave(pp->probe_id, m.src);
}

void OverlayPeer::on_job_probe_ack(sim::Message m) {
  OLB_CHECK(svc_enabled());
  if (terminated_) return;
  const auto* pp = static_cast<const JobProbePayload*>(m.payload.get());
  if (!svc_->wave.awaits(pp->probe_id)) return;  // stale
  for (const JobStat& st : pp->stats) {
    JobStat& mine = svc_->table[st.job];
    mine.job = st.job;
    mine.sent += st.sent;
    mine.recv += st.recv;
    mine.holds_milli += st.holds_milli;
  }
  if (--svc_->wave.acks_missing == 0) svc_reply_wave();
}

void OverlayPeer::svc_reply_wave() {
  if (is_root()) {
    svc_finish_wave_at_root();
    return;
  }
  auto msg = make_msg(kJobProbeAck);
  auto payload = std::make_unique<JobProbePayload>();
  payload->probe_id = svc_->wave.id;
  payload->stats.reserve(svc_->table.size());
  for (const auto& [job, st] : svc_->table) payload->stats.push_back(st);
  msg.payload = std::move(payload);
  send(svc_->wave.parent, std::move(msg));
}

void OverlayPeer::svc_finish_wave_at_root() {
  Service& sv = *svc_;
  for (auto it = sv.open.begin(); it != sv.open.end();) {
    const std::uint64_t job = it->first;
    // A job the counters never saw (injected and fully drained at the root
    // between waves) reads all zeros: still a correct quiet reading.
    const auto row = sv.table.find(job);
    const JobStat st = row != sv.table.end() ? row->second : JobStat{};
    if (it->second.settle(st.holds_milli == 0, {st.sent, st.recv}) == Settle::kStable) {
      send(config_->service.gate, make_msg(kJobDone, 0, static_cast<std::int64_t>(job)));
      it = sv.open.erase(it);
    } else {
      ++it;
    }
  }
}

// ------------------------------------------------------------- dispatch ---

void OverlayPeer::on_message(sim::Message m) {
  if (m.type != kTerminate) handle_piggyback(m);
  if (m.src >= 0 && known_down(m.src) && m.type != kWork) {
    // In-flight message from a peer we know crashed. Work is still real and
    // must be kept (it bounces back off the dead peer); everything else is
    // protocol state of a dead participant.
    return;
  }
  if (churn_enabled() && !member_) {
    if (departed_) {
      departed_dispatch(std::move(m));
    } else {
      dormant_dispatch(std::move(m));
    }
    return;
  }
  if (terminated_) {
    // In-flight stragglers (requests/acks sent before the sender heard the
    // termination broadcast) are ignored; work must never straggle.
    OLB_CHECK(m.type != kWork);
    if (churn_enabled()) {
      // The membership protocol must not strand anyone the broadcast could
      // not reach: a joiner whose request raced termination, a leaver whose
      // handover (and the links it transferred) arrived after it.
      if (m.type == kJoinReq) {
        send(static_cast<int>(m.c), make_msg(kTerminate));
      } else if (m.type == kLeave) {
        const auto* lp = static_cast<const LeavePayload*>(m.payload.get());
        OLB_CHECK(lp != nullptr);
        send(static_cast<int>(m.c), make_msg(kTerminate));
        for (const auto& cl : lp->children) send(cl.peer, make_msg(kTerminate));
        for (const auto& ph : lp->phantoms) send(ph.peer, make_msg(kTerminate));
      } else if (m.type != kTerminate) {
        // E.g. a rewired child's kSizeUp/kReqUp introduction that the wave
        // never polled (it was quiet and linkless at declare time).
        send(m.src, make_msg(kTerminate));
      }
      return;
    }
    if (config_->fault_tolerant && m.type != kTerminate) {
      // The sender evidently missed the broadcast (e.g. its kTerminate was
      // dropped); its own lease retransmit reached us, so answer it.
      send(m.src, make_msg(kTerminate));
    }
    return;
  }
  switch (m.type) {
    case kSizeUp: on_size_up(m); break;
    case kSizeDown: on_size_down(m); break;
    case kReqDown: on_req_down(m); break;
    case kReqUp: on_req_up(m); break;
    case kReqBridge: on_req_bridge(m); break;
    case kWork: on_work(std::move(m)); break;
    case kJoinReq: on_join_req(std::move(m)); break;
    case kJoinAccept: break;  // duplicate accept for an already-joined member
    case kLeave: on_leave(std::move(m)); break;
    case kRewire: on_rewire(m); break;
    case kSizeDelta: on_size_delta(m); break;
    case kNoWork:
      if (idle_ && awaiting_child_ == m.src && m.c == episode_) {
        awaiting_child_ = -1;
        ++down_pos_;
        if (ft_ != nullptr) ++ft_->down_req_seq;  // void the request timeout
        advance_down();
      }
      break;
    case kTerminate: on_terminate(); break;
    case kProbe: on_probe(std::move(m)); break;
    case kProbeAck: on_probe_ack(std::move(m)); break;
    case kBound: on_bound_msg(m); break;
    case kJobInject: on_job_inject(std::move(m)); break;
    case kJobProbe: on_job_probe(std::move(m)); break;
    case kJobProbeAck: on_job_probe_ack(std::move(m)); break;
    case kSvcShutdown:
      OLB_CHECK(svc_enabled() && is_root());
      svc_->shutdown = true;
      check_root_termination();
      break;
    default: OLB_CHECK_MSG(false, "unexpected message type for OverlayPeer");
  }
}

StateTap OverlayPeer::state_tap() const {
  StateTap t = PeerBase::state_tap();
  t.transfers_sent = ft_sent_;
  t.transfers_recv = ft_recv_;
  t.pending_requests = pending_bridges_.size();
  t.subtree_size = my_size_;
  return t;
}

}  // namespace olb::lb
