#include "simnet/engine.hpp"

#include <algorithm>

#include "metrics/hub.hpp"

namespace olb::sim {

void Actor::bind(Transport& transport, int id, std::uint64_t seed) {
  transport_ = &transport;
  id_ = id;
  rng_ = Xoshiro256(mix64(seed + 0x9e3779b9u) ^ mix64(static_cast<std::uint64_t>(id)));
}

Time Actor::now() const { return transport_->transport_now(); }

void Actor::send(int dst, Message m) {
  transport_->transport_send(*this, dst, std::move(m));
}

int Actor::num_peers() const { return transport_->transport_num_peers(); }

void Actor::start_compute(Time duration) {
  OLB_CHECK_MSG(!compute_pending_, "actor already has an outstanding compute span");
  OLB_CHECK(duration >= 0);
  if (speed_ != 1.0) {
    duration = static_cast<Time>(static_cast<double>(duration) / speed_);
  }
  compute_pending_ = true;
  transport_->transport_compute_started(*this, duration);
}

void Actor::emit_trace(trace::EventKind kind, int peer, int type, std::int64_t a,
                       std::int64_t b) {
  // Metrics tap: every protocol already marks its request/serve/decline/
  // retry/idle moments here, so counting at the funnel instruments all four
  // strategies (and works even when tracing is detached).
  if (mcounters_ != nullptr) [[unlikely]] {
    switch (kind) {
      case trace::EventKind::kRequest:
        metrics::inc(mcounters_->requests);
        break;
      case trace::EventKind::kServe:
        metrics::inc(mcounters_->serves);
        break;
      case trace::EventKind::kNoServe:
        metrics::inc(mcounters_->declines);
        break;
      case trace::EventKind::kRetry:
        metrics::inc(mcounters_->retries);
        break;
      case trace::EventKind::kIdleBegin:
        metrics::inc(mcounters_->idle);
        break;
      default:
        break;
    }
  }
  trace::emit(transport_->transport_tracer(), transport_->transport_now(), kind,
              id_, peer, type, a, b);
}

void Actor::on_metrics(metrics::Registry& registry) {
  if (mcounters_ == nullptr) {
    mcounters_ = std::make_unique<metrics::ActorEventCounters>();
  }
  mcounters_->requests = registry.counter("olb_peer_requests_total", id_);
  mcounters_->serves = registry.counter("olb_peer_serves_total", id_);
  mcounters_->declines = registry.counter("olb_peer_declines_total", id_);
  mcounters_->retries = registry.counter("olb_peer_retries_total", id_);
  mcounters_->idle = registry.counter("olb_peer_idle_episodes_total", id_);
}

void Actor::set_timer(Time delay, std::int64_t tag) {
  OLB_CHECK(delay >= 0);
  trace::emit(transport_->transport_tracer(), transport_->transport_now(),
              trace::EventKind::kTimerSet, id_, -1, 0, tag, delay);
  transport_->transport_set_timer(*this, delay, tag);
}

void Engine::transport_compute_started(Actor& from, Time duration) {
  // The busy-clock advance is what makes the span *occupy* the simulated
  // actor; the thread backend has no analogue (there the CPU was genuinely
  // occupied), which is why this lives behind the Transport seam.
  const Time base = from.busy_until_ > now_ ? from.busy_until_ : now_;
  from.busy_until_ = base + duration;
  tally_.record_busy(base, duration);
  trace::emit(tracer_, base, trace::EventKind::kComputeSpan, from.id_, -1, 0,
              duration);
}

void Engine::transport_set_timer(Actor& from, Time delay, std::int64_t tag) {
  Message m(kTimerMsgType, tag);
  m.src = from.id_;
  m.dst = from.id_;
  emplace_after(delay, from.id_, Event::Kind::kArrival).msg = std::move(m);
}

Engine::Engine(NetworkConfig config, std::uint64_t seed)
    : config_(config), network_(config, seed), seed_(seed) {}

int Engine::add_actor(std::unique_ptr<Actor> actor) {
  OLB_CHECK_MSG(!running_, "actors must be added before run()");
  const int id = id_base_ + static_cast<int>(actors_.size());
  OLB_CHECK_MSG(global_peers_ < 0 || id < global_peers_,
                "shard overfilled beyond its global peer count");
  actor->bind(*this, id, seed_);
  actors_.push_back(std::move(actor));
  return id;
}

void Engine::configure_shard(std::vector<int> bases, int shard) {
  OLB_CHECK_MSG(actors_.empty(), "configure_shard before add_actor");
  OLB_CHECK(shard >= 0 && static_cast<std::size_t>(shard) + 1 < bases.size());
  id_base_ = bases[static_cast<std::size_t>(shard)];
  global_peers_ = bases.back();
  shard_ = shard;
  outboxes_.resize(bases.size() - 1);
  shard_bases_ = std::move(bases);
}

void Engine::send_remote(Message&& m, Time at) {
  const auto it =
      std::upper_bound(shard_bases_.begin(), shard_bases_.end(), m.dst);
  Outbox& out = outboxes_[static_cast<std::size_t>(it - shard_bases_.begin() - 1)];
  out.earliest = std::min(out.earliest, at);
  out.sends.push_back(RemoteSend{at, std::move(m)});
}

void Engine::take_arrivals_from(Engine& source) {
  Outbox& out = source.outboxes_[static_cast<std::size_t>(shard_)];
  for (RemoteSend& rs : out.sends) {
    OLB_CHECK_MSG(rs.at >= now_, "cross-shard arrival would be in the past");
    push_arrival(std::move(rs.msg), rs.at);
  }
  out.sends.clear();
  out.earliest = kTimeMax;
}

Time Engine::earliest_outbound() const {
  Time t = kTimeMax;
  for (const Outbox& out : outboxes_) t = std::min(t, out.earliest);
  return t;
}

std::size_t Engine::queue_memory_bytes() const {
  std::size_t bytes = queue_.memory_bytes() + outboxes_.capacity() * sizeof(Outbox);
  for (const Outbox& out : outboxes_) {
    bytes += out.sends.capacity() * sizeof(RemoteSend);
  }
  return bytes;
}

void Engine::send_from(Actor& from, int dst, Message m) {
  OLB_CHECK(dst >= 0 && dst < transport_num_peers());
  OLB_CHECK_MSG(m.type >= 0, "application message types must be >= 0");
  m.src = from.id_;
  m.dst = dst;
  ++from.msgs_sent_;
  tally_.count_send(m.type);
  Time latency = network_.latency(from.id_, dst);
  if (!is_local(dst)) [[unlikely]] {
    // Cross-shard send: all send-side effects (stats, latency draw) are
    // done, so the destination shard can inject the arrival verbatim at the
    // start of the next window. The perturbation, link-fault, tracing and
    // bug-plant features below are declined by the driver whenever more
    // than one shard is active, so skipping them on this path cannot change
    // behaviour.
    send_remote(std::move(m), now_ + latency);
    return;
  }
  if (perturb_jitter_ > 0) [[unlikely]] {
    latency += static_cast<Time>(
        perturb_rng_.below(static_cast<std::uint64_t>(perturb_jitter_) + 1));
    // The jitter must not let a message overtake an earlier one on the same
    // ordered link: the overlay termination rules treat an upward request as
    // the subtree-finished signal (DESIGN.md, conformance notes), and with
    // an extra_jitter far above the base jitter the fuzzer found a
    // finished-signal overtaking the final work transfer, stranding work
    // at a terminated root. So perturbed arrivals are clamped to stay
    // strictly behind the link's last scheduled one; strict monotonicity
    // also keeps tie shuffling from swapping them.
    //
    // The base network does not keep links FIFO. Sends from a compute-done
    // hook pay no msg_handling_cost, so two sends on one link can leave
    // closer together than latency_jitter and arrive swapped: perfbench's
    // pinned sim_bb_1k run has 712 such overtakings and sharded_uts_100k
    // 5 093 (counted per ordered link on an instrumented build). The
    // overlay tolerates them (OverlayPeer::on_req_up keeps the newest
    // child aggregates whatever their arrival order), and the conformance
    // oracles assume strict link FIFO only on unjittered runs. Clamping
    // every link would move both perfbench pins, so it waits for the
    // change that re-pins them (ROADMAP item 1).
    if (perturb_link_last_.empty()) {
      perturb_link_last_.resize(static_cast<std::size_t>(num_actors()) *
                                    static_cast<std::size_t>(num_actors()),
                                0);
    }
    Time& last = perturb_link_last_[static_cast<std::size_t>(from.id_) *
                                        static_cast<std::size_t>(num_actors()) +
                                    static_cast<std::size_t>(dst)];
    if (now_ + latency <= last) latency = last + 1 - now_;
    last = now_ + latency;
  }

  // Link faults apply to control messages only: payload-carrying transfers
  // model a reliable bulk channel (see faults.hpp), so work is never
  // silently destroyed or cloned by the network. The whole faulty path is
  // out of line so the fault-free send stays at its pre-fault-layer shape.
  if (link_faults_on_ && m.payload == nullptr) [[unlikely]] {
    send_faulty(from, dst, std::move(m), latency);
    return;
  }

  if (tracer_ != nullptr) [[unlikely]] {
    // The id store lives under the tracer check: writing a bit-field is a
    // read-modify-write of the whole type/id unit, too costly for a field
    // nothing reads in untraced runs.
    m.id = static_cast<std::uint32_t>(tally_.messages);
    trace::emit(tracer_, now_, trace::EventKind::kMsgSend, from.id_, dst, m.type,
                static_cast<std::int64_t>(m.id), latency);
  }

  // Conformance-harness bug plant: the nth transfer vanishes *after* its
  // kMsgSend was traced — exactly what a lost-ack bug looks like to the
  // conservation oracle.
  if (planted_drop_nth_ != 0 && m.payload != nullptr) [[unlikely]] {
    if (++planted_payload_seen_ == planted_drop_nth_) return;
  }

  push_arrival(std::move(m), now_ + latency);
}

void Engine::send_faulty(Actor& from, int dst, Message&& m, Time latency) {
  const FaultInjector::Fate fate = injector_.draw_fate();
  if (fate.extra_latency > 0) {
    latency += fate.extra_latency;
    ++tally_.latency_spikes;
  }

  if (tracer_ != nullptr) {
    m.id = static_cast<std::uint32_t>(tally_.messages);
    trace::emit(tracer_, now_, trace::EventKind::kMsgSend, from.id_, dst, m.type,
                static_cast<std::int64_t>(m.id), latency);
  }

  if (fate.drop) {
    ++tally_.msgs_dropped;
    trace::emit(tracer_, now_, trace::EventKind::kMsgDrop, from.id_, dst, m.type,
                static_cast<std::int64_t>(m.id), 0);
    return;
  }
  if (fate.duplicate) {
    ++tally_.msgs_duplicated;
    trace::emit(tracer_, now_, trace::EventKind::kMsgDup, from.id_, dst, m.type,
                static_cast<std::int64_t>(m.id), 0);
    Message copy(m.type, m.a, m.b, m.c);
    copy.id = m.id;
    copy.src = m.src;
    copy.dst = m.dst;
    push_arrival(std::move(copy), now_ + latency);
  }
  push_arrival(std::move(m), now_ + latency);
}

void Engine::push_arrival(Message&& m, Time at) {
  const int dst = m.dst;
  emplace_event(at, dst, Event::Kind::kArrival).msg = std::move(m);
}

void Engine::schedule_wake(Actor& a, Time at) {
  OLB_CHECK(!a.wake_pending_);
  a.wake_pending_ = true;
  // Wake events read only msg.dst, so the rest of the recycled slot's
  // moved-from shell (payload always null after consumption) is left as-is.
  // A wake at once or after one message's handling goes to its lane; a
  // compute end or a stall's thaw lands at a delay of its own.
  const Time delay = at - now_;
  if (delay == 0 || delay == config_.msg_handling_cost) {
    emplace_after(delay, a.id_, Event::Kind::kWake);
  } else {
    emplace_event(at, a.id_, Event::Kind::kWake);
  }
}

Message Engine::pop_inbox(Actor& a) {
  const std::uint32_t s = a.inbox_head_;
  Event& ev = queue_.slot(s);
  a.inbox_head_ = ev.next;
  if (a.inbox_head_ == kNoSlot) a.inbox_tail_ = kNoSlot;
  Message m = std::move(ev.msg);
  queue_.release(s);
  return m;
}

void Engine::service(Actor& a, Time t) {
  // Invariant: wakes are only scheduled at or after busy_until_, and
  // busy_until_ only advances inside wakes (of which there is at most one
  // outstanding per actor), so the actor is guaranteed free here — except
  // when a fault-injected stall extended busy_until_ behind our back; then
  // the wake is simply re-queued for when the actor thaws.
  if (t < a.busy_until_) [[unlikely]] {
    schedule_wake(a, a.busy_until_);
    return;
  }

  if (!a.started_) {
    a.started_ = true;
    a.on_start();
  } else if (a.inbox_head_ != kNoSlot) {
    Message m = pop_inbox(a);
    a.busy_until_ = t + config_.msg_handling_cost;
    const Time inbox_wait = t - m.arrived_at;
    // Application messages (type >= 0) first: one compare on the hot path,
    // the engine-reserved negative types pay the second. Only application
    // messages count towards the queueing delay.
    if (m.type >= 0) {
      tally_.record_queue_delay(inbox_wait);
      trace::emit(tracer_, t, trace::EventKind::kMsgDeliver, a.id_, m.src,
                  m.type, static_cast<std::int64_t>(m.id), inbox_wait);
      a.on_message(std::move(m));
    } else if (m.type == kTimerMsgType) {
      trace::emit(tracer_, t, trace::EventKind::kTimerFire, a.id_, -1, 0, m.a,
                  inbox_wait);
      a.on_timer(m.a);
    } else {
      a.on_peer_down(static_cast<int>(m.a));
    }
  } else if (a.compute_pending_) {
    a.compute_pending_ = false;
    tally_.last_compute_done = t;
    a.on_compute_done();
  }

  if (a.inbox_head_ != kNoSlot || a.compute_pending_) {
    schedule_wake(a, a.busy_until_ > t ? a.busy_until_ : t);
  } else {
    // Nothing queued and no compute outstanding: the actor goes idle once
    // its current busy period (if any) drains.
    trace::emit(tracer_, a.busy_until_ > t ? a.busy_until_ : t,
                trace::EventKind::kActorIdle, a.id_);
  }
}

Engine::RunResult Engine::run_loop(Time time_limit, std::uint64_t event_limit) {
  RunResult result;
  while (!queue_.empty()) {
    if (queue_.peek_time() > time_limit || result.events >= event_limit) {
      return result;  // limit hit; queue intentionally left intact
    }
    // Start the next event's cache misses — its slab slot and the first two
    // lines of its actor — so they overlap serving this one.
    for (const int next : queue_.prefetch_next()) {
      if (next < 0) continue;
      const auto* p = reinterpret_cast<const char*>(
          actors_[static_cast<std::size_t>(next - id_base_)].get());
      __builtin_prefetch(p);
      __builtin_prefetch(p + 64);
    }
    // The event is consumed in place: scalars are copied out, an arrival's
    // slot is detached from the schedule and linked into the inbox as it
    // is, and drop_top() recycles every other slot — the Event body itself
    // never moves. `e` is dead once its slot is released or the slab may
    // grow (anything that schedules — schedule_wake, service — can do
    // both), so each branch finishes with `e` before it emplaces.
    Event& e = queue_.top();
    now_ = queue_.peek_time();
    ++result.events;
    result.end_time = now_;
    // kTimeMax unless a metrics hub is attached (see run()).
    if (now_ >= metrics_next_) [[unlikely]] flush_metrics(result.events);
    const int dst = e.msg.dst;
    const Event::Kind kind = e.kind;
    Actor& a = *actors_[static_cast<std::size_t>(dst - id_base_)];
    // Crash and stall events are only ever queued from a fault plan, and
    // crashed_ is only ever set by one, so fault-free runs take none of the
    // [[unlikely]] branches below.
    switch (kind) {
      case Event::Kind::kArrival: {
        if (a.crashed_) [[unlikely]] {
          arrival_at_crashed(std::move(queue_.pop().msg));
          break;
        }
        e.msg.arrived_at = now_;
        e.next = kNoSlot;
        const std::uint32_t s = queue_.detach_top();
        if (a.inbox_tail_ == kNoSlot) {
          a.inbox_head_ = s;
        } else {
          queue_.slot(a.inbox_tail_).next = s;
        }
        a.inbox_tail_ = s;
        if (!a.wake_pending_) {
          schedule_wake(a, a.busy_until_ > now_ ? a.busy_until_ : now_);
        }
        break;
      }
      case Event::Kind::kWake:
        queue_.drop_top();
        a.wake_pending_ = false;
        if (a.crashed_) [[unlikely]] break;
        service(a, now_);
        break;
      case Event::Kind::kCrash:
        queue_.drop_top();
        apply_crash(dst);
        break;
      case Event::Kind::kStall: {
        const Time stall = e.msg.a;
        queue_.drop_top();
        apply_stall(dst, stall);
        break;
      }
    }
  }
  result.quiesced = true;
  return result;
}

// A message reaching a fail-stopped peer. Control messages vanish. A work
// transfer is bounced back to its sender once — modelling a sender that
// detects the failed delivery and keeps the data — so no work is lost and
// the sender's transfer counters re-balance. A bounce that itself lands on
// a crashed peer (sender died meanwhile) is destroyed and accounted.
void Engine::arrival_at_crashed(Message m) {
  const int victim = m.dst;
  if (m.payload != nullptr && !m.bounced && m.src >= 0 && is_local(m.src) &&
      !actors_[static_cast<std::size_t>(m.src - id_base_)]->crashed_) {
    ++tally_.work_bounced;
    const int sender = m.src;
    m.src = victim;
    m.dst = sender;
    m.bounced = true;
    push_arrival(std::move(m), now_ + network_.latency(victim, sender));
    return;
  }
  ++tally_.msgs_dropped;
  if (m.payload != nullptr) {
    tally_.work_lost_units += m.payload->amount();
    trace::emit(tracer_, now_, trace::EventKind::kMsgDrop, m.src, victim, m.type,
                static_cast<std::int64_t>(m.id), 2);
  } else {
    trace::emit(tracer_, now_, trace::EventKind::kMsgDrop, m.src, victim, m.type,
                static_cast<std::int64_t>(m.id), 1);
  }
}

void Engine::apply_crash(int peer) {
  Actor& a = *local(peer);
  if (a.crashed_) return;
  a.crashed_ = true;
  ++tally_.crashes;
  // Arrived-but-unserviced messages die with the peer; their payloads are
  // genuinely lost (the sender already considers them delivered).
  for (std::uint32_t s = a.inbox_head_; s != kNoSlot;) {
    Event& ev = queue_.slot(s);
    const std::uint32_t next = ev.next;
    if (ev.msg.payload != nullptr) {
      tally_.work_lost_units += ev.msg.payload->amount();
      ev.msg.payload.reset();
    }
    queue_.release(s);
    s = next;
  }
  a.inbox_head_ = kNoSlot;
  a.inbox_tail_ = kNoSlot;
  const double held = a.on_crashed();
  tally_.work_lost_units += held;
  trace::emit(tracer_, now_, trace::EventKind::kPeerCrash, peer, -1, 0,
              static_cast<std::int64_t>(held));
  // Failure detector: every survivor hears about it after detection_delay.
  const Time heard_at = now_ + injector_.plan().detection_delay;
  for (auto& other : actors_) {
    if (other->id_ == peer || other->crashed_) continue;
    Message n;
    n.type = kPeerDownMsgType;
    n.a = peer;
    n.src = peer;
    n.dst = other->id_;
    push_arrival(std::move(n), heard_at);
  }
}

void Engine::apply_stall(int peer, Time duration) {
  Actor& a = *local(peer);
  if (a.crashed_) return;
  const Time base = a.busy_until_ > now_ ? a.busy_until_ : now_;
  a.busy_until_ = base + duration;
  trace::emit(tracer_, now_, trace::EventKind::kPeerStall, peer, -1, 0, duration);
}

void Engine::set_metrics(metrics::MetricsHub* hub) {
  OLB_CHECK_MSG(!running_, "metrics must be attached before run()");
  metrics_hub_ = hub;
  if (hub == nullptr) return;
  metrics::Registry& r = hub->registry();
  em_.events = r.counter("olb_sim_events_total");
  em_.queue_len = r.gauge("olb_sim_queue_len");
  em_.dropped = r.counter("olb_sim_msgs_dropped_total");
  em_.duplicated = r.counter("olb_sim_msgs_duplicated_total");
  em_.spikes = r.counter("olb_sim_latency_spikes_total");
  em_.crashes = r.counter("olb_sim_crashes_total");
  em_.work_lost = r.gauge("olb_sim_work_lost_units");
}

void Engine::flush_metrics(std::uint64_t events_so_far) {
  em_.events->inc(events_so_far - m_last_events_);
  m_last_events_ = events_so_far;
  em_.queue_len->set(static_cast<std::int64_t>(queue_.size()));
  em_.dropped->inc(tally_.msgs_dropped - m_last_dropped_);
  m_last_dropped_ = tally_.msgs_dropped;
  em_.duplicated->inc(tally_.msgs_duplicated - m_last_duplicated_);
  m_last_duplicated_ = tally_.msgs_duplicated;
  em_.spikes->inc(tally_.latency_spikes - m_last_spikes_);
  m_last_spikes_ = tally_.latency_spikes;
  em_.crashes->inc(tally_.crashes - m_last_crashes_);
  m_last_crashes_ = tally_.crashes;
  em_.work_lost->set(static_cast<std::int64_t>(tally_.work_lost_units));
  for (auto& a : actors_) {
    if (!a->crashed_) a->on_metrics_poll();
  }
  metrics_hub_->flush(static_cast<std::uint64_t>(now_));
  metrics_next_ = now_ + metrics_hub_->interval_ns();
}

void Engine::schedule_startup() {
  // One-shot startup: the sharded coordinator re-enters run() once per
  // conservative window (thousands of times per simulation), and the
  // fault-plan events in particular must not be scheduled again — a resumed
  // run would otherwise replay every crash/stall. The coordinator also calls
  // this *before* its first window, since it needs next_event_time() to see
  // the start wakes when picking the window base.
  if (startup_scheduled_) return;
  startup_scheduled_ = true;
  // The start wakes go to the heap, not the zero-delay lane: all of a
  // shard's actors at once would grow that ring to the shard's size for
  // good, where it otherwise holds a handful of wakes.
  for (auto& a : actors_) {
    if (!a->started_ && !a->wake_pending_) {
      a->wake_pending_ = true;
      emplace_event(0, a->id_, Event::Kind::kWake);
    }
  }
  // Empty unless set_faults installed a plan.
  for (const CrashEvent& c : injector_.plan().crashes) {
    emplace_event(c.at, c.peer, Event::Kind::kCrash);
  }
  for (const StallEvent& s : injector_.plan().stalls) {
    emplace_event(s.at, s.peer, Event::Kind::kStall).msg.a = s.duration;
  }
}

Engine::RunResult Engine::run(Time time_limit, std::uint64_t event_limit) {
  running_ = true;
  schedule_startup();
  if (metrics_hub_ == nullptr) return run_loop(time_limit, event_limit);
  // Arm instruments once per run: get-or-create is idempotent, so resumed
  // runs (limit hit, then run() again) just re-fetch the same pointers.
  for (auto& a : actors_) a->on_metrics(metrics_hub_->registry());
  m_last_events_ = 0;  // result.events restarts per run(); deltas must too
  metrics_next_ = now_ + metrics_hub_->interval_ns();
  const RunResult result = run_loop(time_limit, event_limit);
  flush_metrics(result.events);  // final window, so short runs still export
  return result;
}

}  // namespace olb::sim
