#include "runtime/work_codec.hpp"

#include <algorithm>
#include <utility>

#include "bb/bb_work.hpp"
#include "lb/messages.hpp"
#include "lb/work.hpp"
#include "support/check.hpp"
#include "uts/uts_work.hpp"

namespace olb::runtime {
namespace {

// Payload discriminator byte of a kMsg body.
enum PayloadKind : std::uint8_t {
  kPayloadNone = 0,
  kPayloadProbe = 1,
  kPayloadWork = 2,
  kPayloadLeave = 3,
  kPayloadJob = 4,       ///< kJobInject: tagged root work of a fresh job
  kPayloadJobProbe = 5,  ///< kJobProbe/kJobProbeAck: per-job stat vectors
};

/// The one payload kind each message type carries; a frame that pairs a
/// type with any other kind is malformed.
PayloadKind payload_kind_of(int type) {
  switch (type) {
    case lb::kWork: return kPayloadWork;
    case lb::kProbe:
    case lb::kProbeAck: return kPayloadProbe;
    case lb::kLeave: return kPayloadLeave;
    case lb::kJobInject: return kPayloadJob;
    case lb::kJobProbe:
    case lb::kJobProbeAck: return kPayloadJobProbe;
    default: return kPayloadNone;
  }
}

/// UTS work = nodes-counted tally + the frontier of pending (state, depth)
/// entries, each node as 20 generator-state bytes and its depth. A
/// fast-hash state fills the first 8 bytes and leaves the rest zero, so a
/// node with nonzero bytes 8-19 or a negative depth is malformed. The tally
/// travels with the work so merge-side accounting matches the in-process
/// transfer exactly.
class UtsWorkCodec final : public WorkCodec {
 public:
  UtsWorkCodec(uts::Params params, uts::CostModel costs)
      : params_(params), costs_(costs) {}

  void encode_work(const lb::Work& work, WireWriter& w) const override {
    const auto* uw = dynamic_cast<const uts::UtsWork*>(&work);
    OLB_CHECK_MSG(uw != nullptr, "UTS codec given a non-UTS work");
    w.u64(uw->nodes_counted());
    w.u32(static_cast<std::uint32_t>(uw->pending_count()));
    uw->visit_pending([&](const uts::NodeState& state, int depth) {
      w.bytes(state.bytes.data(), state.bytes.size());
      w.i32(depth);
    });
  }

  std::unique_ptr<lb::Work> decode_work(WireReader& r) const override {
    auto work = std::make_unique<uts::UtsWork>(params_, costs_);
    work->add_nodes_counted(r.u64());
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      uts::NodeState state;
      if (!r.read_bytes(state.bytes.data(), state.bytes.size())) break;
      const std::int32_t depth = r.i32();
      if (depth < 0 || std::any_of(state.bytes.begin() + 8, state.bytes.end(),
                                   [](std::uint8_t b) { return b != 0; })) {
        r.fail();
        break;
      }
      work->push_pending(state, depth);
    }
    if (!r.ok()) return nullptr;
    return work;
  }

 private:
  uts::Params params_;
  uts::CostModel costs_;
};

/// B&B work = the sender's incumbent bound + the pool of remaining
/// [position, end) leaf-rank intervals. Decoded works are created through
/// the *receiver's* workload so they share its incumbent recorder.
class BBWorkCodec final : public WorkCodec {
 public:
  explicit BBWorkCodec(bb::BBWorkload& workload) : workload_(workload) {}

  void encode_work(const lb::Work& work, WireWriter& w) const override {
    const auto* bw = dynamic_cast<const bb::BBWork*>(&work);
    OLB_CHECK_MSG(bw != nullptr, "B&B codec given a non-B&B work");
    w.i64(bw->local_bound());
    w.u32(static_cast<std::uint32_t>(bw->pool_size()));
    bw->visit_intervals([&](std::uint64_t begin, std::uint64_t end) {
      w.u64(begin);
      w.u64(end);
    });
  }

  std::unique_ptr<lb::Work> decode_work(WireReader& r) const override {
    const std::int64_t bound = r.i64();
    const std::uint32_t n = r.u32();
    auto work = workload_.make_interval_work(0, 0);
    auto* bw = dynamic_cast<bb::BBWork*>(work.get());
    OLB_CHECK(bw != nullptr);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::uint64_t begin = r.u64();
      const std::uint64_t end = r.u64();
      if (begin > end) {
        r.fail();
        break;
      }
      if (begin < end) bw->push_interval(begin, end);
    }
    if (!r.ok()) return nullptr;
    if (bound != lb::kNoBound) bw->observe_bound(bound);
    return work;
  }

  void encode_solution(WireWriter& w) const override {
    const bb::BestSolution& best = workload_.best();
    const std::int64_t makespan = best.makespan();
    w.i64(makespan);
    if (makespan == lb::kNoBound) {
      w.u32(0);
      return;
    }
    const std::vector<int> perm = best.permutation();
    w.u32(static_cast<std::uint32_t>(perm.size()));
    for (int job : perm) w.i32(job);
  }

  bool merge_solution(WireReader& r) override {
    const std::int64_t makespan = r.i64();
    const std::uint32_t n = r.u32();
    std::vector<int> perm;
    perm.reserve(n);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) perm.push_back(r.i32());
    if (!r.ok()) return false;
    if (makespan != lb::kNoBound) workload_.best().offer(makespan, std::move(perm));
    return true;
  }

 private:
  bb::BBWorkload& workload_;
};

}  // namespace

std::unique_ptr<WorkCodec> make_work_codec(lb::Workload& workload) {
  if (auto* uts_wl = dynamic_cast<uts::UtsWorkload*>(&workload)) {
    return std::make_unique<UtsWorkCodec>(uts_wl->params(), uts_wl->costs());
  }
  if (auto* bb_wl = dynamic_cast<bb::BBWorkload*>(&workload)) {
    return std::make_unique<BBWorkCodec>(*bb_wl);
  }
  OLB_CHECK_MSG(false, "no wire codec for this workload type");
  return nullptr;
}

void encode_message(const sim::Message& m, const WorkCodec* codec, WireWriter& w) {
  w.i32(m.type);
  w.u32(static_cast<std::uint32_t>(m.id) |
        (static_cast<std::uint32_t>(m.bounced) << 31));
  w.i32(m.src);
  w.i32(m.dst);
  w.i64(m.a);
  w.i64(m.b);
  w.i64(m.c);
  if (m.payload == nullptr) {
    w.u8(kPayloadNone);
    return;
  }
  if (const auto* probe = dynamic_cast<const lb::ProbePayload*>(m.payload.get())) {
    w.u8(kPayloadProbe);
    w.u64(probe->probe_id);
    w.u64(probe->sent);
    w.u64(probe->recv);
    w.u8(probe->dirty ? 1 : 0);
    w.i32(probe->crash_epoch);
    w.u64(probe->member_events);
    return;
  }
  if (const auto* leave = dynamic_cast<const lb::LeavePayload*>(m.payload.get())) {
    w.u8(kPayloadLeave);
    w.u32(static_cast<std::uint32_t>(leave->children.size()));
    for (const auto& cl : leave->children) {
      w.i32(cl.peer);
      w.u64(cl.size);
      w.u8(cl.pending ? 1 : 0);
      w.u64(cl.agg_sent);
      w.u64(cl.agg_recv);
    }
    w.u32(static_cast<std::uint32_t>(leave->phantoms.size()));
    for (const auto& ph : leave->phantoms) {
      w.i32(ph.peer);
      w.u64(ph.sent);
      w.u64(ph.recv);
    }
    w.u64(leave->sent);
    w.u64(leave->recv);
    return;
  }
  if (const auto* wp = dynamic_cast<const lb::WorkPayload*>(m.payload.get())) {
    OLB_CHECK_MSG(codec != nullptr, "work payload needs a workload codec");
    OLB_CHECK_MSG(wp->work != nullptr, "work payload without work");
    w.u8(kPayloadWork);
    WireWriter body;
    codec->encode_work(*wp->work, body);
    w.blob(body.data());
    return;
  }
  if (const auto* jp = dynamic_cast<const lb::JobPayload*>(m.payload.get())) {
    OLB_CHECK_MSG(codec != nullptr, "job payload needs a workload codec");
    OLB_CHECK_MSG(jp->work != nullptr, "job payload without work");
    w.u8(kPayloadJob);
    w.u64(jp->job);
    w.i32(jp->job_class);
    WireWriter body;
    codec->encode_work(*jp->work, body);
    w.blob(body.data());
    return;
  }
  if (const auto* jpp =
          dynamic_cast<const lb::JobProbePayload*>(m.payload.get())) {
    w.u8(kPayloadJobProbe);
    w.u64(jpp->probe_id);
    w.u32(static_cast<std::uint32_t>(jpp->stats.size()));
    for (const lb::JobStat& st : jpp->stats) {
      w.u64(st.job);
      w.u64(st.sent);
      w.u64(st.recv);
      w.i64(st.holds_milli);
    }
    return;
  }
  OLB_CHECK_MSG(false, "unknown payload type on the wire");
}

bool decode_message(WireReader& r, const WorkCodec* codec, sim::Message* msg) {
  sim::Message m;
  m.type = r.i32();
  const std::uint32_t packed = r.u32();
  m.id = packed & 0x7fffffffu;
  m.bounced = packed >> 31;
  m.src = r.i32();
  m.dst = r.i32();
  m.a = r.i64();
  m.b = r.i64();
  m.c = r.i64();
  const std::uint8_t kind = r.u8();
  if (kind != payload_kind_of(m.type)) return false;
  switch (kind) {
    case kPayloadNone:
      break;
    case kPayloadProbe: {
      auto probe = std::make_unique<lb::ProbePayload>();
      probe->probe_id = r.u64();
      probe->sent = r.u64();
      probe->recv = r.u64();
      probe->dirty = r.u8() != 0;
      probe->crash_epoch = r.i32();
      probe->member_events = r.u64();
      m.payload = std::move(probe);
      break;
    }
    case kPayloadLeave: {
      auto leave = std::make_unique<lb::LeavePayload>();
      const std::uint32_t nc = r.u32();
      for (std::uint32_t i = 0; i < nc && r.ok(); ++i) {
        lb::LeavePayload::ChildLink cl;
        cl.peer = r.i32();
        cl.size = r.u64();
        cl.pending = r.u8() != 0;
        cl.agg_sent = r.u64();
        cl.agg_recv = r.u64();
        leave->children.push_back(cl);
      }
      const std::uint32_t np = r.u32();
      for (std::uint32_t i = 0; i < np && r.ok(); ++i) {
        lb::LeavePayload::PhantomLink ph;
        ph.peer = r.i32();
        ph.sent = r.u64();
        ph.recv = r.u64();
        leave->phantoms.push_back(ph);
      }
      leave->sent = r.u64();
      leave->recv = r.u64();
      m.payload = std::move(leave);
      break;
    }
    case kPayloadWork: {
      if (codec == nullptr) return false;
      const std::vector<std::uint8_t> body = r.blob();
      if (!r.ok()) return false;
      WireReader body_reader(body);
      std::unique_ptr<lb::Work> work = codec->decode_work(body_reader);
      if (work == nullptr || !body_reader.exhausted()) return false;
      m.payload = std::make_unique<lb::WorkPayload>(std::move(work));
      break;
    }
    case kPayloadJob: {
      if (codec == nullptr) return false;
      auto job = std::make_unique<lb::JobPayload>();
      job->job = r.u64();
      job->job_class = r.i32();
      const std::vector<std::uint8_t> body = r.blob();
      if (!r.ok()) return false;
      WireReader body_reader(body);
      job->work = codec->decode_work(body_reader);
      if (job->work == nullptr || !body_reader.exhausted()) return false;
      m.payload = std::move(job);
      break;
    }
    case kPayloadJobProbe: {
      auto probe = std::make_unique<lb::JobProbePayload>();
      probe->probe_id = r.u64();
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        lb::JobStat st;
        st.job = r.u64();
        st.sent = r.u64();
        st.recv = r.u64();
        st.holds_milli = r.i64();
        probe->stats.push_back(st);
      }
      m.payload = std::move(probe);
      break;
    }
    default:
      return false;
  }
  if (!r.ok()) return false;
  *msg = std::move(m);
  return true;
}

}  // namespace olb::runtime
