#include "trace/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>

namespace olb::trace {

namespace {

/// Formats simulated nanoseconds as the microsecond ts/dur fields of the
/// Chrome trace format without going through floating point (keeps exports
/// bit-reproducible).
std::string micros(sim::Time t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, t / 1000,
                t % 1000 >= 0 ? t % 1000 : -(t % 1000));
  return buf;
}

const char* type_label(const PerfettoOptions& options, int type, char* buf,
                       std::size_t buf_size) {
  if (options.type_name != nullptr) {
    if (const char* name = options.type_name(type)) return name;
  }
  std::snprintf(buf, buf_size, "msg/%d", type);
  return buf;
}

}  // namespace

void write_ndjson(std::ostream& os, std::span<const TraceEvent> events) {
  char line[256];
  for (const TraceEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "{\"t\":%" PRId64 ",\"k\":\"%s\",\"actor\":%d,\"peer\":%d,"
                  "\"type\":%d,\"a\":%" PRId64 ",\"b\":%" PRId64 "}\n",
                  e.time, kind_name(e.kind), e.actor, e.peer, e.type, e.a, e.b);
    os << line;
  }
}

std::vector<TraceEvent> read_ndjson(std::istream& is) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    TraceEvent e;
    char kind[32] = {0};
    int consumed = 0;
    const int n = std::sscanf(
        line.c_str(),
        "{\"t\":%" SCNd64 ",\"k\":\"%31[^\"]\",\"actor\":%d,\"peer\":%d,"
        "\"type\":%d,\"a\":%" SCNd64 ",\"b\":%" SCNd64 "}%n",
        &e.time, kind, &e.actor, &e.peer, &e.type, &e.a, &e.b, &consumed);
    OLB_CHECK_MSG(n == 7 && consumed == static_cast<int>(line.size()),
                  "malformed NDJSON trace line");
    bool known = false;
    for (int k = 0; k <= static_cast<int>(EventKind::kMemberLeave); ++k) {
      const auto candidate = static_cast<EventKind>(k);
      if (std::string_view(kind) == kind_name(candidate)) {
        e.kind = candidate;
        known = true;
        break;
      }
    }
    OLB_CHECK_MSG(known, "unknown event kind in NDJSON trace");
    events.push_back(e);
  }
  return events;
}

void write_perfetto(std::ostream& os, std::span<const TraceEvent> events,
                    const PerfettoOptions& options) {
  char buf[512];
  char name_buf[32];
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto put = [&](const char* s) {
    if (!first) os << ",\n";
    first = false;
    os << s;
  };

  // One named track per peer.
  int tracks = options.num_actors;
  if (tracks == 0) {
    for (const TraceEvent& e : events) tracks = std::max(tracks, e.actor + 1);
  }
  for (int i = 0; i < tracks; ++i) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"peer %d\"}}",
                  i, i);
    put(buf);
  }

  auto instant = [&](const TraceEvent& e, const char* name) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%s,"
                  "\"name\":\"%s\",\"cat\":\"protocol\","
                  "\"args\":{\"peer\":%d,\"a\":%" PRId64 ",\"b\":%" PRId64 "}}",
                  e.actor, micros(e.time).c_str(), name, e.peer, e.a, e.b);
    put(buf);
  };
  auto counter = [&](sim::Time t, const char* name, double v) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"C\",\"pid\":0,\"ts\":%s,\"name\":\"%s\","
                  "\"args\":{\"value\":%.0f}}",
                  micros(t).c_str(), name, v);
    put(buf);
  };

  // Counter state threaded through the single pass below.
  double in_flight = 0, idle = 0, pending = 0;
  std::vector<std::int64_t> last_depth;  // per-actor pending depth

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kComputeSpan:
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,"
                      "\"name\":\"compute\",\"cat\":\"compute\","
                      "\"args\":{\"units\":%" PRId64 "}}",
                      e.actor, micros(e.time).c_str(), micros(e.a).c_str(), e.b);
        put(buf);
        break;
      case EventKind::kMsgDeliver: {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,"
                      "\"name\":\"%s\",\"cat\":\"msg\","
                      "\"args\":{\"from\":%d,\"inbox_wait_ns\":%" PRId64 "}}",
                      e.actor, micros(e.time).c_str(),
                      micros(options.handling_cost).c_str(),
                      type_label(options, e.type, name_buf, sizeof(name_buf)),
                      e.peer, e.b);
        put(buf);
        if (e.type == options.work_msg_type) {
          std::snprintf(buf, sizeof(buf),
                        "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":%d,\"ts\":%s,"
                        "\"id\":%" PRId64 ",\"name\":\"work\",\"cat\":\"flow\"}",
                        e.actor, micros(e.time).c_str(), e.a);
          put(buf);
          counter(e.time, "work in flight", --in_flight);
        }
        break;
      }
      case EventKind::kMsgSend:
        if (e.type == options.work_msg_type) {
          std::snprintf(buf, sizeof(buf),
                        "{\"ph\":\"s\",\"pid\":0,\"tid\":%d,\"ts\":%s,"
                        "\"id\":%" PRId64 ",\"name\":\"work\",\"cat\":\"flow\"}",
                        e.actor, micros(e.time).c_str(), e.a);
          put(buf);
          counter(e.time, "work in flight", ++in_flight);
        }
        break;
      case EventKind::kIdleBegin:
        instant(e, "idle_begin");
        counter(e.time, "idle peers", ++idle);
        break;
      case EventKind::kIdleEnd:
        instant(e, "idle_end");
        counter(e.time, "idle peers", --idle);
        break;
      case EventKind::kQueueDepth: {
        const auto idx = static_cast<std::size_t>(e.actor);
        if (last_depth.size() <= idx) last_depth.resize(idx + 1, 0);
        pending += static_cast<double>(e.a - last_depth[idx]);
        last_depth[idx] = e.a;
        counter(e.time, "pending requests", pending);
        break;
      }
      case EventKind::kRequest:
        instant(e, type_label(options, e.type, name_buf, sizeof(name_buf)));
        break;
      case EventKind::kServe:
        instant(e, "serve");
        break;
      case EventKind::kProbeWave:
        instant(e, e.type == 0 ? "probe_launch"
                               : (e.type == 1 ? "probe_clean" : "probe_dirty"));
        break;
      case EventKind::kTerminated:
        instant(e, "terminated");
        break;
      case EventKind::kMsgDrop:
        instant(e, e.b == 0 ? "msg_drop" : "msg_drop_crashed");
        if (e.type == options.work_msg_type) {
          counter(e.time, "work in flight", --in_flight);
        }
        break;
      case EventKind::kMsgDup:
        instant(e, "msg_dup");
        break;
      case EventKind::kPeerCrash:
        instant(e, "peer_crash");
        break;
      case EventKind::kPeerStall:
        instant(e, "peer_stall");
        break;
      case EventKind::kReparent:
        instant(e, "reparent");
        break;
      case EventKind::kRetry:
        instant(e, "retry");
        break;
      case EventKind::kMemberJoin:
        instant(e, "member_join");
        break;
      case EventKind::kMemberLeave:
        instant(e, "member_leave");
        break;
      case EventKind::kSplitClamp:
        instant(e, "split_clamp");
        break;
      case EventKind::kTimerSet:
      case EventKind::kTimerFire:
      case EventKind::kActorIdle:
      case EventKind::kNoServe:
      case EventKind::kJobSubmit:
      case EventKind::kJobAdmit:
      case EventKind::kJobReject:
      case EventKind::kJobXfer:
      case EventKind::kJobMerge:
      case EventKind::kJobChunk:
      case EventKind::kJobDone:
        break;  // kept off the visual timeline; present in NDJSON
    }
  }
  os << "\n]}\n";
}

Timeline derive_timeline(std::span<const TraceEvent> events, sim::Time bucket,
                         int work_msg_type) {
  OLB_CHECK(bucket > 0);
  Timeline out;

  struct Series {
    double cur = 0;
    std::size_t filled = 0;
    std::vector<double>* dst = nullptr;
    // Record `cur` as the sample for every bucket that ended before `k`.
    void advance_to(std::size_t k) {
      while (filled < k) {
        dst->push_back(cur);
        ++filled;
      }
    }
  };
  Series in_flight{0, 0, &out.work_in_flight};
  Series idle{0, 0, &out.idle_peers};
  Series pending{0, 0, &out.pending_depth};
  std::vector<std::int64_t> last_depth;

  std::size_t last_bucket = 0;
  for (const TraceEvent& e : events) {
    // Events are near-sorted (compute spans are stamped at their start, which
    // can trail the emission point); never step backwards.
    const auto k = std::max(static_cast<std::size_t>(e.time / bucket), last_bucket);
    last_bucket = k;
    in_flight.advance_to(k);
    idle.advance_to(k);
    pending.advance_to(k);
    switch (e.kind) {
      case EventKind::kMsgSend:
        if (e.type == work_msg_type) in_flight.cur += 1;
        break;
      case EventKind::kMsgDeliver:
        if (e.type == work_msg_type) in_flight.cur -= 1;
        break;
      case EventKind::kMsgDrop:
        if (e.type == work_msg_type) in_flight.cur -= 1;
        break;
      case EventKind::kIdleBegin:
        idle.cur += 1;
        break;
      case EventKind::kIdleEnd:
        idle.cur -= 1;
        break;
      case EventKind::kQueueDepth: {
        const auto idx = static_cast<std::size_t>(e.actor);
        if (last_depth.size() <= idx) last_depth.resize(idx + 1, 0);
        pending.cur += static_cast<double>(e.a - last_depth[idx]);
        last_depth[idx] = e.a;
        break;
      }
      default:
        break;
    }
  }
  in_flight.advance_to(last_bucket + 1);
  idle.advance_to(last_bucket + 1);
  pending.advance_to(last_bucket + 1);
  return out;
}

}  // namespace olb::trace
