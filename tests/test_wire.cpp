// Property tests for the socket backend's wire codec (src/runtime/wire,
// work_codec): every message type round-trips bit-exactly — including
// extreme field values and the packed reliable and bounced bits, and the
// fields a kProbeAck packs its reading into — and truncated or
// garbage frames are rejected, never misparsed.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bb/bb_work.hpp"
#include "lb/messages.hpp"
#include "lb/work.hpp"
#include "runtime/wire.hpp"
#include "runtime/work_codec.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// ------------------------------------------------------------- primitives ---

TEST(Wire, PrimitivesRoundTrip) {
  runtime::WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-1);
  w.i64(kI64Min);
  w.f64(-0.1875);
  w.str("host:1234");
  w.blob(std::vector<std::uint8_t>{1, 2, 3});

  runtime::WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -1);
  EXPECT_EQ(r.i64(), kI64Min);
  EXPECT_EQ(r.f64(), -0.1875);
  EXPECT_EQ(r.str(), "host:1234");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, LittleEndianLayoutIsFixed) {
  runtime::WireWriter w;
  w.u32(0x11223344u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x44);
  EXPECT_EQ(w.data()[1], 0x33);
  EXPECT_EQ(w.data()[2], 0x22);
  EXPECT_EQ(w.data()[3], 0x11);
}

TEST(Wire, ReaderOverrunIsStickyAndZero) {
  runtime::WireWriter w;
  w.u16(7);
  runtime::WireReader r(w.data());
  EXPECT_EQ(r.u64(), 0u);  // 2 bytes available, 8 requested
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // poisoned: everything reads zero now
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.exhausted());
}

TEST(Wire, BlobLengthBeyondDataFails) {
  runtime::WireWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  runtime::WireReader r(w.data());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
}

// ----------------------------------------------------------- frame header ---

TEST(Wire, FrameHeaderRoundTrip) {
  runtime::WireWriter body;
  body.u64(42);
  const auto frame = runtime::make_frame(runtime::FrameType::kMsg, body);
  ASSERT_EQ(frame.size(), runtime::kFrameHeaderSize + 8);

  runtime::FrameType type;
  std::uint32_t body_len = 0;
  EXPECT_EQ(runtime::parse_frame_header(frame.data(), frame.size(), &type,
                                        &body_len),
            runtime::ParseStatus::kOk);
  EXPECT_EQ(type, runtime::FrameType::kMsg);
  EXPECT_EQ(body_len, 8u);
}

TEST(Wire, ShortHeaderNeedsMore) {
  const auto frame =
      runtime::make_frame(runtime::FrameType::kStart, runtime::WireWriter{});
  runtime::FrameType type;
  std::uint32_t body_len = 0;
  for (std::size_t len = 0; len < runtime::kFrameHeaderSize; ++len) {
    EXPECT_EQ(runtime::parse_frame_header(frame.data(), len, &type, &body_len),
              runtime::ParseStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(Wire, GarbageHeadersAreBad) {
  runtime::WireWriter body;
  body.u32(1);
  auto frame = runtime::make_frame(runtime::FrameType::kHello, body);
  runtime::FrameType type;
  std::uint32_t body_len = 0;

  auto corrupted = frame;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_EQ(runtime::parse_frame_header(corrupted.data(), corrupted.size(),
                                        &type, &body_len),
            runtime::ParseStatus::kBad);

  corrupted = frame;
  corrupted[4] ^= 0xFF;  // version
  EXPECT_EQ(runtime::parse_frame_header(corrupted.data(), corrupted.size(),
                                        &type, &body_len),
            runtime::ParseStatus::kBad);

  corrupted = frame;
  corrupted[6] = 0;  // frame type below the valid range
  EXPECT_EQ(runtime::parse_frame_header(corrupted.data(), corrupted.size(),
                                        &type, &body_len),
            runtime::ParseStatus::kBad);

  corrupted = frame;
  corrupted[6] = 99;  // frame type above the valid range
  EXPECT_EQ(runtime::parse_frame_header(corrupted.data(), corrupted.size(),
                                        &type, &body_len),
            runtime::ParseStatus::kBad);

  corrupted = frame;
  corrupted[11] = 0xFF;  // body length far beyond kMaxFrameBody
  EXPECT_EQ(runtime::parse_frame_header(corrupted.data(), corrupted.size(),
                                        &type, &body_len),
            runtime::ParseStatus::kBad);
}

// --------------------------------------------------------- message bodies ---

std::unique_ptr<uts::UtsWorkload> test_uts() {
  uts::Params p;
  p.b0 = 50;
  p.q = 0.4;
  p.root_seed = 7;
  return std::make_unique<uts::UtsWorkload>(p, uts::CostModel{});
}

std::unique_ptr<bb::BBWorkload> test_bb() {
  return std::make_unique<bb::BBWorkload>(
      bb::FlowshopInstance::ta20x20_scaled(0, 7, 5), bb::BoundKind::kOneMachine,
      bb::CostModel{});
}

void expect_messages_equal(const sim::Message& in, const sim::Message& out) {
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.reliable, in.reliable);
  EXPECT_EQ(out.bounced, in.bounced);
  EXPECT_EQ(out.src, in.src);
  EXPECT_EQ(out.dst, in.dst);
  EXPECT_EQ(out.a, in.a);
  EXPECT_EQ(out.b, in.b);
  EXPECT_EQ(out.c, in.c);
}

TEST(WorkCodec, EveryMessageTypeRoundTripsWithExtremeFields) {
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  // The socket vocabulary: every type but the service ones, which follow it.
  for (int type = 0; type < lb::kJobInject; ++type) {
    sim::Message m(type);
    m.id = sim::kMsgIdMask;  // full 30-bit id next to the packed flag bits
    m.reliable = 1;
    m.bounced = 1;
    m.src = 0;
    m.dst = std::numeric_limits<std::int32_t>::max();
    m.a = kI64Min;
    m.b = kI64Max;
    m.c = -1;
    if (type == lb::kWork) {
      auto root = workload->make_root_work();
      m.payload = std::make_unique<lb::WorkPayload>(std::move(root));
    } else if (type == lb::kLeave) {
      auto leave = std::make_unique<lb::LeavePayload>();
      leave->sent = kU64Max;
      m.payload = std::move(leave);
    }

    runtime::WireWriter w;
    runtime::encode_message(m, codec.get(), w);
    runtime::WireReader r(w.data());
    sim::Message out;
    ASSERT_TRUE(runtime::decode_message(r, codec.get(), &out))
        << lb::msg_type_name(type);
    EXPECT_TRUE(r.exhausted());
    expect_messages_equal(m, out);

    if (type == lb::kWork) {
      const auto* wp = dynamic_cast<const lb::WorkPayload*>(out.payload.get());
      ASSERT_NE(wp, nullptr);
      ASSERT_NE(wp->work, nullptr);
      EXPECT_EQ(wp->work->amount(), 1.0);  // the root as one pending node
    } else if (type == lb::kLeave) {
      const auto* lp = dynamic_cast<const lb::LeavePayload*>(out.payload.get());
      ASSERT_NE(lp, nullptr);
      EXPECT_EQ(lp->sent, kU64Max);
    } else {
      EXPECT_EQ(out.payload, nullptr);
    }
  }
}

TEST(WorkCodec, PayloadMismatchedToItsTypeIsRejected) {
  // Each type carries exactly one payload kind. Probe waves carry their
  // reading in b and c, so a kProbe or kProbeAck frame with a payload byte
  // is malformed, like a kWork frame with a leave handover. Service mode
  // never runs on sockets, so a frame of any service type is rejected
  // whatever it carries.
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  std::vector<sim::Message> rows;
  rows.emplace_back(lb::kProbe).payload = std::make_unique<lb::LeavePayload>();
  rows.emplace_back(lb::kProbeAck).payload =
      std::make_unique<lb::WorkPayload>(workload->make_root_work());
  rows.emplace_back(lb::kWork).payload = std::make_unique<lb::LeavePayload>();
  rows.emplace_back(lb::kNoWork).payload = std::make_unique<lb::LeavePayload>();
  for (int type = lb::kJobInject; type <= lb::kSvcShutdown; ++type) {
    rows.emplace_back(type);
  }
  for (const sim::Message& m : rows) {
    runtime::WireWriter w;
    runtime::encode_message(m, codec.get(), w);
    runtime::WireReader r(w.data());
    sim::Message out;
    EXPECT_FALSE(runtime::decode_message(r, codec.get(), &out))
        << lb::msg_type_name(m.type);
  }
}

// ---------------------------------------------------- probe-ack packing ---

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr int kEpochMax = (1 << lb::kProbeAckEpochBits) - 1;
constexpr std::uint64_t kMemberMax = (std::uint64_t{1} << lb::kProbeAckMemberBits) - 1;

TEST(ProbeAckPacking, EveryFieldRoundTripsAtItsLimitThroughTheCodec) {
  // Each row sets one field to its limit and the others to small values
  // (the last row sets them all), so a field that spills into its
  // neighbour shows up as a wrong neighbour.
  struct Row {
    std::uint64_t wave;
    bool dirty;
    lb::CounterReading reading;
  };
  const std::vector<Row> rows = {
      {kU32Max, false, {1, 2, 3, 4}},
      {5, true, {1, 2, 3, 4}},
      {5, false, {kU32Max, 2, 3, 4}},
      {5, false, {1, kU32Max, 3, 4}},
      {5, false, {1, 2, kEpochMax, 4}},
      {5, false, {1, 2, 3, kMemberMax}},
      {0, false, {0, 0, 0, 0}},
      {kU32Max, true, {kU32Max, kU32Max, kEpochMax, kMemberMax}},
  };
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    sim::Message m(lb::kProbeAck, /*a=*/kI64Min,
                   lb::pack_probe_ack_b(row.wave, row.dirty, row.reading),
                   lb::pack_probe_ack_c(row.reading));
    m.reliable = 1;
    runtime::WireWriter w;
    runtime::encode_message(m, codec.get(), w);
    runtime::WireReader r(w.data());
    sim::Message out;
    ASSERT_TRUE(runtime::decode_message(r, codec.get(), &out)) << "row " << i;
    expect_messages_equal(m, out);
    EXPECT_EQ(out.reliable, 1u) << "row " << i;
    EXPECT_EQ(out.payload, nullptr) << "row " << i;
    EXPECT_EQ(lb::probe_ack_wave(out.b), row.wave) << "row " << i;
    EXPECT_EQ(lb::probe_ack_dirty(out.b), row.dirty) << "row " << i;
    EXPECT_EQ(lb::probe_ack_reading(out.b, out.c), row.reading) << "row " << i;
  }
}

TEST(ProbeAckPackingDeathTest, OnePastEachLimitAborts) {
  const lb::CounterReading ok{1, 2, 3, 4};
  EXPECT_DEATH(lb::pack_probe_ack_b(kU32Max + 1, false, ok), "wave id");
  EXPECT_DEATH(lb::pack_probe_ack_b(5, false, {1, 2, kEpochMax + 1, 4}),
               "crash epoch");
  EXPECT_DEATH(lb::pack_probe_ack_b(5, false, {1, 2, -1, 4}), "crash epoch");
  EXPECT_DEATH(lb::pack_probe_ack_b(5, false, {1, 2, 3, kMemberMax + 1}),
               "membership events");
  EXPECT_DEATH(lb::pack_probe_ack_c({kU32Max + 1, 2, 3, 4}), "transfer counter");
  EXPECT_DEATH(lb::pack_probe_ack_c({1, kU32Max + 1, 3, 4}), "transfer counter");
}

TEST(WorkCodec, LeaveHandoverRoundTripsChildrenPhantomsAndCounters) {
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  sim::Message m(lb::kLeave);
  m.id = 41;
  m.src = 5;
  m.dst = 2;
  auto leave = std::make_unique<lb::LeavePayload>();
  leave->children.push_back({/*peer=*/9, /*size=*/kU64Max, /*pending=*/true,
                             /*agg_sent=*/3, /*agg_recv=*/kU64Max - 7});
  leave->children.push_back({11, 1, false, 0, 0});
  leave->phantoms.push_back({/*peer=*/4, /*sent=*/17, /*recv=*/17});
  leave->sent = kU64Max;
  leave->recv = 12345;
  m.payload = std::move(leave);

  runtime::WireWriter w;
  runtime::encode_message(m, codec.get(), w);
  runtime::WireReader r(w.data());
  sim::Message out;
  ASSERT_TRUE(runtime::decode_message(r, codec.get(), &out));
  EXPECT_TRUE(r.exhausted());
  expect_messages_equal(m, out);

  const auto* lp = dynamic_cast<const lb::LeavePayload*>(out.payload.get());
  ASSERT_NE(lp, nullptr);
  ASSERT_EQ(lp->children.size(), 2u);
  EXPECT_EQ(lp->children[0].peer, 9);
  EXPECT_EQ(lp->children[0].size, kU64Max);
  EXPECT_TRUE(lp->children[0].pending);
  EXPECT_EQ(lp->children[0].agg_sent, 3u);
  EXPECT_EQ(lp->children[0].agg_recv, kU64Max - 7);
  EXPECT_EQ(lp->children[1].peer, 11);
  EXPECT_FALSE(lp->children[1].pending);
  ASSERT_EQ(lp->phantoms.size(), 1u);
  EXPECT_EQ(lp->phantoms[0].peer, 4);
  EXPECT_EQ(lp->phantoms[0].sent, 17u);
  EXPECT_EQ(lp->phantoms[0].recv, 17u);
  EXPECT_EQ(lp->sent, kU64Max);
  EXPECT_EQ(lp->recv, 12345u);

  // An empty handover (leaf leaver, nothing kept) round-trips too.
  sim::Message leaf(lb::kLeave);
  leaf.payload = std::make_unique<lb::LeavePayload>();
  runtime::WireWriter w2;
  runtime::encode_message(leaf, codec.get(), w2);
  runtime::WireReader r2(w2.data());
  sim::Message out2;
  ASSERT_TRUE(runtime::decode_message(r2, codec.get(), &out2));
  const auto* lp2 = dynamic_cast<const lb::LeavePayload*>(out2.payload.get());
  ASSERT_NE(lp2, nullptr);
  EXPECT_TRUE(lp2->children.empty());
  EXPECT_TRUE(lp2->phantoms.empty());
}

TEST(WorkCodec, TruncatedLeaveHandoverIsRejected) {
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  sim::Message m(lb::kLeave);
  auto leave = std::make_unique<lb::LeavePayload>();
  leave->children.push_back({3, 5, true, 1, 2});
  leave->phantoms.push_back({8, 4, 4});
  leave->sent = 10;
  leave->recv = 9;
  m.payload = std::move(leave);
  runtime::WireWriter w;
  runtime::encode_message(m, codec.get(), w);
  const auto& full = w.data();
  for (std::size_t len = 0; len < full.size(); ++len) {
    runtime::WireReader r(full.data(), len);
    sim::Message out;
    EXPECT_FALSE(runtime::decode_message(r, codec.get(), &out))
        << "prefix " << len;
  }
}

TEST(WorkCodec, UtsWorkSurvivesTheWireMidExploration) {
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  auto root = workload->make_root_work();
  root->step(10);  // a real frontier, not just the root
  auto* uts_in = dynamic_cast<uts::UtsWork*>(root.get());
  ASSERT_NE(uts_in, nullptr);
  ASSERT_GT(uts_in->pending_count(), 1u);

  runtime::WireWriter w;
  codec->encode_work(*root, w);
  runtime::WireReader r(w.data());
  const auto decoded = codec->decode_work(r);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(r.exhausted());

  auto* uts_out = dynamic_cast<uts::UtsWork*>(decoded.get());
  ASSERT_NE(uts_out, nullptr);
  EXPECT_EQ(uts_out->pending_count(), uts_in->pending_count());
  EXPECT_EQ(uts_out->nodes_counted(), uts_in->nodes_counted());

  // Exploring the decoded copy visits exactly the nodes the original would:
  // the node count of the subtree is a schedule-independent invariant.
  std::uint64_t units_in = 0;
  std::uint64_t units_out = 0;
  while (!uts_in->empty()) units_in += uts_in->step(1000).units_done;
  while (!uts_out->empty()) units_out += uts_out->step(1000).units_done;
  EXPECT_EQ(units_in, units_out);
}

TEST(WorkCodec, BBWorkCarriesPoolAndBound) {
  auto workload = test_bb();
  const auto codec = runtime::make_work_codec(*workload);
  auto work = workload->make_interval_work(0, 0);
  auto* bb_in = dynamic_cast<bb::BBWork*>(work.get());
  ASSERT_NE(bb_in, nullptr);
  bb_in->push_interval(10, 500);
  bb_in->push_interval(1000, 1001);
  bb_in->observe_bound(12345);

  runtime::WireWriter w;
  codec->encode_work(*work, w);
  runtime::WireReader r(w.data());
  const auto decoded = codec->decode_work(r);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(r.exhausted());

  auto* bb_out = dynamic_cast<bb::BBWork*>(decoded.get());
  ASSERT_NE(bb_out, nullptr);
  EXPECT_EQ(bb_out->pool_size(), bb_in->pool_size());
  EXPECT_EQ(bb_out->total_remaining(), bb_in->total_remaining());
  EXPECT_EQ(bb_out->local_bound(), 12345);
}

TEST(WorkCodec, MalformedBBIntervalRejected) {
  auto workload = test_bb();
  const auto codec = runtime::make_work_codec(*workload);
  runtime::WireWriter w;
  w.i64(lb::kNoBound);
  w.u32(1);
  w.u64(500);  // begin > end — impossible interval
  w.u64(10);
  runtime::WireReader r(w.data());
  EXPECT_EQ(codec->decode_work(r), nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(WorkCodec, MalformedUtsNodeRejected) {
  // encode_work writes a fast-hash node as its 8 state bytes, 12 zero
  // bytes and a depth >= 0; anything else is rejected, not truncated.
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  struct Row {
    const char* what;
    std::size_t byte;  ///< state byte set to 0xA5 (0: leave the state as is)
    std::int32_t depth;
    bool accepted;
  };
  const Row rows[] = {
      {"well-formed", 0, 3, true},
      {"negative depth", 0, -1, false},
      {"nonzero state byte 8", 8, 3, false},
      {"nonzero state byte 19", 19, 3, false},
  };
  for (const Row& row : rows) {
    uts::NodeState state;
    for (std::size_t i = 0; i < 8; ++i) state.bytes[i] = static_cast<std::uint8_t>(0x11 * i);
    runtime::WireWriter w;
    w.u64(5);  // nodes counted
    w.u32(2);  // a well-formed node, then the row's
    w.bytes(state.bytes.data(), state.bytes.size());
    w.i32(2);
    if (row.byte != 0) state.bytes[row.byte] = 0xA5;
    w.bytes(state.bytes.data(), state.bytes.size());
    w.i32(row.depth);
    runtime::WireReader r(w.data());
    const auto decoded = codec->decode_work(r);
    EXPECT_EQ(decoded != nullptr, row.accepted) << row.what;
    EXPECT_EQ(r.ok(), row.accepted) << row.what;
    if (decoded != nullptr) {
      EXPECT_EQ(decoded->amount(), 2.0) << row.what;
    }
  }
}

TEST(WorkCodec, EveryTruncatedMessagePrefixIsRejected) {
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  for (const int type : {lb::kReqUp, lb::kProbe, lb::kProbeAck, lb::kWork}) {
    sim::Message m(type, /*a=*/7);
    m.id = 99;
    m.src = 1;
    m.dst = 2;
    if (type == lb::kProbe || type == lb::kProbeAck) {
      m.b = -1;
      m.c = -1;
      m.reliable = 1;
    }
    if (type == lb::kWork) {
      m.payload = std::make_unique<lb::WorkPayload>(workload->make_root_work());
    }
    runtime::WireWriter w;
    runtime::encode_message(m, codec.get(), w);
    const auto& full = w.data();
    for (std::size_t len = 0; len < full.size(); ++len) {
      runtime::WireReader r(full.data(), len);
      sim::Message out;
      EXPECT_FALSE(runtime::decode_message(r, codec.get(), &out))
          << lb::msg_type_name(type) << " prefix " << len;
    }
  }
}

TEST(WorkCodec, UnknownPayloadKindRejected) {
  auto workload = test_uts();
  const auto codec = runtime::make_work_codec(*workload);
  sim::Message m(lb::kNoWork);
  runtime::WireWriter w;
  runtime::encode_message(m, codec.get(), w);
  auto bytes = w.take();
  bytes.back() = 0x77;  // the payload-kind discriminator
  runtime::WireReader r(bytes);
  sim::Message out;
  EXPECT_FALSE(runtime::decode_message(r, codec.get(), &out));
}

TEST(WorkCodec, BBSolutionMergesAcrossProcesses) {
  auto sender = test_bb();
  const auto sender_codec = runtime::make_work_codec(*sender);
  sender->best().offer(777, std::vector<int>{2, 0, 1, 3, 4, 5, 6});

  runtime::WireWriter w;
  sender_codec->encode_solution(w);

  auto receiver = test_bb();
  const auto receiver_codec = runtime::make_work_codec(*receiver);
  receiver->best().offer(900, std::vector<int>{0, 1, 2, 3, 4, 5, 6});
  runtime::WireReader r(w.data());
  ASSERT_TRUE(receiver_codec->merge_solution(r));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(receiver->best().makespan(), 777);
  EXPECT_EQ(receiver->best().permutation(), (std::vector<int>{2, 0, 1, 3, 4, 5, 6}));

  // Merging an *inferior* remote solution must not regress the incumbent.
  auto worse = test_bb();
  const auto worse_codec = runtime::make_work_codec(*worse);
  worse->best().offer(888, std::vector<int>{1, 0, 2, 3, 4, 5, 6});
  runtime::WireWriter w2;
  worse_codec->encode_solution(w2);
  runtime::WireReader r2(w2.data());
  ASSERT_TRUE(receiver_codec->merge_solution(r2));
  EXPECT_EQ(receiver->best().makespan(), 777);

  // An empty solution (no incumbent found) merges as a no-op.
  auto empty = test_bb();
  const auto empty_codec = runtime::make_work_codec(*empty);
  runtime::WireWriter w3;
  empty_codec->encode_solution(w3);
  runtime::WireReader r3(w3.data());
  ASSERT_TRUE(receiver_codec->merge_solution(r3));
  EXPECT_EQ(receiver->best().makespan(), 777);

  // An equal-makespan merge settles on the lexicographically smaller
  // permutation whichever side holds it, so every rank ends on the same one.
  const std::vector<int> smaller{0, 2, 1, 3, 4, 5, 6};
  const std::vector<int> larger{2, 0, 1, 3, 4, 5, 6};
  for (const bool local_holds_smaller : {true, false}) {
    auto local = test_bb();
    auto remote = test_bb();
    local->best().offer(777, local_holds_smaller ? smaller : larger);
    remote->best().offer(777, local_holds_smaller ? larger : smaller);
    runtime::WireWriter tw;
    runtime::make_work_codec(*remote)->encode_solution(tw);
    runtime::WireReader tr(tw.data());
    ASSERT_TRUE(runtime::make_work_codec(*local)->merge_solution(tr));
    EXPECT_EQ(local->best().makespan(), 777);
    EXPECT_EQ(local->best().permutation(), smaller) << local_holds_smaller;
  }
}

}  // namespace
}  // namespace olb
