// Versioned little-endian wire format of the socket backend.
//
// Everything that crosses a TCP connection between two SocketNet processes
// is a *frame*: a fixed 12-byte header (magic, version, frame type, body
// length) followed by a body encoded field-by-field through WireWriter.
// Nothing is ever memcpy'd from a struct — the layout is the explicit
// sequence of put/get calls, so it is stable across compilers, padding
// rules and (via the fixed little-endian byte order) architectures.
//
// Frame vocabulary (see socket_net.hpp for the bootstrap sequence):
//
//   kHello    — first frame on every outbound connection: the connecting
//               rank identifies itself and proves it was launched with the
//               same run configuration (digest).
//   kConfig   — rank 0 -> others: cluster size, seed, digest, the peer
//               address table and the overlay shape (parent array).
//   kReady    — other ranks -> rank 0: configuration verified, ready to go.
//   kStart    — rank 0 -> others: the start barrier; receivers stamp their
//               wall-clock epoch on receipt.
//   kMsg      — one sim::Message between protocol actors (work_codec.hpp).
//   kResult   — other ranks -> rank 0: an opaque per-rank result blob.
//   kSummary  — rank 0 -> others: all ranks' result blobs, so every process
//               computes identical aggregate metrics.
//
// Decoding is non-aborting by design: WireReader carries a sticky failure
// flag instead of trusting the sender, so truncated or garbage frames are
// *rejected* (and unit-testable) rather than UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace olb::runtime {

inline constexpr std::uint32_t kWireMagic = 0x4F4C4257u;  // "OLBW" (LE "WBLO")
/// v2: job-layer payload kinds (kJobInject work, kJobProbe/Ack stat waves)
/// joined the message codec. v3: the rank result blob carries the peer's
/// lb::PeerReport (retries and the declaration time for every strategy).
/// v4: the rank result blob carries the rank's sends by message type, and
/// the service message types left the codec (service mode never runs on
/// sockets; a frame of one is malformed). v5: kProbe/kProbeAck carry their
/// reading in fields b/c instead of a probe payload (its payload kind is
/// gone), and bit 30 of the id word carries Message::reliable. Peers of
/// different versions refuse to talk.
inline constexpr std::uint16_t kWireVersion = 5;
/// Upper bound on a frame body; anything larger is a corrupt or hostile
/// header, not a real message (the largest legitimate frames are work
/// transfers of a few hundred KB).
inline constexpr std::uint32_t kMaxFrameBody = 16u << 20;
inline constexpr std::size_t kFrameHeaderSize = 12;

enum class FrameType : std::uint16_t {
  kHello = 1,
  kConfig = 2,
  kReady = 3,
  kStart = 4,
  kMsg = 5,
  kResult = 6,
  kSummary = 7,
};

/// Append-only little-endian encoder for frame bodies.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// u32 length prefix + raw bytes.
  void blob(const std::uint8_t* data, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    bytes(data, n);
  }
  void blob(const std::vector<std::uint8_t>& b) { blob(b.data(), b.size()); }
  void str(const std::string& s) {
    blob(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder with a sticky failure flag: any
/// read past the end (or an explicit fail()) poisons the reader, every
/// subsequent read returns zero values, and callers check ok() once at the
/// end instead of after every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len) : p_(data), len_(len) {}
  explicit WireReader(const std::vector<std::uint8_t>& b)
      : WireReader(b.data(), b.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool read_bytes(void* out, std::size_t n) {
    if (!take(n)) return false;
    std::memcpy(out, p_ + pos_ - n, n);
    return true;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    if (len_ - pos_ < n) {  // before sizing: n is untrusted input
      fail();
      return {};
    }
    // A byte loop, not memcpy or a range copy: GCC 12 at -O3 flags those
    // with a false -Wstringop-overread, and an empty vector's data() is null.
    std::vector<std::uint8_t> out(n);
    for (std::uint8_t& b : out) b = p_[pos_++];
    return out;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(p_ + pos_ - n), n);
  }

  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  /// True when every byte was consumed and nothing failed — a decoder's
  /// "this frame was exactly what I expected" check.
  bool exhausted() const { return ok_ && pos_ == len_; }
  std::size_t remaining() const { return ok_ ? len_ - pos_ : 0; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }
  std::uint64_t get_le(int n) {
    if (!take(static_cast<std::size_t>(n))) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(p_[pos_ - static_cast<std::size_t>(n) +
                                          static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  }

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

enum class ParseStatus {
  kOk,        ///< header valid, *body_len bytes of body follow
  kNeedMore,  ///< fewer than kFrameHeaderSize bytes so far
  kBad,       ///< wrong magic/version or an absurd length — protocol error
};

/// Validates the 12-byte header at `data`. On kOk fills type and body_len.
ParseStatus parse_frame_header(const std::uint8_t* data, std::size_t len,
                               FrameType* type, std::uint32_t* body_len);

/// Serialises header + body into one contiguous send buffer.
std::vector<std::uint8_t> make_frame(FrameType type, const WireWriter& body);

}  // namespace olb::runtime
