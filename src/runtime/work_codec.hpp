// Workload-aware serialisation for sim::Message over the socket backend.
//
// The message struct itself (type/id/reliable/bounced/a/b/c/src/dst)
// encodes the same way for every workload, but a kWork transfer carries a
// `lb::WorkPayload` whose concrete `lb::Work` subtype only the workload
// knows. WorkCodec is that knowledge: one implementation per workload
// family (UTS pending-node deques, B&B interval pools), selected once at
// bring-up by `make_work_codec`. The codec also round-trips the final
// *solution* (B&B incumbent) through the result-exchange frames so every
// process reports the globally best answer, not its local one.
#pragma once

#include <memory>

#include "runtime/wire.hpp"
#include "simnet/message.hpp"

namespace olb::lb {
class Work;
class Workload;
}  // namespace olb::lb

namespace olb::runtime {

/// Encodes/decodes the workload-specific parts of the wire protocol.
/// Implementations must be deterministic and side-effect-free except where
/// documented (decode_work allocates; merge_solution updates the incumbent).
class WorkCodec {
 public:
  virtual ~WorkCodec() = default;

  virtual void encode_work(const lb::Work& work, WireWriter& w) const = 0;
  /// Returns nullptr (leaving `r` failed) on a malformed body.
  virtual std::unique_ptr<lb::Work> decode_work(WireReader& r) const = 0;

  /// Encodes this process's best solution for the result exchange.
  /// Workloads without a solution object (UTS) encode nothing.
  virtual void encode_solution(WireWriter& w) const { (void)w; }
  /// Merges a remote solution blob into the local workload's incumbent.
  /// Returns false on a malformed blob.
  virtual bool merge_solution(WireReader& r) { (void)r; return true; }
};

/// Builds the codec matching `workload`'s dynamic type (UTS or flowshop
/// B&B today). Aborts on an unknown workload: running an unserialisable
/// workload over sockets is a configuration error, not a runtime surprise.
std::unique_ptr<WorkCodec> make_work_codec(lb::Workload& workload);

/// Frame body of FrameType::kMsg. `codec` may be null only when the message
/// is guaranteed payload-free (bootstrap-time use); a payload-carrying
/// message with a null codec aborts.
void encode_message(const sim::Message& m, const WorkCodec* codec, WireWriter& w);

/// Inverse of encode_message. Returns false (msg unspecified) on any
/// malformed body — a service message type (service mode never runs on
/// sockets), a payload kind the message type does not carry (each type
/// carries exactly one: work, leave or none), truncated fields, codec
/// rejection.
bool decode_message(WireReader& r, const WorkCodec* codec, sim::Message* msg);

}  // namespace olb::runtime
