// Process memory probes for the scale benchmarks (docs/SCALING.md).
//
// The sharded simulator's headline claim — 10^5..10^6 peers in one process —
// is a memory claim as much as a speed claim, so the benches stamp resident
// set size next to wall-clock. Linux exposes both numbers in
// /proc/self/status; elsewhere the probes return 0 and the JSON fields read
// as "not measured".
#pragma once

#include <cstdint>

namespace olb::support {

/// Peak resident set size (VmHWM) in bytes; 0 when unavailable. The peak is
/// the honest denominator for bytes-per-peer: allocators rarely return freed
/// pages, and the high-water mark is what capacity planning must fit.
std::uint64_t peak_rss_bytes();

}  // namespace olb::support
