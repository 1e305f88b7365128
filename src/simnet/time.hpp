// Simulated time: signed 64-bit nanoseconds.
//
// Integer time keeps event ordering exact and platform-independent; at
// nanosecond resolution the representable span (~292 years) dwarfs any
// experiment.
#pragma once

#include <cstdint>
#include <limits>

namespace olb::sim {

using Time = std::int64_t;

inline constexpr Time kTimeMax = std::numeric_limits<Time>::max();

constexpr Time nanoseconds(std::int64_t n) { return n; }
constexpr Time microseconds(std::int64_t n) { return n * 1'000; }
constexpr Time milliseconds(std::int64_t n) { return n * 1'000'000; }
constexpr Time seconds(double s) { return static_cast<Time>(s * 1e9); }

constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-9; }

}  // namespace olb::sim
