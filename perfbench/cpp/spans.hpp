// Outside-in tracing for the benchmark: wall-clock spans recorded around the
// calls the benchmark makes into the program, and an lb::Work decorator that
// times every Work::step/split/merge a backend performs.
//
// Spans go to per-thread buffers (a backend calls Work from its peer or shard
// threads) and are drained by the benchmark's main thread after each solve,
// when every backend thread has been joined. Nothing here touches src/: the
// backends see an ordinary lb::Workload.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "lb/work.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : std::uint8_t {
  kSolve,          ///< instance build + overlay build + backend call
  kInstanceBuild,  ///< constructing the lb::Workload
  kOverlayBuild,   ///< lb::make_overlay_tree on the solve's RunConfig
  kBackendCall,    ///< run_distributed / run_threads, call to return
  kStep,           ///< Work::step
  kSplit,          ///< Work::split
  kMerge,          ///< Work::merge
};

const char* span_name(SpanName name);

/// A span around one call the benchmark makes into the program.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< id of the enclosing span; 0 for a root
  std::uint32_t solve = 0;
  SpanName name = SpanName::kSolve;
};

/// The Work spans (step, split or merge) a thread closed during one backend
/// call, folded as they close: within a call they all share the call's solve
/// and parent, and folding keeps a traced solve from streaming millions of
/// span records through the caches it is timing.
struct WorkTotals {
  std::uint32_t parent = 0;  ///< the backend-call span the calls ran under
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::uint64_t units = 0;         ///< units the steps processed
  std::int64_t first_start_ns = 0;  ///< meaningful when count > 0
  std::int64_t last_end_ns = 0;
};

/// Appends a span to the calling thread's buffer.
void record_span(const Span& span);

/// A fresh span id.
std::uint32_t next_span_id();

struct Drained {
  std::vector<Span> spans;
  WorkTotals step, split, merge;  ///< summed over threads

  /// The first span of this name, nullptr if none was recorded.
  const Span* find(SpanName name) const;

  /// A span's self time: its duration minus the time its children (spans and
  /// folded Work calls whose parent it is) cover. A span over a parallel
  /// backend covers `width` threads, i.e. width x duration thread-ns.
  std::int64_t self_ns(const Span& span, int width = 1) const;
};

/// Moves every buffered span and Work total out. Call only while no other
/// thread records (between solves).
Drained drain_spans();

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, std::uint32_t solve, std::uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }

 private:
  Span span_;
};

/// Decorates every Work of a solve: the root work and, recursively, every
/// part split off it. merge() unwraps its argument before forwarding, so the
/// wrapped work only ever sees its own concrete type.
class TracedWorkload final : public olb::lb::Workload {
 public:
  /// `parent`: the backend-call span every Work call of the solve runs under.
  TracedWorkload(olb::lb::Workload& inner, std::uint32_t parent)
      : inner_(inner), parent_(parent) {}
  std::unique_ptr<olb::lb::Work> make_root_work() override;
  const char* name() const override { return inner_.name(); }

 private:
  olb::lb::Workload& inner_;
  std::uint32_t parent_;
};

/// Untraced solves: decorates only the root work, to time the solve's first
/// Work::step (peer 0 holds all work until its first step, so the first step
/// anywhere is its own). Parts split off it are handed out undecorated.
class FirstStepProbe final : public olb::lb::Workload {
 public:
  explicit FirstStepProbe(olb::lb::Workload& inner) : inner_(inner) {}
  std::unique_ptr<olb::lb::Work> make_root_work() override;
  const char* name() const override { return inner_.name(); }

  /// steady-clock ns of the first step, 0 if none happened.
  std::int64_t first_step_ns() const {
    return first_step_ns_.load(std::memory_order_acquire);
  }

 private:
  olb::lb::Workload& inner_;
  std::atomic<std::int64_t> first_step_ns_{0};
};

}  // namespace perfbench
