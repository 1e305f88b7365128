#include "spans.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

using olb::lb::StepResult;
using olb::lb::Work;

struct Buffer {
  std::vector<Span> spans;
  WorkTotals work[3];  ///< indexed by SpanName - kStep
};

// Every thread that records gets one buffer, owned jointly by the thread and
// this registry. drain_spans() empties them all and frees those whose thread
// has exited (the registry then holds the last reference).
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers;

Buffer& my_buffer() {
  thread_local std::shared_ptr<Buffer> mine;
  if (mine == nullptr) {
    mine = std::make_shared<Buffer>();
    std::scoped_lock lock(g_buffers_mu);
    g_buffers.push_back(mine);
  }
  return *mine;
}

std::atomic<std::uint32_t> g_next_id{1};

void add(WorkTotals& into, const WorkTotals& t) {
  if (t.count == 0) return;
  if (into.count == 0 || t.first_start_ns < into.first_start_ns) {
    into.first_start_ns = t.first_start_ns;
  }
  into.parent = t.parent;
  into.last_end_ns = std::max(into.last_end_ns, t.last_end_ns);
  into.count += t.count;
  into.total_ns += t.total_ns;
  into.units += t.units;
}

void record_work_span(SpanName name, std::uint32_t parent, std::int64_t start,
                      std::uint64_t units) {
  const std::int64_t end = now_ns();
  const int kind = static_cast<int>(name) - static_cast<int>(SpanName::kStep);
  add(my_buffer().work[kind],
      {.parent = parent, .count = 1, .total_ns = end - start, .units = units,
       .first_start_ns = start, .last_end_ns = end});
}

class TracedWork final : public Work {
 public:
  TracedWork(std::unique_ptr<Work> inner, std::uint32_t parent)
      : inner_(std::move(inner)), parent_(parent) {}

  double amount() const override { return inner_->amount(); }
  bool empty() const override { return inner_->empty(); }

  std::unique_ptr<Work> split(double fraction) override {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Work> part = inner_->split(fraction);
    record_work_span(SpanName::kSplit, parent_, t0, 0);
    if (part == nullptr) return nullptr;
    return std::make_unique<TracedWork>(std::move(part), parent_);
  }

  void merge(std::unique_ptr<Work> other) override {
    // Every Work of a traced solve descends from TracedWorkload's root.
    std::unique_ptr<Work> inner = std::move(static_cast<TracedWork&>(*other).inner_);
    const std::int64_t t0 = now_ns();
    inner_->merge(std::move(inner));
    record_work_span(SpanName::kMerge, parent_, t0, 0);
  }

  StepResult step(std::uint64_t max_units) override {
    const std::int64_t t0 = now_ns();
    const StepResult r = inner_->step(max_units);
    record_work_span(SpanName::kStep, parent_, t0, r.units_done);
    return r;
  }

  void observe_bound(std::int64_t bound) override { inner_->observe_bound(bound); }

 private:
  std::unique_ptr<Work> inner_;
  std::uint32_t parent_;
};

class ProbedRootWork final : public Work {
 public:
  ProbedRootWork(std::unique_ptr<Work> inner, std::atomic<std::int64_t>* first_step)
      : inner_(std::move(inner)), first_step_(first_step) {}

  double amount() const override { return inner_->amount(); }
  bool empty() const override { return inner_->empty(); }
  std::unique_ptr<Work> split(double fraction) override {
    return inner_->split(fraction);
  }
  // Incoming parts were split off undecorated work, so they are the inner
  // type already.
  void merge(std::unique_ptr<Work> other) override { inner_->merge(std::move(other)); }
  StepResult step(std::uint64_t max_units) override {
    if (!stepped_) {
      stepped_ = true;
      first_step_->store(now_ns(), std::memory_order_release);
    }
    return inner_->step(max_units);
  }
  void observe_bound(std::int64_t bound) override { inner_->observe_bound(bound); }

 private:
  std::unique_ptr<Work> inner_;
  std::atomic<std::int64_t>* first_step_;
  bool stepped_ = false;
};

}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kSolve: return "solve";
    case SpanName::kInstanceBuild: return "instance_build";
    case SpanName::kOverlayBuild: return "overlay_build";
    case SpanName::kBackendCall: return "backend_call";
    case SpanName::kStep: return "work.step";
    case SpanName::kSplit: return "work.split";
    case SpanName::kMerge: return "work.merge";
  }
  return "?";
}

void record_span(const Span& span) { my_buffer().spans.push_back(span); }

std::uint32_t next_span_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

Drained drain_spans() {
  Drained out;
  std::scoped_lock lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    out.spans.insert(out.spans.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    add(out.step, buffer->work[0]);
    add(out.split, buffer->work[1]);
    add(out.merge, buffer->work[2]);
    for (WorkTotals& t : buffer->work) t = {};
  }
  std::erase_if(g_buffers, [](const std::shared_ptr<Buffer>& b) {
    return b.use_count() == 1;
  });
  return out;
}

const Span* Drained::find(SpanName name) const {
  for (const Span& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::int64_t Drained::self_ns(const Span& span, int width) const {
  std::int64_t covered = 0;
  for (const Span& s : spans) {
    if (s.parent == span.id) covered += s.end_ns - s.start_ns;
  }
  for (const WorkTotals* w : {&step, &split, &merge}) {
    if (w->count > 0 && w->parent == span.id) covered += w->total_ns;
  }
  return width * (span.end_ns - span.start_ns) - covered;
}

ScopedSpan::ScopedSpan(SpanName name, std::uint32_t solve, std::uint32_t parent) {
  span_.name = name;
  span_.solve = solve;
  span_.parent = parent;
  span_.id = next_span_id();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = now_ns();
  record_span(span_);
}

std::unique_ptr<Work> TracedWorkload::make_root_work() {
  return std::make_unique<TracedWork>(inner_.make_root_work(), parent_);
}

std::unique_ptr<Work> FirstStepProbe::make_root_work() {
  first_step_ns_.store(0, std::memory_order_relaxed);
  return std::make_unique<ProbedRootWork>(inner_.make_root_work(), &first_step_ns_);
}

}  // namespace perfbench
