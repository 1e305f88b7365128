#include "metrics/hub.hpp"

#include <chrono>

#include "metrics/export.hpp"
#include "support/check.hpp"

namespace olb::metrics {

MetricsHub::Format MetricsHub::format_for_path(std::string_view path) {
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".prom")
    return Format::kPrometheus;
  return Format::kNdjson;
}

MetricsHub::MetricsHub(Options opts)
    : opts_(std::move(opts)),
      format_(format_for_path(opts_.path)),
      registry_(opts_.shards) {
  OLB_CHECK_MSG(!opts_.path.empty(), "metrics hub needs an output path");
  OLB_CHECK_MSG(opts_.interval_ns > 0, "metrics interval must be positive");
  if (format_ == Format::kNdjson) {
    out_.open(opts_.path, std::ios::binary | std::ios::trunc);
    OLB_CHECK_MSG(out_.good(), "cannot open metrics output file");
  }
}

MetricsHub::~MetricsHub() { stop_sampler(); }

void MetricsHub::flush(std::uint64_t t_ns) {
  std::lock_guard<std::mutex> lock(flush_mu_);
  const MetricsSnapshot snap = registry_.snapshot(t_ns);
  if (format_ == Format::kPrometheus) {
    // Scrape semantics: each flush replaces the document.
    std::ofstream out(opts_.path, std::ios::binary | std::ios::trunc);
    OLB_CHECK_MSG(out.good(), "cannot rewrite metrics output file");
    write_prometheus(out, snap);
  } else {
    write_ndjson(out_, snap);
    out_.flush();  // olb_top tails this file; keep lines visible promptly
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsHub::start_sampler(std::function<std::uint64_t()> now_ns) {
  stop_sampler();  // tolerate back-to-back runs reusing one hub
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = false;
  }
  sampler_ = std::thread([this, now_ns = std::move(now_ns)] {
    const auto interval = std::chrono::nanoseconds(opts_.interval_ns);
    std::unique_lock<std::mutex> lock(sampler_mu_);
    while (!sampler_cv_.wait_for(lock, interval,
                                 [this] { return sampler_stop_; })) {
      lock.unlock();
      flush(now_ns());
      lock.lock();
    }
    lock.unlock();
    flush(now_ns());  // final snapshot so short runs still export once
  });
}

void MetricsHub::stop_sampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

}  // namespace olb::metrics
