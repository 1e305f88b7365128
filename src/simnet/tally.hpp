// What a run counts outside its peers: the sends (in all and by message
// type), the compute-time histogram, the inbox queueing delay and the fault
// tallies. sim::Engine keeps one, runtime::Host one per hosted actor (only
// the sends are real-time counts); a sharded run, a thread run and a socket
// run each merge theirs into one, and lb::fold_reports turns that into the
// run's metrics. Fields a backend does not count stay zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simnet/time.hpp"

namespace olb::sim {

struct Tally {
  /// Width of one busy-histogram bucket: bucket i covers
  /// [i, i+1) * kBusyBucket of run time.
  static constexpr Time kBusyBucket = milliseconds(1);

  /// Messages sent. The simulator stamps trace message ids from it, so it is
  /// a running count, not a sum taken at the end.
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> sent_by_type;  ///< indexed by message type
  /// Compute time started per kBusyBucket window: cluster utilisation.
  std::vector<Time> busy;
  /// When the last compute span ended: the end of a run's work, before its
  /// termination-detection tail.
  Time last_compute_done = 0;
  /// How long application messages sat in an inbox behind a busy actor —
  /// the paper's Master-Worker collapse is this number exploding at the
  /// master.
  Time queue_delay_sum = 0;
  Time queue_delay_max = 0;
  std::uint64_t queue_delay_samples = 0;
  // Fault injection (all zero in fault-free runs).
  std::uint64_t msgs_dropped = 0;
  std::uint64_t msgs_duplicated = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t work_bounced = 0;  ///< payloads returned off crashed peers
  std::uint64_t crashes = 0;
  /// Application units destroyed by crashes: work held by the victim plus
  /// payloads in its inbox or addressed to it that could not be bounced.
  double work_lost_units = 0.0;

  void count_send(int type) {
    ++messages;
    const auto idx = static_cast<std::size_t>(type);
    if (sent_by_type.size() <= idx) sent_by_type.resize(idx + 1, 0);
    ++sent_by_type[idx];
  }

  void record_busy(Time start, Time duration) {
    const auto bucket = static_cast<std::size_t>(start / kBusyBucket);
    if (busy.size() <= bucket) busy.resize(bucket + 1, 0);
    busy[bucket] += duration;
  }

  void record_queue_delay(Time wait) {
    queue_delay_sum += wait;
    ++queue_delay_samples;
    queue_delay_max = std::max(queue_delay_max, wait);
  }

  /// Adds `o`'s counts to these: sums, bucket-wise sums, and the later end.
  void merge(const Tally& o) {
    messages += o.messages;
    add_each(sent_by_type, o.sent_by_type);
    add_each(busy, o.busy);
    last_compute_done = std::max(last_compute_done, o.last_compute_done);
    queue_delay_sum += o.queue_delay_sum;
    queue_delay_max = std::max(queue_delay_max, o.queue_delay_max);
    queue_delay_samples += o.queue_delay_samples;
    msgs_dropped += o.msgs_dropped;
    msgs_duplicated += o.msgs_duplicated;
    latency_spikes += o.latency_spikes;
    work_bounced += o.work_bounced;
    crashes += o.crashes;
    work_lost_units += o.work_lost_units;
  }

 private:
  template <typename T>
  static void add_each(std::vector<T>& into, const std::vector<T>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  }
};

}  // namespace olb::sim
