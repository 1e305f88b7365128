// One thread peer's inbox: a mutex-guarded vector of messages that any peer
// thread may push to and only the owning peer thread takes from.
//
// The owner takes the whole queue at once by swapping it with its own batch
// vector, so one lock round covers a whole batch and both vectors keep their
// capacity: the steady state allocates nothing. Pushes from one producer
// keep their order. The owner sleeps on the condition variable only after
// finding the queue empty under the same lock a push takes, so a push can
// never slip between that check and the wait — no lost wakeups — and a
// push notifies only when the owner is actually asleep.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "simnet/message.hpp"

namespace olb::runtime {

class Mailbox {
 public:
  /// Any thread. Appends `m`; wakes the owner if it is asleep in
  /// sleep_until and returns whether it did. Only the first push into a
  /// sleeping owner's box notifies.
  bool push(sim::Message m) {
    bool woke;
    {
      std::scoped_lock lock(mutex_);
      queued_.push_back(std::move(m));
      pending_.store(true, std::memory_order_relaxed);
      woke = sleeping_;
      sleeping_ = false;
    }
    if (woke) cv_.notify_one();
    return woke;
  }

  /// Owner thread only. Replaces `batch` with every queued message, in
  /// arrival order.
  void take(std::vector<sim::Message>& batch) {
    batch.clear();
    // The owner polls once per work chunk, nearly always finding nothing;
    // a locked poll would put two fencing atomic operations on every chunk.
    // A push this load misses is taken at the next poll, and sleep_until
    // checks the queue itself under the lock.
    if (!pending_.load(std::memory_order_relaxed)) return;
    std::scoped_lock lock(mutex_);
    queued_.swap(batch);
    pending_.store(false, std::memory_order_relaxed);
  }

  /// Owner thread only. Blocks until a message is queued, `stop()` holds or
  /// `deadline` passes. `stop` is read under the mailbox lock; whoever makes
  /// it true must call wake() afterwards.
  template <typename Stop>
  void sleep_until(std::chrono::steady_clock::time_point deadline, Stop&& stop) {
    std::unique_lock lock(mutex_);
    sleeping_ = true;
    cv_.wait_until(lock, deadline, [&] { return !queued_.empty() || stop(); });
    sleeping_ = false;
  }

  /// Any thread. Makes a sleeping owner re-check its `stop()`.
  void wake() {
    std::scoped_lock lock(mutex_);
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<sim::Message> queued_;  ///< guarded by mutex_
  bool sleeping_ = false;             ///< guarded by mutex_
  /// !queued_.empty(), written under mutex_ and read without it by take().
  std::atomic<bool> pending_{false};
};

}  // namespace olb::runtime
