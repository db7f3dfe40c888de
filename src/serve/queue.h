#pragma once

// Bounded multi-producer single-consumer queue for the ingest service, with
// explicit overflow policy — the backpressure primitive of DESIGN.md §11.
//
//  * kBlock: push() waits for space. Producers slow to the consumer's rate;
//    nothing is lost. This is the replay/equivalence-testing mode: the
//    consumed stream is exactly the submitted stream.
//  * kDrop: push() on a full queue discards the item and counts it.
//    Producers never stall (the M-Lab collection posture: a browser test
//    must not hang on a busy pipeline); the loss is first-class data,
//    mirroring the PR 2 DataQuality stance that degraded streams carry
//    their own exclusion evidence. Accounting invariant, checked by the
//    ingest.drop_policy_accounting property:
//        pushed = popped + dropped + depth().
//
// Mutex + condvar, deliberately: the consumer does real inference work per
// item, so queue transfer is nowhere near the bottleneck, and a lock keeps
// the close/drain semantics easy to prove. Counters are plain fields guarded by
// the same mutex.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace netcong::serve {

enum class OverflowPolicy : std::uint8_t {
  kBlock,  // push waits for space
  kDrop,   // push on a full queue discards the item and counts the drop
};

const char* overflow_policy_name(OverflowPolicy policy);

struct QueueCounters {
  std::uint64_t pushed = 0;   // accepted into the queue
  std::uint64_t dropped = 0;  // rejected by kDrop on overflow
  std::uint64_t popped = 0;   // handed to the consumer
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  // Returns true when the item was accepted. Under kBlock this only returns
  // false after close(); under kDrop it returns false (and counts a drop)
  // whenever the queue is full.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (policy_ == OverflowPolicy::kBlock) {
      space_cv_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
    } else if (items_.size() >= capacity_) {
      ++counters_.dropped;
      return false;
    }
    items_.push_back(std::move(item));
    ++counters_.pushed;
    item_cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained;
  // nullopt means no item will ever arrive again.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    item_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    // Built in place: a named T moved into the returned optional trips a
    // GCC 12 -Wuninitialized false positive through IngestEvent's variant.
    std::optional<T> item(std::in_place, std::move(items_.front()));
    items_.pop_front();
    ++counters_.popped;
    space_cv_.notify_one();
    return item;
  }

  // After close(), pushes are rejected and pop() drains the remaining items
  // then returns nullopt. Idempotent.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }
  QueueCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

 private:
  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable item_cv_;   // consumer waits for items
  std::condition_variable space_cv_;  // kBlock producers wait for space
  std::deque<T> items_;
  QueueCounters counters_;
  bool closed_ = false;
};

}  // namespace netcong::serve
