#include "src/sim/event_queue.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace diablo {

namespace {
// Typical runs schedule thousands of events before the first Pop; starting
// with a real allocation avoids the doubling churn of an empty vector.
constexpr size_t kInitialCapacity = 1024;
}  // namespace

EventQueue::EventQueue() { Reserve(kInitialCapacity); }

void EventQueue::Reserve(size_t events) {
  heap_.reserve(events);
  slab_.reserve(events);
  free_.reserve(events);
}

void EventQueue::Push(SimTime time, EventFn fn) {
  uint32_t slot;
  if (free_.empty()) {
    DIABLO_CHECK(slab_.size() < UINT32_MAX, "event slab slot index overflow");
    slot = static_cast<uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
  }
  heap_.push_back(Key{time, next_seq_++, slot});
  SiftUp(heap_.size() - 1);
}

EventFn EventQueue::Pop(SimTime* time) {
  const Key top = heap_.front();
  *time = top.time;
#if defined(DIABLO_CHECKED)
  DIABLO_CHECK(!popped_any_ || top.time > last_pop_time_ ||
                   (top.time == last_pop_time_ && top.seq > last_pop_seq_),
               "event pops must follow the (time, seq) total order");
  last_pop_time_ = top.time;
  last_pop_seq_ = top.seq;
  popped_any_ = true;
#endif
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    SiftDown(0);
  } else {
    heap_.pop_back();
  }
  EventFn fn = std::move(slab_[top.slot]);
  free_.push_back(top.slot);
  return fn;
}

// The heap is 4-ary (children of i are 4i+1..4i+4): half the depth of a
// binary heap, and the sibling scan walks contiguous memory — the classic
// layout for large discrete-event queues. Both sift loops use hole
// insertion: the displaced key is held aside while lighter keys shift into
// the hole with a single copy each. Pop order only depends on the
// (time, seq) total order, which none of this touches.
void EventQueue::SiftUp(size_t i) {
  if (i == 0) {
    return;
  }
  const Key moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!(heap_[parent] > moving)) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const Key moving = heap_[i];
  while (true) {
    const size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    // Smallest child, lowest index winning ties (keeps the comparison
    // semantics of the binary version).
    size_t child = first;
    const size_t limit = std::min(first + kArity, n);
    for (size_t c = first + 1; c < limit; ++c) {
      if (heap_[child] > heap_[c]) {
        child = c;
      }
    }
    if (!(moving > heap_[child])) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

}  // namespace diablo
