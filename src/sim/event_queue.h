// 4-ary-heap event queue for the discrete-event simulation.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties) so runs are deterministic
// regardless of heap internals.
//
// The heap orders 24-byte {time, seq, slot} keys; the callbacks themselves
// sit still in a slab indexed by slot. Sifts therefore move small trivially
// copyable keys instead of 40-byte EventFn payloads, and each callback is
// moved exactly twice: into its slab slot on Push and out of it on Pop.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/support/check.h"
#include "src/support/time.h"

namespace diablo {

class EventQueue {
 public:
  EventQueue();

  void Push(SimTime time, EventFn fn);

  // Pre-sizes the heap and the callback slab so a known burst of Push calls
  // never reallocates.
  void Reserve(size_t events);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; undefined when empty.
  SimTime PeekTime() const { return heap_.front().time; }

  // Removes and returns the earliest event's callback, setting *time.
  EventFn Pop(SimTime* time);

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;  // index of the callback in slab_

    bool operator>(const Key& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };
  static_assert(sizeof(Key) == 24, "heap keys should stay at 24 bytes");

  // Heap fan-out. 4 halves the depth of a binary heap and keeps the
  // sibling scan within one or two cache lines of contiguous keys.
  static constexpr size_t kArity = 4;

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<Key> heap_;
  // Callbacks of pending events; a popped slot is left empty and reused
  // LIFO through free_, so the slab never grows past the pending high-water
  // mark.
  std::vector<EventFn> slab_;
  std::vector<uint32_t> free_;
  uint64_t next_seq_ = 0;
  // Checked build: the (time, seq) total order must come out of Pop
  // monotonically — any heap bug that reorders events shows up as a
  // nonmonotone pop long before it shows up as wrong golden output.
  DIABLO_CHECKED_ONLY(SimTime last_pop_time_ = 0; uint64_t last_pop_seq_ = 0;
                      bool popped_any_ = false;)
};

}  // namespace diablo

#endif  // SRC_SIM_EVENT_QUEUE_H_
