#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/support/rng.h"

namespace diablo {
namespace {

TEST(EventFnTest, InvokesInlineCapture) {
  int fired = 0;
  EventFn fn([&fired] { ++fired; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventFnTest, DefaultIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFnTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventFn a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2);
  b();
  EXPECT_EQ(*counter, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
}

TEST(EventFnTest, DestructionReleasesCapture) {
  auto token = std::make_shared<int>(7);
  {
    EventFn fn([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFnTest, OversizedCaptureUsesHeapAndStillRuns) {
  // Way past kInlineSize: forces the heap fallback path.
  std::array<uint64_t, 16> payload{};
  payload[0] = 41;
  payload[15] = 1;
  uint64_t out = 0;
  EventFn fn([payload, &out] { out = payload[0] + payload[15]; });
  EventFn moved(std::move(fn));
  moved();
  EXPECT_EQ(out, 42u);
}

TEST(EventFnTest, AssignmentDestroysPreviousCapture) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  EventFn fn([first] { (void)*first; });
  fn = EventFn([second] { (void)*second; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Push(Seconds(3), [&] { fired.push_back(3); });
  queue.Push(Seconds(1), [&] { fired.push_back(1); });
  queue.Push(Seconds(2), [&] { fired.push_back(2); });
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.Push(Seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, PopReturnsTime) {
  EventQueue queue;
  queue.Push(Milliseconds(250), [] {});
  SimTime t = 0;
  queue.Pop(&t);
  EXPECT_EQ(t, Milliseconds(250));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, DestroyReleasesPendingCaptures) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue queue;
    queue.Push(1, [token] { ++*token; });
    queue.Push(2, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 0);
}

TEST(EventQueueTest, TiesFireInInsertionOrderAfterDrain) {
  // A drained queue reuses its freed callback slots LIFO; equal-time events
  // pushed afterwards must still fire in their insertion order.
  EventQueue queue;
  queue.Push(5, [] {});
  queue.Push(6, [] {});
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    queue.Push(Seconds(2), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, MixedInlineAndHeapCaptures) {
  EventQueue queue;
  queue.Reserve(64);
  std::vector<int> fired;
  std::array<int, 32> big{};
  big[31] = 2;
  queue.Push(Seconds(2), [&fired, big] { fired.push_back(big[31]); });
  queue.Push(Seconds(1), [&fired] { fired.push_back(1); });
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, LargeHeapStaysSorted) {
  EventQueue queue;
  // Push pseudo-random times, then verify pops are monotone.
  uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    queue.Push(static_cast<SimTime>(SplitMix64(state) % 1000000), [] {});
  }
  SimTime prev = -1;
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// Per-event bookkeeping for the differential test: how often each event's
// callback ran and how often its capture was released.
struct CaptureLedger {
  std::vector<int> fired;
  std::vector<int> released;
  size_t last_fired = SIZE_MAX;
};

// A capture with a non-trivial move: moving hands the release duty to the
// new object, so `released` counts destructions of the live copy only.
class Tracked {
 public:
  Tracked(CaptureLedger* ledger, size_t id) : ledger_(ledger), id_(id) {}
  Tracked(Tracked&& other) noexcept
      : ledger_(std::exchange(other.ledger_, nullptr)), id_(other.id_) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (ledger_ != nullptr) {
      ++ledger_->released[id_];
    }
  }

  void Fire() const {
    ++ledger_->fired[id_];
    ledger_->last_fired = id_;
  }

 private:
  CaptureLedger* ledger_;
  size_t id_;
};

// 200k random interleaved pushes and pops against a (time, seq)-sorted
// reference. Times fall in an 8 ns window above the last pop, so most
// events tie with others on time and seq decides. Captures mix trivially
// copyable inline closures, non-trivially movable inline closures and
// heap-allocated ones; the tracked kinds must be released exactly once
// whether they fire or are still pending when the queue is destroyed.
TEST(EventQueueTest, DifferentialAgainstSortedReference) {
  enum Kind { kTrivial, kInlineTracked, kHeapTracked };
  CaptureLedger ledger;
  std::vector<Kind> kinds;
  std::set<std::tuple<SimTime, uint64_t, size_t>> reference;  // (time, seq, id)
  auto queue = std::make_unique<EventQueue>();
  Rng rng(2024);
  uint64_t next_seq = 0;
  SimTime now = 0;
  size_t max_pending = 0;

  auto push = [&] {
    const size_t id = kinds.size();
    ledger.fired.push_back(0);
    ledger.released.push_back(0);
    const SimTime time = now + static_cast<SimTime>(rng.NextBelow(8));
    const Kind kind = static_cast<Kind>(rng.NextBelow(3));
    kinds.push_back(kind);
    if (kind == kTrivial) {
      CaptureLedger* l = &ledger;
      queue->Push(time, [l, id] {
        ++l->fired[id];
        l->last_fired = id;
      });
    } else if (kind == kInlineTracked) {
      auto inline_fn = [t = Tracked(&ledger, id)] { t.Fire(); };
      static_assert(sizeof(inline_fn) <= EventFn::kInlineSize);
      queue->Push(time, std::move(inline_fn));
    } else {
      const std::array<uint64_t, 8> pad{};
      auto heap_fn = [t = Tracked(&ledger, id), pad] {
        (void)pad;
        t.Fire();
      };
      static_assert(sizeof(heap_fn) > EventFn::kInlineSize);
      queue->Push(time, std::move(heap_fn));
    }
    reference.emplace(time, next_seq++, id);
  };

  size_t popped = 0;
  for (int op = 0; op < 200000; ++op) {
    if (queue->empty() || rng.NextBelow(100) < 52) {
      push();
      max_pending = std::max(max_pending, queue->size());
      continue;
    }
    const auto [want_time, want_seq, want_id] = *reference.begin();
    reference.erase(reference.begin());
    SimTime time = -1;
    EventFn fn = queue->Pop(&time);
    ASSERT_EQ(time, want_time) << "op " << op;
    fn();
    ASSERT_EQ(ledger.last_fired, want_id) << "op " << op << " seq " << want_seq;
    now = time;
    ++popped;
  }
  ASSERT_EQ(queue->size(), reference.size());
  EXPECT_GT(max_pending, 1000u);
  queue.reset();  // destroys the queue with its events still pending

  size_t fired = 0;
  for (size_t id = 0; id < kinds.size(); ++id) {
    ASSERT_LE(ledger.fired[id], 1) << id;
    fired += static_cast<size_t>(ledger.fired[id]);
    if (kinds[id] != kTrivial) {
      ASSERT_EQ(ledger.released[id], 1) << "capture " << id;
    }
  }
  EXPECT_EQ(fired, popped);
}

TEST(SimulationTest, ClockAdvances) {
  Simulation sim(1);
  SimTime observed = -1;
  sim.Schedule(Seconds(5), [&] { observed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(observed, Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim(1);
  std::vector<SimTime> times;
  sim.Schedule(Seconds(1), [&] {
    times.push_back(sim.Now());
    sim.Schedule(Seconds(1), [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Seconds(1));
  EXPECT_EQ(times[1], Seconds(2));
}

TEST(SimulationTest, RunUntilStopsAtHorizon) {
  Simulation sim(1);
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(10), [&] { ++fired; });
  const uint64_t executed = sim.RunUntil(Seconds(5));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, PastSchedulesClampToNow) {
  Simulation sim(1);
  SimTime when = -1;
  sim.Schedule(Seconds(3), [&] {
    sim.ScheduleAt(Seconds(1), [&] { when = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(when, Seconds(3));
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim(1);
  SimTime when = -1;
  sim.Schedule(-Seconds(4), [&] { when = sim.Now(); });
  sim.Run();
  EXPECT_EQ(when, 0);
}

TEST(SimulationTest, EventCountTracked) {
  Simulation sim(1);
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Seconds(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    Rng rng = sim.ForkRng();
    std::vector<uint64_t> draws;
    for (int i = 0; i < 10; ++i) {
      sim.Schedule(Seconds(i), [&] { draws.push_back(rng.NextU64()); });
    }
    sim.Run();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

}  // namespace
}  // namespace diablo
