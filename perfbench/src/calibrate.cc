// perfbench_calibrate: times a fixed CPU kernel that uses no simulator code,
// so run.py can tell how fast the shared host runs right now.
//
//   perfbench_calibrate
//
// Prints one JSON line, {"cal_s": <seconds>, "checksum": <n>}. The kernel
// mixes a binary heap of timed events and a hash table, as a simulator pass
// uses them, with integer arithmetic, which on the reference host tracked
// its drift best. Nothing here may change: the benchmark's reported times
// are scaled by this kernel's speed.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

// Returns a value that depends on every step, so none can be optimised away.
uint64_t Kernel() {
  uint64_t state = 88172645463325252ull;
  uint64_t acc = 0;
  using Event = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<uint64_t, uint64_t> table;
  for (uint32_t i = 0; i < 100000; ++i) {
    const uint64_t x = XorShift(&state);
    heap.push({x % 1000000007ull, i});
    table[x & 0xfffff] += i;
  }
  while (!heap.empty()) {
    acc += heap.top().first;
    heap.pop();
  }
  for (const auto& [key, value] : table) {
    acc ^= key + value;
  }
  for (int i = 0; i < 80000000; ++i) {
    acc += XorShift(&state) >> 60;
  }
  return acc;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: perfbench_calibrate\n");
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  const uint64_t checksum = Kernel();
  const double cal_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("{\"cal_s\": %.9f, \"checksum\": %llu}\n", cal_s,
              static_cast<unsigned long long>(checksum));
  return 0;
}
