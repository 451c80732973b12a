// Exact k-th order statistic over int64 values: the one selector behind every
// order statistic of the vote plane (the dense and streamed quorum kernels,
// the round median, Avalanche's sampled round trips).
//
// A quorum arrival is "the k-th earliest vote", a value and not an
// algorithm, so any exact selector gives bit-identical simulation output.
// This one is a most-significant-digit bucket select: one min/max pass, a
// 256-bucket histogram over the top 8 significant bits of (v - min), a walk
// of the prefix sums to the bucket holding rank k, and a branchless in-place
// compaction of that bucket. Vote arrivals are spread over milliseconds with
// nanosecond resolution, so the bucket is tiny (~3 of 200 values) and an
// insertion sort finishes it. A bucket of more than 32 values goes round the
// loop again; each level consumes at least 8 bits of range, so there are at
// most 8. It keeps no state between calls and costs O(cnt) per level with
// predictable branches, where std::nth_element mispredicts its way through
// partitioning.
#ifndef SRC_SUPPORT_SELECT_H_
#define SRC_SUPPORT_SELECT_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace diablo {

// At or below this many values insertion sort is the faster exact selector.
inline constexpr size_t kInsertionSelectMax = 32;

// k-th smallest (0-based) of v[0..cnt) by insertion sort; reorders v.
inline int64_t InsertionSelect(int64_t* v, size_t cnt, size_t k) {
  for (size_t i = 1; i < cnt; ++i) {
    const int64_t x = v[i];
    size_t j = i;
    for (; j > 0 && v[j - 1] > x; --j) {
      v[j] = v[j - 1];
    }
    v[j] = x;
  }
  return v[k];
}

// k-th smallest (0-based) of v[0..cnt), k < cnt; reorders and overwrites
// v like std::nth_element. Needs no memory beyond a 1 KB stack histogram.
inline int64_t SelectKth(int64_t* v, size_t cnt, size_t k) {
  while (cnt > kInsertionSelectMax) {
    int64_t lo = v[0];
    int64_t hi = v[0];
    for (size_t i = 1; i < cnt; ++i) {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
    if (lo == hi) {
      return lo;
    }
    // Differences are taken in uint64 so a range spanning the whole int64
    // domain cannot overflow. The top bucket index is always >= 128, so lo
    // and hi land in different buckets and every level shrinks the input.
    const uint64_t base = static_cast<uint64_t>(lo);
    const int width = static_cast<int>(std::bit_width(static_cast<uint64_t>(hi) - base));
    const int shift = std::max(0, width - 8);
    uint32_t hist[256] = {};
    for (size_t i = 0; i < cnt; ++i) {
      ++hist[(static_cast<uint64_t>(v[i]) - base) >> shift];
    }
    uint64_t bucket = 0;
    size_t below = 0;
    while (below + hist[bucket] <= k) {
      below += hist[bucket];
      ++bucket;
    }
    // The write cursor never passes the read cursor, so compacting in place
    // only overwrites values already read.
    size_t w = 0;
    for (size_t i = 0; i < cnt; ++i) {
      const int64_t x = v[i];
      v[w] = x;
      w += static_cast<size_t>(((static_cast<uint64_t>(x) - base) >> shift) == bucket);
    }
    cnt = w;
    k -= below;
  }
  return InsertionSelect(v, cnt, k);
}

}  // namespace diablo

#endif  // SRC_SUPPORT_SELECT_H_
