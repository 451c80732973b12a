#include "src/chain/vote_round.h"

#include <algorithm>
#include <cmath>

#if defined(DIABLO_CHECKED)
#include <atomic>
#endif

#include "src/support/check.h"
#include "src/support/profile.h"
#include "src/support/select.h"

namespace diablo {
namespace {

// Fills buf with the arrival times of all reachable votes at `receiver` and
// returns how many there are. The hop_scale multiply runs in integer
// arithmetic when that is provably bit-exact (integral scale, products below
// 2^52 so the double rounding the reference formula goes through is the
// identity); the community/consortium scales (1.0, 4.0) qualify and skip the
// int -> double -> int round trip.
size_t ScanArrivals(const PairwiseDelays& delays,
                    const std::vector<SimDuration>& send_times, size_t receiver,
                    double hop_scale, SimDuration* buf) {
  const size_t n = send_times.size();
  const SimDuration* col = delays.column(receiver);
  const SimDuration* sends = send_times.data();
  size_t cnt = 0;
  const double floor_scale = std::floor(hop_scale);
  const bool integral = hop_scale == floor_scale && hop_scale >= 1.0 && hop_scale < 65536.0;
  const SimDuration int_scale = integral ? static_cast<SimDuration>(hop_scale) : 1;
  // Both loops compact branchlessly: every element is computed and written,
  // the write cursor only advances for reachable pairs. Unreachable lanes
  // (kUnreachable == -1) produce small garbage values that the next write
  // overwrites, so there is no overflow hazard. The loops do not vectorize:
  // the store through the data-dependent cursor is a compaction, which GCC
  // reports as "couldn't vectorize loop" (docs/performance.md has the lever
  // that would remove it).
  if (integral && delays.max_delay() <= (int64_t{1} << 52) / int_scale) {
    for (size_t j = 0; j < n; ++j) {
      const SimDuration s = sends[j];
      const SimDuration hop = col[j];
      buf[cnt] = s + hop * int_scale;
      cnt += static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
    }
    return cnt;
  }
  for (size_t j = 0; j < n; ++j) {
    const SimDuration s = sends[j];
    const SimDuration hop = col[j];
    buf[cnt] = s + static_cast<SimDuration>(static_cast<double>(hop) * hop_scale);
    cnt += static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
  }
  return cnt;
}

#if defined(DIABLO_CHECKED)
// Sampled cross-check of the bucket selector: every answer must equal a
// from-scratch nth_element over a fresh arrival scan. The tick is
// process-wide (cells run on worker threads in parallel sweeps), relaxed, and
// never feeds back into results, so a nondeterministic sampling pattern is
// harmless. 257 is prime to avoid phase-locking with common validator
// counts.
std::atomic<uint64_t> g_select_tick{0};
constexpr uint64_t kSelectCheckCadence = 257;

bool SelectCheckDue() {
  return g_select_tick.fetch_add(1, std::memory_order_relaxed) % kSelectCheckCadence ==
         0;
}

void CheckQuorumSelection(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t receiver,
                          double hop_scale, size_t k, SimDuration got) {
  std::vector<SimDuration> ref(send_times.size());
  const size_t cnt = ScanArrivals(delays, send_times, receiver, hop_scale, ref.data());
  DIABLO_CHECK(k < cnt, "selection rank escaped the reachable arrival set");
  ref.resize(cnt);
  std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k), ref.end());
  DIABLO_CHECK(ref[k] == got,
               "bucket quorum selection disagrees with nth_element reference");
}
#endif

}  // namespace

PairwiseDelays::PairwiseDelays(Network* net, const std::vector<HostId>& hosts,
                               int64_t message_bytes)
    : n_(hosts.size()) {
  net->FillPairwiseDelays(hosts, message_bytes, &delays_);
  BuildTranspose();
}

PairwiseDelays::PairwiseDelays(size_t n, std::vector<SimDuration> row_major)
    : n_(n), delays_(std::move(row_major)) {
  if (delays_.size() != n_ * n_) {
    CheckFailed(__FILE__, __LINE__, "row_major.size() == n * n",
                "explicit pairwise matrix has the wrong element count");
  }
  BuildTranspose();
}

void PairwiseDelays::BuildTranspose() {
  by_receiver_.resize(n_ * n_);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < n_; ++j) {
      const SimDuration d = delays_[i * n_ + j];
      by_receiver_[j * n_ + i] = d;
      if (d != kUnreachable && d > max_delay_) {
        max_delay_ = d;
      }
    }
  }
}

VoteDelays::VoteDelays(Network* net, const std::vector<HostId>& hosts,
                       int64_t message_bytes, size_t dense_threshold)
    : n_(hosts.size()) {
  if (n_ < dense_threshold) {
    matrix_ = std::make_unique<PairwiseDelays>(net, hosts, message_bytes);
  } else {
    streamed_ = std::make_unique<StreamedDelays>(net, hosts, message_bytes);
  }
}

size_t VoteDelays::ApproxBytes() const {
  if (matrix_ != nullptr) {
    // Row-major matrix plus its transpose.
    return sizeof(*this) + sizeof(PairwiseDelays) +
           2 * n_ * n_ * sizeof(SimDuration);
  }
  return sizeof(*this) + streamed_->ApproxBytes();
}

SimDuration QuorumArrivalInto(const PairwiseDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch) {
  if (quorum == 0) {
    return kUnreachable;
  }
  scratch->buf.resize(send_times.size());
  const size_t cnt = ScanArrivals(delays, send_times, receiver, hop_scale,
                                  scratch->buf.data());
  if (cnt < quorum) {
    return kUnreachable;
  }
  const SimDuration selected = SelectKth(scratch->buf.data(), cnt, quorum - 1);
#if defined(DIABLO_CHECKED)
  if (SelectCheckDue()) {
    CheckQuorumSelection(delays, send_times, receiver, hop_scale, quorum - 1, selected);
  }
#endif
  return selected;
}

void QuorumArrivalAllInto(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result) {
  const size_t n = send_times.size();
  result->assign(n, kUnreachable);
  profile::CountVoteRound();
  if (quorum == 0) {
    return;
  }
  for (size_t receiver = 0; receiver < n; ++receiver) {
    (*result)[receiver] =
        QuorumArrivalInto(delays, send_times, receiver, quorum, hop_scale, scratch);
  }
}

double GossipHopScale(int n) {
  if (n <= 25) {
    return 1.0;
  }
  return 1.0 + std::log2(static_cast<double>(n) / 25.0);
}

int ByzantineQuorum(int n) {
  const int f = (n - 1) / 3;
  return 2 * f + 1;
}

SimDuration MedianDelayInto(const std::vector<SimDuration>& delays,
                            MessagePlaneScratch* scratch) {
  const size_t n = delays.size();
  scratch->buf.resize(n);
  SimDuration* buf = scratch->buf.data();
  size_t cnt = 0;
  for (const SimDuration d : delays) {
    buf[cnt] = d;
    cnt += static_cast<size_t>(d != kUnreachable);
  }
  if (cnt == 0) {
    return kUnreachable;
  }
  const SimDuration median = SelectKth(buf, cnt, cnt / 2);
#if defined(DIABLO_CHECKED)
  if (SelectCheckDue()) {
    std::vector<SimDuration> ref;
    ref.reserve(delays.size());
    for (const SimDuration d : delays) {
      if (d != kUnreachable) {
        ref.push_back(d);
      }
    }
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(ref.size() / 2),
                     ref.end());
    DIABLO_CHECK(ref[ref.size() / 2] == median,
                 "bucket-selected median disagrees with nth_element reference");
  }
#endif
  return median;
}

namespace {

#if defined(DIABLO_CHECKED)
// Cross-check of the streamed quorum kernels: materialise the model into a
// dense matrix (every at(i, j) is a pure function, so this reproduces the
// exact delays the streaming kernel saw) and replay the reduction through
// the dense path. Gated to small n — the check is O(n²) by construction.
constexpr size_t kStreamCheckMaxN = 256;

void CheckStreamedQuorum(const StreamedDelays& model,
                         const std::vector<SimDuration>& send_times,
                         size_t receiver, size_t quorum, double hop_scale,
                         SimDuration got) {
  const size_t n = model.size();
  if (n > kStreamCheckMaxN) {
    return;
  }
  std::vector<SimDuration> dense(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      dense[i * n + j] = model.at(i, j);
    }
  }
  const PairwiseDelays matrix(n, std::move(dense));
  MessagePlaneScratch scratch;
  const SimDuration ref =
      QuorumArrivalInto(matrix, send_times, receiver, quorum, hop_scale, &scratch);
  DIABLO_CHECK(ref == got,
               "streamed quorum kernel disagrees with the dense matrix path");
}
#endif

}  // namespace

SimDuration QuorumArrivalInto(const VoteDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch) {
  if (delays.dense()) {
    return QuorumArrivalInto(delays.matrix(), send_times, receiver, quorum,
                             hop_scale, scratch);
  }
  const SimDuration got =
      QuorumArrivalLargeN(delays.streamed(), send_times.data(), send_times.size(),
                          receiver, quorum, hop_scale, &scratch->buf);
#if defined(DIABLO_CHECKED)
  if (quorum > 0 && SelectCheckDue()) {
    CheckStreamedQuorum(delays.streamed(), send_times, receiver, quorum, hop_scale,
                        got);
  }
#endif
  return got;
}

void QuorumArrivalAllInto(const VoteDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result) {
  if (delays.dense()) {
    QuorumArrivalAllInto(delays.matrix(), send_times, quorum, hop_scale, scratch,
                         result);
    return;
  }
  const size_t n = send_times.size();
  result->assign(n, kUnreachable);
  profile::CountVoteRound();
  if (quorum == 0) {
    return;
  }
  for (size_t receiver = 0; receiver < n; ++receiver) {
    (*result)[receiver] =
        QuorumArrivalLargeN(delays.streamed(), send_times.data(), n, receiver,
                            quorum, hop_scale, &scratch->buf);
  }
#if defined(DIABLO_CHECKED)
  for (size_t receiver = 0; receiver < n; ++receiver) {
    if ((*result)[receiver] == kUnreachable) {
      continue;
    }
    if (!SelectCheckDue()) {
      continue;
    }
    CheckStreamedQuorum(delays.streamed(), send_times, receiver, quorum, hop_scale,
                        (*result)[receiver]);
  }
#endif
}

void QuorumArrivalCommitteeInto(const VoteDelays& delays,
                                const std::vector<uint32_t>& senders,
                                const std::vector<SimDuration>& sender_times,
                                const std::vector<uint32_t>& receivers, size_t n,
                                size_t quorum, double hop_scale,
                                MessagePlaneScratch* scratch,
                                std::vector<SimDuration>* result) {
  result->assign(n, kUnreachable);
  profile::CountVoteRound();
  if (quorum == 0) {
    return;
  }
  VoteBitset& seen = scratch->receiver_bits;
  seen.Reset(n);
  if (delays.dense()) {
    // Widen the compact sender list into a full send-times vector once, then
    // run the exact dense single-receiver kernel per listed receiver.
    scratch->expanded.assign(n, kUnreachable);
    for (size_t j = 0; j < senders.size(); ++j) {
      scratch->expanded[senders[j]] = sender_times[j];
    }
    for (const uint32_t r : receivers) {
      if (!seen.Set(r)) {
        continue;
      }
      (*result)[r] = QuorumArrivalInto(delays.matrix(), scratch->expanded, r,
                                       quorum, hop_scale, scratch);
    }
    return;
  }
  for (const uint32_t r : receivers) {
    if (!seen.Set(r)) {
      continue;
    }
    (*result)[r] = QuorumArrivalLargeN(delays.streamed(), senders.data(),
                                       sender_times.data(), senders.size(), r,
                                       quorum, hop_scale, &scratch->buf);
#if defined(DIABLO_CHECKED)
    if ((*result)[r] != kUnreachable && SelectCheckDue()) {
      std::vector<SimDuration> full(n, kUnreachable);
      for (size_t j = 0; j < senders.size(); ++j) {
        full[senders[j]] = sender_times[j];
      }
      CheckStreamedQuorum(delays.streamed(), full, r, quorum, hop_scale,
                          (*result)[r]);
    }
#endif
  }
}

}  // namespace diablo
