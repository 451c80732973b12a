// Cryptographic sortition in the style of Algorand's VRF-based committee
// selection: a deterministic, seed-keyed uniform draw per (round, step,
// participant) decides membership and proposer priority.
#ifndef SRC_CRYPTO_SORTITION_H_
#define SRC_CRYPTO_SORTITION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/crypto/sha256.h"

namespace diablo {

// The message a draw hashes — seed, round, step and participant as four
// native-order 64-bit words, 32 bytes — already padded into the one 64-byte
// SHA-256 block it fits: 0x80, zeros, then the bit length 256 big-endian.
// A draw is then a single compression from the IV. Loops over participants
// fill the block once and rewrite only the participant word.
class SortitionBlock {
 public:
  using Kernel = void (*)(Sha256State*, const uint8_t*);

  SortitionBlock(uint64_t seed, uint64_t round, uint64_t step);

  // The draw for `participant`, compressed by `kernel`: a uniform double in
  // [0, 1) derived from SHA-256 of (seed, round, step, participant). It acts
  // as the published VRF output: all honest parties compute the same value.
  double Draw(uint64_t participant, Kernel kernel = Sha256Compress);

 private:
  std::array<uint8_t, 64> bytes_{};
};

// Selects a committee of expected size `expected` from `population`
// equally-weighted participants: the selected indices, ascending, replace the
// contents of the caller-owned `committee`, so per-round selection reuses one
// allocation.
void SelectCommitteeInto(uint64_t seed, uint64_t round, uint64_t step,
                         uint32_t population, double expected,
                         std::vector<uint32_t>* committee);

// Proposer priority: the participant with the lowest draw for the round.
uint32_t SelectProposer(uint64_t seed, uint64_t round, uint32_t population);

}  // namespace diablo

#endif  // SRC_CRYPTO_SORTITION_H_
