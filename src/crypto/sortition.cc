#include "src/crypto/sortition.h"

#include <cstring>

namespace diablo {

SortitionBlock::SortitionBlock(uint64_t seed, uint64_t round, uint64_t step) {
  std::memcpy(bytes_.data(), &seed, sizeof(seed));
  std::memcpy(bytes_.data() + 8, &round, sizeof(round));
  std::memcpy(bytes_.data() + 16, &step, sizeof(step));
  bytes_[32] = 0x80;
  bytes_[62] = 0x01;  // 256 message bits, big-endian in bytes 56..63
}

double SortitionBlock::Draw(uint64_t participant, Kernel kernel) {
  std::memcpy(bytes_.data() + 24, &participant, sizeof(participant));
  Sha256State state = kSha256InitialState;
  kernel(&state, bytes_.data());
  // The digest's first 8 bytes, state[0] and state[1] big-endian, read back
  // as a little-endian integer.
  const uint64_t prefix = static_cast<uint64_t>(__builtin_bswap32(state[0])) |
                          static_cast<uint64_t>(__builtin_bswap32(state[1])) << 32;
  return static_cast<double>(prefix >> 11) * 0x1.0p-53;
}

void SelectCommitteeInto(uint64_t seed, uint64_t round, uint64_t step,
                         uint32_t population, double expected,
                         std::vector<uint32_t>* committee) {
  committee->clear();
  if (population == 0) {
    return;
  }
  const double probability = expected / static_cast<double>(population);
  SortitionBlock block(seed, round, step);
  for (uint32_t p = 0; p < population; ++p) {
    if (block.Draw(p) < probability) {
      committee->push_back(p);
    }
  }
}

uint32_t SelectProposer(uint64_t seed, uint64_t round, uint32_t population) {
  uint32_t best = 0;
  double best_draw = 2.0;
  SortitionBlock block(seed, round, /*step=*/0);
  for (uint32_t p = 0; p < population; ++p) {
    const double draw = block.Draw(p);
    if (draw < best_draw) {
      best_draw = draw;
      best = p;
    }
  }
  return best;
}

}  // namespace diablo
