// SHA-256 (FIPS 180-4). Used for the sortition "VRF", the checked build's
// ledger hash chain and commit-safety digest, and the report digests that
// golden tests and perfbench compare.
//
// Every block goes through one compression function, Sha256Compress. It picks
// its kernel once per process: the x86 SHA extensions (SHA-NI) when CPUID
// reports them together with SSSE3 and SSE4.1, the portable scalar rounds
// otherwise and on every non-x86 build. There is no knob to choose: both
// kernels compute the same function, and checked builds re-run every 257th
// dispatched compression through the portable kernel to prove it.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace diablo {

using Digest256 = std::array<uint8_t, 32>;

// The eight working words a compression chains from block to block.
using Sha256State = std::array<uint32_t, 8>;

inline constexpr Sha256State kSha256InitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Compresses one 64-byte block into `state` with the process's kernel.
void Sha256Compress(Sha256State* state, const uint8_t* block);

// The two kernels behind Sha256Compress, callable directly so tests and
// benchmarks can pit them against each other.
void Sha256CompressPortable(Sha256State* state, const uint8_t* block);
// Precondition: Sha256HardwareAvailable(). Non-x86 builds have no hardware
// kernel; there it is the portable one.
void Sha256CompressHardware(Sha256State* state, const uint8_t* block);

// True when this CPU runs the hardware kernel (and so Sha256Compress uses it).
bool Sha256HardwareAvailable();

// Incremental hasher.
class Sha256 {
 public:
  Sha256() = default;

  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  // Finalizes and returns the digest; the hasher must not be reused after.
  Digest256 Finish();

 private:
  Sha256State state_ = kSha256InitialState;
  std::array<uint8_t, 64> buffer_;
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

// One-shot convenience.
Digest256 Sha256Digest(std::string_view data);
Digest256 Sha256Digest(const void* data, size_t len);

// Lowercase hex encoding.
std::string DigestHex(const Digest256& digest);

}  // namespace diablo

#endif  // SRC_CRYPTO_SHA256_H_
