#include "src/crypto/sha256.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "src/support/check.h"

namespace diablo {
namespace {

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256CompressPortable(Sha256State* state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  Sha256State& st = *state;
  uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
  uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<size_t>(i)] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  st[0] += a;
  st[1] += b;
  st[2] += c;
  st[3] += d;
  st[4] += e;
  st[5] += f;
  st[6] += g;
  st[7] += h;
}

#if defined(__x86_64__)

bool Sha256HardwareAvailable() {
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
      return false;
    }
    const bool ssse3 = (ecx & bit_SSSE3) != 0;
    const bool sse41 = (ecx & bit_SSE4_1) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
      return false;
    }
    const bool sha = (ebx & (1u << 29)) != 0;  // CPUID.(EAX=7,ECX=0):EBX.SHA
    return ssse3 && sse41 && sha;
  }();
  return available;
}

// The state lives in two registers in the order SHA256RNDS2 wants: ABEF and
// CDGH (lane 0 holds the last letter). Each SHA256RNDS2 runs two rounds on the
// low two message+constant words; four message groups of four words roll
// through the schedule with SHA256MSG1/MSG2.
__attribute__((target("sha,ssse3,sse4.1"))) void Sha256CompressHardware(
    Sha256State* state, const uint8_t* block) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state->data()));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state->data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i msg[4];
  for (size_t i = 0; i < 4; ++i) {
    msg[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), byte_swap);
  }
#pragma GCC unroll 16
  for (size_t i = 0; i < 16; ++i) {
    const __m128i wk = _mm_add_epi32(
        msg[i & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants.data() + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    if (i < 12) {
      // Words 4i+16..4i+19 = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
      const __m128i w7 = _mm_alignr_epi8(msg[(i + 3) & 3], msg[(i + 2) & 3], 4);
      const __m128i partial =
          _mm_add_epi32(_mm_sha256msg1_epu32(msg[i & 3], msg[(i + 1) & 3]), w7);
      msg[i & 3] = _mm_sha256msg2_epu32(partial, msg[(i + 3) & 3]);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state->data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state->data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool Sha256HardwareAvailable() { return false; }

void Sha256CompressHardware(Sha256State* state, const uint8_t* block) {
  Sha256CompressPortable(state, block);
}

#endif

namespace {

void DispatchedCompress(Sha256State* state, const uint8_t* block) {
  if (Sha256HardwareAvailable()) {
    Sha256CompressHardware(state, block);
  } else {
    Sha256CompressPortable(state, block);
  }
}

#if defined(DIABLO_CHECKED) && DIABLO_CHECKED
// Every 257th compression is cross-checked. Sweep cells hash on worker
// threads, so the tick is a relaxed atomic (which compressions are checked
// varies with scheduling; the result never does).
constexpr uint64_t kCompressCheckCadence = 257;
std::atomic<uint64_t> g_compress_tick{0};

bool CompressCheckDue() {
  return g_compress_tick.fetch_add(1, std::memory_order_relaxed) % kCompressCheckCadence ==
         0;
}
#endif

}  // namespace

void Sha256Compress(Sha256State* state, const uint8_t* block) {
#if defined(DIABLO_CHECKED) && DIABLO_CHECKED
  if (CompressCheckDue()) {
    Sha256State reference = *state;
    Sha256CompressPortable(&reference, block);
    DispatchedCompress(state, block);
    DIABLO_CHECK(*state == reference,
                 "dispatched SHA-256 compression disagrees with the portable kernel");
    return;
  }
#endif
  DispatchedCompress(state, block);
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  total_len_ += len;
  while (len > 0) {
    const size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      Sha256Compress(&state_, buffer_.data());
      buffer_len_ = 0;
    }
  }
}

Digest256 Sha256::Finish() {
  // Update leaves at most 63 bytes buffered. The 0x80 marker and the 8-byte
  // length fit behind at most 55 of them; more spill into a second block.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    Sha256Compress(&state_, buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Sha256Compress(&state_, buffer_.data());

  Digest256 digest;
  for (size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Digest256 Sha256Digest(std::string_view data) {
  return Sha256Digest(data.data(), data.size());
}

Digest256 Sha256Digest(const void* data, size_t len) {
  Sha256 hasher;
  hasher.Update(data, len);
  return hasher.Finish();
}

std::string DigestHex(const Digest256& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace diablo
