#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/crypto/signature.h"
#include "src/crypto/sortition.h"

namespace diablo {
namespace {

// FIPS 180-4 test vectors.
TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(DigestHex(Sha256Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestHex(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestHex(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// The same vectors straight through the portable kernel, so hosts whose
// Sha256Compress dispatches to the SHA extensions still test the scalar path.
Digest256 PortableDigest(const std::string& data) {
  Sha256State state = kSha256InitialState;
  std::string padded = data;
  padded.push_back(static_cast<char>(0x80));
  while (padded.size() % 64 != 56) {
    padded.push_back('\0');
  }
  const uint64_t bit_len = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<char>(bit_len >> (56 - 8 * i)));
  }
  for (size_t off = 0; off < padded.size(); off += 64) {
    Sha256CompressPortable(&state, reinterpret_cast<const uint8_t*>(padded.data() + off));
  }
  Digest256 digest;
  for (size_t i = 0; i < 8; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return digest;
}

TEST(Sha256Test, PortableKernelKnownVectors) {
  EXPECT_EQ(DigestHex(PortableDigest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestHex(PortableDigest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestHex(PortableDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestHex(PortableDigest(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, HardwareKernelMatchesPortable) {
  if (!Sha256HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  std::mt19937_64 gen(20230508);
  for (int trial = 0; trial < 100000; ++trial) {
    Sha256State hardware;
    for (uint32_t& word : hardware) {
      word = static_cast<uint32_t>(gen());
    }
    std::array<uint8_t, 64> block;
    for (size_t i = 0; i < block.size(); i += 8) {
      const uint64_t bits = gen();
      std::memcpy(block.data() + i, &bits, sizeof(bits));
    }
    Sha256State portable = hardware;
    Sha256CompressHardware(&hardware, block.data());
    Sha256CompressPortable(&portable, block.data());
    ASSERT_EQ(hardware, portable) << "trial " << trial;
  }
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(DigestHex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.Update("hello ");
  hasher.Update("world");
  EXPECT_EQ(hasher.Finish(), Sha256Digest("hello world"));
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise padding around the 55/56/64-byte boundaries: up to 55 buffered
  // bytes take one final block, 56..63 spill the length into a second one.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string data(len, 'x');
    Sha256 incremental;
    for (char c : data) {
      incremental.Update(&c, 1);
    }
    const Digest256 digest = incremental.Finish();
    EXPECT_EQ(digest, Sha256Digest(data)) << len;
    EXPECT_EQ(digest, PortableDigest(data)) << len;
  }
  // Literal digests (sha256sum) at the lengths where padding changes shape.
  const std::pair<size_t, const char*> known[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [len, hex] : known) {
    EXPECT_EQ(DigestHex(Sha256Digest(std::string(len, 'x'))), hex) << len;
  }
}

TEST(Sha256Test, PrefixAndHex) {
  const Digest256 d = Sha256Digest("abc");
  EXPECT_EQ(DigestHex(d).size(), 64u);
  EXPECT_EQ(DigestHex(d).substr(0, 8), "ba7816bf");
}

TEST(SignatureTest, CostModelShape) {
  const SignatureCost ecdsa = CostOf(SignatureScheme::kEcdsa);
  const SignatureCost ed = CostOf(SignatureScheme::kEd25519);
  const SignatureCost rsa = CostOf(SignatureScheme::kRsa4096);
  // Ed25519 signs faster than ECDSA; RSA4096 signing is the outlier that
  // broke Avalanche's setup in the paper (§5.2).
  EXPECT_LT(ed.sign, ecdsa.sign);
  EXPECT_GT(rsa.sign, 50 * ecdsa.sign);
  EXPECT_LT(rsa.verify, rsa.sign);
  EXPECT_GT(rsa.bytes, ecdsa.bytes);
}

TEST(SortitionTest, DrawsAreDeterministicAndUniform) {
  EXPECT_DOUBLE_EQ(SortitionBlock(1, 2, 3).Draw(4), SortitionBlock(1, 2, 3).Draw(4));
  EXPECT_NE(SortitionBlock(1, 2, 3).Draw(4), SortitionBlock(1, 2, 3).Draw(5));
  double sum = 0;
  const int n = 5000;
  SortitionBlock block(9, 9, 9);
  for (int i = 0; i < n; ++i) {
    const double draw = block.Draw(static_cast<uint64_t>(i));
    EXPECT_GE(draw, 0.0);
    EXPECT_LT(draw, 1.0);
    sum += draw;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// Literal outputs of the draw and both selections. Determinism and uniformity
// alone would pass a draw that hashed different bytes; these pin the exact
// function every Algorand report depends on.
TEST(SortitionTest, GoldenDraws) {
  EXPECT_EQ(SortitionBlock(0, 0, 0).Draw(0), 0x1.def58be2b5e9ap-2);
  EXPECT_EQ(SortitionBlock(0x9e3779b97f4a7c15ULL, 77, 2).Draw(9999), 0x1.1e460c043867cp-1);
  SortitionBlock block(1, 2, 3);
  EXPECT_EQ(block.Draw(4, Sha256CompressPortable), 0x1.b72122c388038p-2);
  EXPECT_EQ(block.Draw(4), 0x1.b72122c388038p-2);
}

TEST(SortitionTest, GoldenProposers) {
  EXPECT_EQ(SelectProposer(42, 7, 10000), 1206u);
  EXPECT_EQ(SelectProposer(3, 1234, 10000), 3362u);
}

TEST(SortitionTest, GoldenCommittee) {
  const std::vector<uint32_t> expected = {
      58,   405,  490,  1007, 1044, 1250, 1585, 1623, 2104, 2139, 2141, 2411, 2577, 2596,
      3372, 3392, 3612, 3709, 3741, 3772, 4081, 4540, 4605, 4887, 5123, 5134, 5310, 5313,
      5321, 5498, 5564, 5756, 5942, 5943, 5989, 6241, 6377, 6569, 6733, 6937, 7004, 7203,
      7441, 7659, 7730, 7733, 7879, 8489, 8775, 8904, 9130, 9160, 9259, 9332, 9981};
  std::vector<uint32_t> committee;
  SelectCommitteeInto(42, 7, 1, 10000, 60.0, &committee);
  EXPECT_EQ(committee, expected);
}

TEST(SortitionTest, CommitteeSizeNearExpected) {
  std::vector<uint32_t> committee;
  SelectCommitteeInto(7, 1, 2, 10000, 100.0, &committee);
  EXPECT_GT(committee.size(), 60u);
  EXPECT_LT(committee.size(), 140u);
  // Members are sorted and unique by construction.
  std::set<uint32_t> unique(committee.begin(), committee.end());
  EXPECT_EQ(unique.size(), committee.size());
}

TEST(SortitionTest, CommitteeChangesPerRound) {
  // One vector refilled per round, as the engines do: Into clears it first.
  std::vector<uint32_t> committee;
  SelectCommitteeInto(7, 1, 0, 1000, 50.0, &committee);
  const std::vector<uint32_t> round1 = committee;
  SelectCommitteeInto(7, 2, 0, 1000, 50.0, &committee);
  EXPECT_NE(round1, committee);
  SelectCommitteeInto(7, 1, 0, 1000, 50.0, &committee);
  EXPECT_EQ(committee, round1);
}

TEST(SortitionTest, ProposerInRangeAndRotates) {
  std::set<uint32_t> proposers;
  for (uint64_t round = 0; round < 50; ++round) {
    const uint32_t p = SelectProposer(3, round, 20);
    EXPECT_LT(p, 20u);
    proposers.insert(p);
  }
  // Over 50 rounds many distinct proposers should appear.
  EXPECT_GT(proposers.size(), 10u);
}

}  // namespace
}  // namespace diablo
