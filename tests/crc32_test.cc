// Known answers for storage::Crc32, the checksum of every snapshot
// section, snapshot header and op-log frame. The fast table-driven
// form must give exactly the values of the plain bitwise definition,
// or files written before it would read as corrupt.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/snapshot_format.h"

namespace fairtopk {
namespace {

// CRC-32 one bit at a time, straight from the polynomial.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n, uint32_t seed = 0) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(storage::Crc32(std::string("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(storage::Crc32(std::string()), 0u);
  EXPECT_EQ(storage::Crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32Test, MatchesTheBitwiseDefinitionAtEveryLengthAndOffset) {
  Rng rng(7);
  std::vector<uint8_t> bytes(64 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformUint64(256));
  for (uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t length = 0; length <= 64; ++length) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " offset " +
                     std::to_string(offset) + " length " +
                     std::to_string(length));
        EXPECT_EQ(storage::Crc32(bytes.data() + offset, length, seed),
                  BitwiseCrc32(bytes.data() + offset, length, seed));
      }
    }
  }
}

TEST(Crc32Test, ChainingEqualsOnePass) {
  // A seed continues a checksum: Crc32(b, Crc32(a)) == Crc32(a + b).
  const std::string a = "snapshot header ";
  const std::string b = "and the rest of the file";
  EXPECT_EQ(storage::Crc32(b, storage::Crc32(a)), storage::Crc32(a + b));
}

}  // namespace
}  // namespace fairtopk
