// Unit tests for base utilities: errors, RNG determinism, byte encode/decode.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/byte_io.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/units.hpp"

namespace paramrio {
namespace {

TEST(Error, RequireThrowsLogicErrorWithContext) {
  try {
    PARAMRIO_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
  }
}

TEST(Error, RequirePassesOnTrue) {
  EXPECT_NO_THROW(PARAMRIO_REQUIRE(true, "never"));
}

TEST(Error, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw FormatError("x"), Error);
  EXPECT_THROW(throw DeadlockError("x"), Error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextInRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double v = r.next_in(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, GaussianHasRoughlyZeroMeanUnitVariance) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = r.next_gaussian();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Units, Conversions) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(mb_per_s(100.0), 1.0e8);
  EXPECT_DOUBLE_EQ(ms(5.0), 0.005);
  EXPECT_DOUBLE_EQ(us(3.0), 3.0e-6);
}

TEST(ByteIo, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1234.5e-7);
  w.str("hello world");
  auto buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5e-7);
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  auto buf = w.take();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<unsigned>(buf[0]), 0x04u);
  EXPECT_EQ(static_cast<unsigned>(buf[3]), 0x01u);
}

TEST(ByteIo, ReaderOverrunThrowsFormatError) {
  ByteWriter w;
  w.u32(7);
  auto buf = w.take();
  ByteReader r(buf);
  r.u32();
  EXPECT_THROW(r.u8(), FormatError);
  // A length large enough to wrap offset + length is an overrun too.
  EXPECT_THROW(r.bytes(~std::size_t{0}), FormatError);
  EXPECT_THROW(r.skip(~std::size_t{0}), FormatError);
}

TEST(ByteIo, StringOverrunThrows) {
  ByteWriter w;
  w.u32(1000);  // claims a 1000-byte string with no payload
  auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.str(), FormatError);
}

TEST(ByteIo, SkipAndPos) {
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(static_cast<std::uint8_t>(i));
  auto buf = w.take();
  ByteReader r(buf);
  r.skip(10);
  EXPECT_EQ(r.pos(), 10u);
  EXPECT_EQ(r.u8(), 10u);
  EXPECT_THROW(r.skip(100), FormatError);
}

TEST(ByteIo, BytesView) {
  ByteWriter w;
  std::vector<std::byte> payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 3);
  w.bytes(payload);
  auto buf = w.take();
  ByteReader r(buf);
  auto got = r.bytes(32);
  for (std::size_t i = 0; i < payload.size(); ++i)
    EXPECT_EQ(got[i], payload[i]);
}

}  // namespace
}  // namespace paramrio
