/**
 * @file
 * Unit tests for the util library: bit manipulation, RNG, circular
 * buffer, CRC-32, configuration store, string helpers and host perf
 * counters.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "util/bitfield.hh"
#include "util/circular_buffer.hh"
#include "util/config.hh"
#include "util/crc32.hh"
#include "util/perf_counters.hh"
#include "util/random.hh"
#include "util/str.hh"
#include "util/types.hh"

using namespace ebcp;

TEST(Bitfield, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(Bitfield, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
}

TEST(Bitfield, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(Bitfield, AlignDownUp)
{
    EXPECT_EQ(alignDown(0x12345, 64), 0x12340u);
    EXPECT_EQ(alignUp(0x12345, 64), 0x12380u);
    EXPECT_EQ(alignDown(0x40, 64), 0x40u);
    EXPECT_EQ(alignUp(0x40, 64), 0x40u);
}

TEST(Bitfield, Bits)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xff00, 7, 0), 0x00u);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
    EXPECT_EQ(bits(0b1011000, 6, 3), 0b1011u);
}

TEST(Bitfield, Mix64Deterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Bitfield, Mix64SpreadsLowBits)
{
    // Consecutive inputs should land in different low-bit buckets
    // most of the time (table indexing quality).
    std::set<std::uint64_t> buckets;
    for (std::uint64_t i = 0; i < 64; ++i)
        buckets.insert(mix64(i) & 1023);
    EXPECT_GT(buckets.size(), 55u);
}

TEST(Pcg32, DeterministicStream)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Pcg32, ReseedRestartsStream)
{
    Pcg32 a(7);
    std::uint32_t first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Pcg32, BelowInRange)
{
    Pcg32 a(99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(a.below(17), 17u);
}

TEST(Pcg32, BelowCoversRange)
{
    Pcg32 a(5);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(a.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, RangeInclusive)
{
    Pcg32 a(3);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i) {
        std::uint32_t v = a.range(5, 7);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Pcg32, UniformIsInUnitInterval)
{
    Pcg32 a(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = a.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Pcg32, ChanceRoughlyCalibrated)
{
    Pcg32 a(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (a.chance(0.3))
            ++hits;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(CircularBuffer, PushPopFifo)
{
    CircularBuffer<int> cb(4);
    cb.push(1);
    cb.push(2);
    cb.push(3);
    EXPECT_EQ(cb.pop(), 1);
    EXPECT_EQ(cb.pop(), 2);
    EXPECT_EQ(cb.pop(), 3);
    EXPECT_TRUE(cb.empty());
}

TEST(CircularBuffer, OverwritesOldestWhenFull)
{
    CircularBuffer<int> cb(3);
    for (int i = 1; i <= 5; ++i)
        cb.push(i);
    EXPECT_EQ(cb.size(), 3u);
    EXPECT_EQ(cb.front(), 3);
    EXPECT_EQ(cb.back(), 5);
}

TEST(CircularBuffer, IndexOldestFirst)
{
    CircularBuffer<int> cb(3);
    for (int i = 1; i <= 4; ++i)
        cb.push(i);
    EXPECT_EQ(cb.at(0), 2);
    EXPECT_EQ(cb.at(1), 3);
    EXPECT_EQ(cb.at(2), 4);
}

TEST(CircularBuffer, ClearEmpties)
{
    CircularBuffer<int> cb(2);
    cb.push(9);
    cb.clear();
    EXPECT_TRUE(cb.empty());
    EXPECT_FALSE(cb.full());
    cb.push(1);
    EXPECT_EQ(cb.front(), 1);
}

TEST(CircularBuffer, FullFlag)
{
    CircularBuffer<int> cb(2);
    EXPECT_FALSE(cb.full());
    cb.push(1);
    cb.push(2);
    EXPECT_TRUE(cb.full());
    cb.pop();
    EXPECT_FALSE(cb.full());
}

namespace
{

/** The textbook bit-serial CRC-32 over the reflected polynomial: an
 * independent reference for the table-driven implementation. */
std::uint32_t
referenceCrc32Update(std::uint32_t crc, const unsigned char *p,
                     std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc;
}

} // namespace

TEST(Crc32, MatchesTheZlibCheckValue)
{
    // The standard CRC-32 check value, which the trace format's
    // zlib/PNG CRC promises: a wrong but self-consistent CRC fails
    // here.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, MatchesBitSerialReferenceAtEveryLengthAndAlignment)
{
    Pcg32 rng(0xc0ffee);
    std::vector<unsigned char> buf(4096 + 8);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.next());

    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len + offset <= buf.size() && len <= 4096;
             len += (len < 64 ? 1 : 1 + rng.below(97))) {
            const unsigned char *p = buf.data() + offset;
            const std::uint32_t want = referenceCrc32Update(
                crc32Init(), p, len);
            ASSERT_EQ(crc32Update(crc32Init(), p, len), want)
                << "offset " << offset << " len " << len;

            // Split across chained updates at a random point (and
            // into three pieces): the running CRC carries over.
            const std::size_t cut = len ? rng.below(
                static_cast<std::uint32_t>(len + 1)) : 0;
            const std::size_t cut2 = cut + (len - cut) / 2;
            std::uint32_t crc = crc32Update(crc32Init(), p, cut);
            crc = crc32Update(crc, p + cut, cut2 - cut);
            crc = crc32Update(crc, p + cut2, len - cut2);
            ASSERT_EQ(crc, want)
                << "offset " << offset << " len " << len << " cuts "
                << cut << "," << cut2;
        }
    }

    // Every length 0..4096 once, at a random alignment.
    for (std::size_t len = 0; len <= 4096; ++len) {
        const std::size_t offset = rng.below(8);
        const unsigned char *p = buf.data() + offset;
        ASSERT_EQ(crc32(p, len),
                  crc32Final(referenceCrc32Update(crc32Init(), p, len)))
            << "offset " << offset << " len " << len;
    }
}

TEST(ConfigStore, ParsesKeyValueArgs)
{
    const char *argv[] = {"prog", "alpha=1", "beta=hello"};
    StatusOr<ConfigStore> parsed =
        ConfigStore::parseArgs(3, const_cast<char **>(argv));
    ASSERT_TRUE(parsed.ok());
    ConfigStore cs = parsed.take();
    EXPECT_TRUE(cs.has("alpha"));
    EXPECT_TRUE(cs.has("beta"));
    EXPECT_EQ(cs.getU64("alpha", 0), 1u);
    EXPECT_EQ(cs.getString("beta", ""), "hello");
}

TEST(ConfigStore, RejectsMalformedTokens)
{
    // A token without '=' (or with an empty key) must be an error, not
    // silently dropped: a mistyped override would otherwise invalidate
    // an experiment by running the defaults.
    const char *no_eq[] = {"prog", "alpha=1", "noequals"};
    EXPECT_FALSE(
        ConfigStore::parseArgs(3, const_cast<char **>(no_eq)).ok());

    const char *empty_key[] = {"prog", "=5"};
    EXPECT_FALSE(
        ConfigStore::parseArgs(2, const_cast<char **>(empty_key)).ok());
}

TEST(ConfigStore, TryGettersReportMalformedValues)
{
    ConfigStore cs;
    cs.set("n", "12x");
    cs.set("f", "fast");
    cs.set("b", "maybe");
    EXPECT_FALSE(cs.tryGetU64("n", 0).ok());
    EXPECT_FALSE(cs.tryGetDouble("f", 0.0).ok());
    EXPECT_FALSE(cs.tryGetBool("b", false).ok());
    EXPECT_EQ(cs.tryGetU64("absent", 7).value(), 7u);
}

TEST(ConfigStore, CheckKnownKeysSuggestsNearest)
{
    ConfigStore cs;
    cs.set("tabel_entries", "1024"); // typo of table_entries
    Status s = cs.checkKnownKeys({"table_entries", "degree"});
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("table_entries"), std::string::npos)
        << s.message();

    cs = ConfigStore();
    cs.set("degree", "4");
    EXPECT_TRUE(cs.checkKnownKeys({"table_entries", "degree"}).ok());
}

TEST(ConfigStore, DefaultsWhenAbsent)
{
    ConfigStore cs;
    EXPECT_EQ(cs.getU64("missing", 42), 42u);
    EXPECT_EQ(cs.getString("missing", "d"), "d");
    EXPECT_DOUBLE_EQ(cs.getDouble("missing", 1.5), 1.5);
    EXPECT_TRUE(cs.getBool("missing", true));
}

TEST(ConfigStore, BooleanForms)
{
    ConfigStore cs;
    cs.set("a", "true");
    cs.set("b", "0");
    cs.set("c", "YES");
    cs.set("d", "off");
    EXPECT_TRUE(cs.getBool("a", false));
    EXPECT_FALSE(cs.getBool("b", true));
    EXPECT_TRUE(cs.getBool("c", false));
    EXPECT_FALSE(cs.getBool("d", true));
}

TEST(ConfigStore, HexIntegers)
{
    ConfigStore cs;
    cs.set("addr", "0x40");
    EXPECT_EQ(cs.getU64("addr", 0), 64u);
}

TEST(Str, Split)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "c");
}

TEST(Str, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
}

TEST(Str, ToLower)
{
    EXPECT_EQ(toLower("AbC"), "abc");
}

TEST(Str, FmtDouble)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 1), "2.0");
}

TEST(Str, FmtSize)
{
    EXPECT_EQ(fmtSize(64), "64B");
    EXPECT_EQ(fmtSize(2 * KiB), "2KB");
    EXPECT_EQ(fmtSize(64 * MiB), "64MB");
    EXPECT_EQ(fmtSize(3 * GiB), "3GB");
}

// Either the hardware counters back the sample, or the sample says
// why not and carries a CPU-time cycle estimate tagged with its
// frequency source; thread CPU time is measured on both paths.
TEST(PerfCounters, SampleIsHardwareOrSaysWhyNot)
{
    PerfCounters pc;
    pc.start();
    volatile std::uint64_t sink = 0;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(10);
    while (std::chrono::steady_clock::now() < until)
        sink = sink + 1;
    pc.stop();

    const PerfSample &s = pc.sample();
    EXPECT_GT(s.cpuSeconds, 0.0);
    EXPECT_EQ(s.available, pc.available());
    if (s.available) {
        EXPECT_TRUE(s.reason.empty());
        EXPECT_EQ(s.nominalSource, "hardware");
        EXPECT_GT(s.cycles, 0u);
        EXPECT_GT(s.instructions, 0u);
    } else {
        EXPECT_FALSE(s.reason.empty());
        EXPECT_EQ(s.instructions, 0u);
        EXPECT_EQ(s.estimated, s.nominalHz > 0.0);
        EXPECT_EQ(s.nominalSource, s.estimated ? "/proc/cpuinfo cpu MHz"
                                               : "unavailable");
        EXPECT_EQ(s.cycles,
                  static_cast<std::uint64_t>(s.cpuSeconds * s.nominalHz));
    }
}
