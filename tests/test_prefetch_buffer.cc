/**
 * @file
 * Unit tests for the prefetch buffer (Section 5.2.3's structure).
 */

#include <gtest/gtest.h>

#include "cache/prefetch_buffer.hh"

using namespace ebcp;

TEST(PrefetchBufferTest, MissOnEmpty)
{
    PrefetchBuffer b(64, 4, 64);
    EXPECT_FALSE(b.lookup(0x1000).hit);
}

TEST(PrefetchBufferTest, HitAfterInsert)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 0, false);
    PrefBufHit h = b.lookup(0x1000);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.readyTime, 5u);
}

TEST(PrefetchBufferTest, HitConsumesEntry)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 0, false);
    EXPECT_TRUE(b.lookup(0x1000).hit);
    EXPECT_FALSE(b.lookup(0x1000).hit);
}

TEST(PrefetchBufferTest, LineGranularity)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 0, false);
    EXPECT_TRUE(b.lookup(0x103f).hit);
}

TEST(PrefetchBufferTest, InFlightHitReportsFutureReady)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 900, 0, false);
    PrefBufHit h = b.lookup(0x1000);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.readyTime, 900u);
}

TEST(PrefetchBufferTest, CarriesCorrelationIndex)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 77, true);
    PrefBufHit h = b.lookup(0x1000);
    EXPECT_TRUE(h.hasCorrIndex);
    EXPECT_EQ(h.corrIndex, 77u);
}

TEST(PrefetchBufferTest, NoCorrelationIndexByDefault)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 0, false);
    EXPECT_FALSE(b.lookup(0x1000).hasCorrIndex);
}

TEST(PrefetchBufferTest, DuplicateInsertKeepsEarlierReadyTime)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 100, 0, false);
    b.insert(0x1000, 500, 0, false);
    EXPECT_EQ(b.lookup(0x1000).readyTime, 100u);
}

TEST(PrefetchBufferTest, ContainsDoesNotConsume)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 0, false);
    EXPECT_TRUE(b.contains(0x1000));
    EXPECT_TRUE(b.contains(0x1000));
    EXPECT_TRUE(b.lookup(0x1000).hit);
}

TEST(PrefetchBufferTest, CapacityEvictsLru)
{
    // 8 entries, 4 ways -> 2 sets; flood one logical stream.
    PrefetchBuffer b(8, 4, 64);
    for (Addr i = 0; i < 16; ++i)
        b.insert(0x1000 + i * 64, 5, 0, false);
    // At most 8 lines can be resident.
    unsigned resident = 0;
    for (Addr i = 0; i < 16; ++i)
        if (b.contains(0x1000 + i * 64))
            ++resident;
    EXPECT_LE(resident, 8u);
    EXPECT_GE(resident, 4u);
}

TEST(PrefetchBufferTest, FlushEmpties)
{
    PrefetchBuffer b(64, 4, 64);
    b.insert(0x1000, 5, 0, false);
    b.flush();
    EXPECT_FALSE(b.contains(0x1000));
}

using PrefBufSizeTest = ::testing::TestWithParam<unsigned>;

TEST_P(PrefBufSizeTest, NeverExceedsCapacity)
{
    const unsigned entries = GetParam();
    PrefetchBuffer b(entries, 4, 64);
    for (Addr i = 0; i < 4096; ++i)
        b.insert(i * 64, 5, 0, false);
    unsigned resident = 0;
    for (Addr i = 0; i < 4096; ++i)
        if (b.contains(i * 64))
            ++resident;
    EXPECT_LE(resident, entries);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefBufSizeTest,
                         ::testing::Values(16u, 64u, 256u, 1024u));
