/**
 * @file
 * Tests for the hot-path containers introduced by the throughput
 * overhaul: the open-addressed FlatMap (randomized differential
 * testing against std::unordered_map), the growable RecordRing and
 * CircularBuffer's in-place pushSlot(). The ring tests deliberately
 * churn recycled slots so -DEBCP_SANITIZE=address runs exercise the
 * reuse paths.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record_ring.hh"
#include "util/circular_buffer.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

using namespace ebcp;

// --- FlatMap -------------------------------------------------------

TEST(FlatMap, BasicInsertFindErase)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(42), nullptr);

    m.insert(42, 7);
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7);
    EXPECT_EQ(m.size(), 1u);

    m[42] = 8; // overwrite through operator[]
    EXPECT_EQ(*m.find(42), 8);
    EXPECT_EQ(m.size(), 1u);

    EXPECT_TRUE(m.erase(42));
    EXPECT_FALSE(m.erase(42));
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, KeyZeroIsAnOrdinaryKey)
{
    // Slots encode emptiness in a separate flag, not in key==0.
    FlatMap<int> m;
    m.insert(0, 99);
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 99);
    EXPECT_TRUE(m.erase(0));
    EXPECT_EQ(m.find(0), nullptr);
}

TEST(FlatMap, ReservePreventsRehash)
{
    FlatMap<std::uint64_t> m;
    m.reserve(1000);
    const std::size_t cap = m.capacity();
    for (std::uint64_t k = 0; k < 1000; ++k)
        m.insert(k, k * 3);
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.stats().rehashes, 0u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), k * 3);
    }
}

TEST(FlatMap, ClearKeepsCapacityAndDropsEntries)
{
    FlatMap<int> m;
    for (std::uint64_t k = 0; k < 500; ++k)
        m.insert(k, 1);
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(123), nullptr);
    // The array is reusable immediately.
    m.insert(7, 7);
    EXPECT_EQ(*m.find(7), 7);
}

namespace
{

/** Degenerate hash forcing every key into one probe chain. */
struct CollidingHash
{
    std::uint64_t operator()(std::uint64_t) const { return 5; }
};

} // namespace

TEST(FlatMap, BackwardShiftKeepsChainsReachableUnderCollisions)
{
    // With an all-colliding hash every key lives in one linear chain,
    // so erasing from the middle exercises the backward-shift logic
    // (including wraparound) as hard as possible.
    FlatMap<std::uint64_t, CollidingHash> m;
    for (std::uint64_t k = 0; k < 12; ++k)
        m.insert(k, k + 100);

    EXPECT_TRUE(m.erase(0));  // chain head
    EXPECT_TRUE(m.erase(6));  // chain middle
    EXPECT_TRUE(m.erase(11)); // chain tail
    EXPECT_GT(m.stats().backshifts, 0u);

    for (std::uint64_t k = 0; k < 12; ++k) {
        const bool erased = k == 0 || k == 6 || k == 11;
        if (erased) {
            EXPECT_EQ(m.find(k), nullptr) << "key " << k;
        } else {
            ASSERT_NE(m.find(k), nullptr) << "key " << k;
            EXPECT_EQ(*m.find(k), k + 100);
        }
    }
}

TEST(FlatMap, RandomizedDifferentialAgainstUnorderedMap)
{
    // Mixed insert/overwrite/erase/find traffic over a small key space
    // (to force collisions, growth and backward shifts), checked
    // operation-by-operation and by full iteration against the
    // reference implementation.
    FlatMap<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Pcg32 rng(0xF1A7F1A7);

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = rng.next() % 4096;
        switch (rng.next() % 4) {
          case 0:
          case 1: { // insert / overwrite
            const std::uint64_t val = rng.next();
            m.insert(key, val);
            ref[key] = val;
            break;
          }
          case 2: { // erase
            const bool was = m.erase(key);
            EXPECT_EQ(was, ref.erase(key) == 1);
            break;
          }
          case 3: { // find
            const std::uint64_t *v = m.find(key);
            auto it = ref.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(m.size(), ref.size());
    }

    // Full-content equivalence via iteration, both directions.
    std::size_t visited = 0;
    m.forEach([&](std::uint64_t k, const std::uint64_t &v) {
        ++visited;
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "key " << k;
        EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(visited, ref.size());
    EXPECT_GT(m.stats().rehashes, 0u); // the run actually grew the map
}

TEST(FlatMap, StatsCountOperations)
{
    FlatMap<int> m;
    m.insert(1, 10);
    m.insert(2, 20);
    m.find(1);
    m.find(3);
    m.erase(2);

    const FlatMapStats &s = m.stats();
    // operator[] calls find() internally, so finds > the 2 explicit
    // calls; the hit/insert/erase tallies are exact.
    EXPECT_GE(s.finds, 2u);
    EXPECT_EQ(s.inserts, 2u);
    EXPECT_EQ(s.erases, 1u);
    // findProbes counts key comparisons: the group probe's fingerprint
    // filter means misses usually compare zero keys, so the mean sits
    // at or below one comparison per find -- but every find scans at
    // least one control-byte group, and the hits were confirmed by a
    // real comparison.
    EXPECT_LE(s.probesPerFind(), 1.0);
    EXPECT_GE(s.findGroups, s.finds);
    EXPECT_GE(s.findProbes, s.hits);

    m.resetStats();
    EXPECT_EQ(m.stats().finds, 0u);
    EXPECT_EQ(m.stats().inserts, 0u);
}

TEST(FlatMap, EraseDuringIterationViaSnapshot)
{
    // Backward-shift deletion moves later chain entries over the hole,
    // so erasing inside forEach() would let the visit skip or repeat
    // slots. The supported pattern is snapshot-then-erase; this test
    // pins that it leaves the table fully intact, with the degenerate
    // hash so every erase drags a maximal chain (including wraparound)
    // behind it.
    FlatMap<std::uint64_t, CollidingHash> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t k = 0; k < 12; ++k) {
        m.insert(k, k * 2);
        ref[k] = k * 2;
    }

    std::vector<std::uint64_t> doomed;
    m.forEach([&](std::uint64_t k, const std::uint64_t &) {
        if (k % 3 == 0)
            doomed.push_back(k);
    });
    for (std::uint64_t k : doomed) {
        EXPECT_TRUE(m.erase(k));
        ref.erase(k);
        // Tombstone-free: after every single erase the probe chains
        // are whole and the control bytes still match their keys.
        EXPECT_EQ(m.integrityError(), "");
    }

    std::size_t visited = 0;
    m.forEach([&](std::uint64_t k, const std::uint64_t &v) {
        ++visited;
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "key " << k;
        EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, RandomizedEraseHeavyStaysIntact)
{
    // Erase-dominated differential traffic: half the operations are
    // erases, so the table churns through backward shifts constantly
    // while staying near the load levels where group probes cross
    // group boundaries. integrityError() is consulted periodically --
    // it is O(n * chain) and would dominate if run per-op.
    FlatMap<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Pcg32 rng(0xE5A5E000);

    for (int op = 0; op < 60000; ++op) {
        const std::uint64_t key = rng.next() % 512;
        if (rng.next() % 2 == 0) {
            const std::uint64_t val = rng.next();
            m.insert(key, val);
            ref[key] = val;
        } else {
            EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
        }
        if (op % 5000 == 0) {
            EXPECT_EQ(m.integrityError(), "") << "after op " << op;
        }
    }
    EXPECT_EQ(m.integrityError(), "");
    EXPECT_EQ(m.size(), ref.size());
    for (auto &[k, v] : ref) {
        ASSERT_NE(m.find(k), nullptr) << "key " << k;
        EXPECT_EQ(*m.find(k), v);
    }
}

TEST(FlatMap, CorruptedControlByteTripsIntegrityAudit)
{
    // A wrong fingerprint is the failure mode specific to the
    // group-probed layout: the slot is still "used", but every group
    // probe filters it out, so the entry silently vanishes from
    // lookups. integrityError() must call that out by name.
    FlatMap<int> m;
    for (std::uint64_t k = 0; k < 8; ++k)
        m.insert(k, 1);
    ASSERT_EQ(m.integrityError(), "");

    m.corruptCtrlForTest();
    const std::string err = m.integrityError();
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST(FlatMap, HiddenSlotTripsIntegrityAudit)
{
    // corruptForTest() marks a used slot empty without fixing size or
    // chains; whichever invariant fires first (size mismatch or a
    // broken probe chain), the audit must notice.
    FlatMap<int> m;
    for (std::uint64_t k = 0; k < 8; ++k)
        m.insert(k, 1);
    ASSERT_EQ(m.integrityError(), "");
    m.corruptForTest();
    EXPECT_NE(m.integrityError(), "");
}

// --- RecordRing ----------------------------------------------------

TEST(RecordRing, FifoOrderAcrossGrowth)
{
    RecordRing<int> ring(16);
    // Offset the head so growth has to re-linearize a wrapped ring.
    for (int i = 0; i < 10; ++i) {
        ring.pushSlot() = i;
        ring.popN(1);
    }
    for (int i = 0; i < 100; ++i)
        ring.pushSlot() = i;
    EXPECT_GT(ring.stats().grows, 0u);
    EXPECT_EQ(ring.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(ring.at(0), i);
        ring.popN(1);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RecordRing, SteadyStateNeverGrows)
{
    RecordRing<std::vector<int>> ring(16);
    // Warm to the high-water mark once...
    for (int i = 0; i < 8; ++i) {
        auto &slot = ring.pushSlot();
        slot.clear();
        slot.resize(32, i);
    }
    ring.popN(ring.size());
    const std::uint64_t grows = ring.stats().grows;

    // ...then steady-state traffic below that mark recycles slots
    // (and their vectors' capacity) without any further growth.
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i) {
            auto &slot = ring.pushSlot();
            slot.clear();
            slot.resize(32, round + i);
        }
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(ring.at(0)[0], round + i);
            ring.popN(1);
        }
    }
    EXPECT_EQ(ring.stats().grows, grows);
}

TEST(RecordRing, ClearKeepsStorage)
{
    RecordRing<int> ring(16);
    for (int i = 0; i < 10; ++i)
        ring.pushSlot() = i;
    const std::size_t cap = ring.capacity();
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), cap);
}

// --- CircularBuffer::pushSlot --------------------------------------

TEST(CircularBuffer, PushSlotMatchesPushSemantics)
{
    CircularBuffer<int> a(4), b(4);
    for (int i = 0; i < 10; ++i) {
        a.push(i);
        b.pushSlot() = i;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t j = 0; j < a.size(); ++j)
            EXPECT_EQ(a.at(j), b.at(j));
    }
}

TEST(CircularBuffer, PushSlotRecyclesEvictedSlotInPlace)
{
    CircularBuffer<std::vector<int>> buf(2);
    buf.pushSlot().assign(100, 1);
    buf.pushSlot().assign(100, 2);
    // Full: the next pushSlot() recycles the evicted oldest slot, so
    // its vector keeps the existing buffer.
    const int *evicted = buf.front().data();
    std::vector<int> &slot = buf.pushSlot();
    EXPECT_EQ(slot.data(), evicted);
    slot.assign(100, 3);
    EXPECT_EQ(buf.back()[0], 3);
    EXPECT_EQ(buf.front()[0], 2);
}
