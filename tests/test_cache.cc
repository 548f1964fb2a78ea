/**
 * @file
 * Unit tests for the cache library: tag array semantics, replacement,
 * the Cache wrapper and configuration validation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "cache/tag_array.hh"
#include "ckpt/archiver.hh"
#include "ckpt/containers.hh"
#include "util/random.hh"

using namespace ebcp;

namespace
{

CacheConfig
smallCache()
{
    CacheConfig c;
    c.name = "t";
    c.sizeBytes = 4 * KiB; // 16 sets x 4 ways x 64B
    c.ways = 4;
    c.lineBytes = 64;
    c.hitLatency = 3;
    return c;
}

/**
 * Naive reference tag array: one {tag, valid, dirty, stamp} struct per
 * way and a linear valid/tag scan, with the victim rule spelled out
 * (first invalid way, else a random way or the lowest-indexed oldest
 * stamp). Its checkpoint writes that struct way by way -- the byte
 * layout the real array must keep.
 */
class RefTagArray
{
  public:
    RefTagArray(unsigned sets, unsigned ways, unsigned line_bytes,
                ReplPolicy repl)
        : sets_(sets), ways_(ways), shift_(floorLog2(line_bytes)),
          repl_(repl), v_(static_cast<std::size_t>(sets) * ways)
    {}

    bool contains(Addr a) const { return find(a) >= 0; }

    bool
    access(Addr a, bool write)
    {
        const int w = find(a);
        if (w < 0)
            return false;
        Way &wy = way(a, static_cast<unsigned>(w));
        wy.stamp = ++counter_;
        wy.dirty = wy.dirty || write;
        return true;
    }

    Eviction
    insert(Addr a, bool dirty)
    {
        const int hit = find(a);
        if (hit >= 0) {
            Way &wy = way(a, static_cast<unsigned>(hit));
            wy.stamp = ++counter_;
            wy.dirty = wy.dirty || dirty;
            return {};
        }
        Way &wy = way(a, victim(a));
        Eviction ev;
        if (wy.valid) {
            ev.valid = true;
            ev.dirty = wy.dirty;
            ev.lineAddr = wy.tag << shift_;
        }
        wy = Way{a >> shift_, true, dirty, ++counter_};
        return ev;
    }

    bool
    invalidate(Addr a)
    {
        const int w = find(a);
        if (w < 0)
            return false;
        way(a, static_cast<unsigned>(w)).valid = false;
        return true;
    }

    std::vector<Addr>
    validLines() const
    {
        std::vector<Addr> out;
        for (const Way &w : v_)
            if (w.valid)
                out.push_back(w.tag << shift_);
        return out;
    }

    std::string
    ckptBytes()
    {
        std::string out;
        ckpt::Archiver ar = ckpt::Archiver::saver(out);
        ar.fixedVec(v_, [](ckpt::Archiver &a, Way &w) {
            a.u64(w.tag);
            a.boolean(w.valid);
            a.boolean(w.dirty);
            a.u64(w.stamp);
        }, "tag array ways");
        ar.u64(counter_);
        ckpt::ckptPcg32(ar, rng_);
        return out;
    }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };

    unsigned setOf(Addr a) const { return (a >> shift_) & (sets_ - 1); }

    Way &way(Addr a, unsigned w) { return v_[setOf(a) * ways_ + w]; }

    int
    find(Addr a) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            const Way &wy = v_[setOf(a) * ways_ + w];
            if (wy.valid && wy.tag == (a >> shift_))
                return static_cast<int>(w);
        }
        return -1;
    }

    unsigned
    victim(Addr a)
    {
        for (unsigned w = 0; w < ways_; ++w)
            if (!way(a, w).valid)
                return w;
        if (repl_ == ReplPolicy::Random)
            return rng_.below(ways_);
        unsigned best = 0;
        for (unsigned w = 1; w < ways_; ++w)
            if (way(a, w).stamp < way(a, best).stamp)
                best = w;
        return best;
    }

    unsigned sets_;
    unsigned ways_;
    unsigned shift_;
    ReplPolicy repl_;
    std::vector<Way> v_;
    std::uint64_t counter_ = 0;
    Pcg32 rng_{12345};
};

std::string
ckptBytes(TagArray &t)
{
    std::string out;
    ckpt::Archiver ar = ckpt::Archiver::saver(out);
    t.ckpt(ar);
    return out;
}

std::vector<Addr>
validLines(const TagArray &t)
{
    std::vector<Addr> out;
    t.forEachValidLine([&out](Addr a) { out.push_back(a); });
    return out;
}

/**
 * Drive @p ops random operations through a real and a reference array
 * of the given geometry, comparing every answer. Addresses come from a
 * pool three times the capacity so sets keep overflowing.
 */
void
compareWithReference(unsigned sets, unsigned ways, ReplPolicy repl,
                     bool with_invalidate, std::uint64_t seed,
                     unsigned ops)
{
    TagArray real(sets, ways, 64, repl);
    RefTagArray ref(sets, ways, 64, repl);
    Pcg32 rng(seed);
    const std::uint32_t pool = sets * ways * 3;
    for (unsigned i = 0; i < ops; ++i) {
        const Addr a = (static_cast<Addr>(rng.below(pool)) << 6) |
                       rng.below(64);
        const unsigned pick = rng.below(100);
        if (pick < 45) {
            const bool write = rng.below(4) == 0;
            ASSERT_EQ(real.access(a, write), ref.access(a, write)) << i;
        } else if (pick < 85) {
            const bool dirty = rng.below(3) == 0;
            const Eviction e = real.insert(a, dirty);
            const Eviction r = ref.insert(a, dirty);
            ASSERT_EQ(e.valid, r.valid) << i;
            ASSERT_EQ(e.dirty, r.dirty) << i;
            ASSERT_EQ(e.lineAddr, r.lineAddr) << i;
        } else if (pick < 95 || !with_invalidate) {
            ASSERT_EQ(real.contains(a), ref.contains(a)) << i;
        } else {
            ASSERT_EQ(real.invalidate(a), ref.invalidate(a)) << i;
        }
        if (i % 997 == 0) {
            ASSERT_EQ(real.validCount(), ref.validLines().size()) << i;
            ASSERT_EQ(validLines(real), ref.validLines()) << i;
        }
    }
    EXPECT_EQ(real.validCount(), ref.validLines().size());
    EXPECT_EQ(validLines(real), ref.validLines());
    // Only invalidate() -- which no simulator path calls -- leaves an
    // invalid way with a stale tag and stamp in the reference.
    if (!with_invalidate) {
        EXPECT_EQ(ckptBytes(real), ref.ckptBytes());
    }
}

} // namespace

TEST(TagArrayReference, MatchesNaiveScanAtL1AndL2Geometry)
{
    // L1: 32 KiB 4-way; L2: 2 MiB 4-way (SimConfig defaults), plus an
    // 8-way shape so the scan covers more than one compare group.
    struct Shape
    {
        unsigned sets, ways;
    };
    for (const Shape s : {Shape{128, 4}, Shape{8192, 4}, Shape{64, 8}}) {
        for (const ReplPolicy p : {ReplPolicy::Lru, ReplPolicy::Random}) {
            for (const bool inv : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << s.sets << "x" << s.ways << " "
                             << (p == ReplPolicy::Lru ? "lru" : "random")
                             << (inv ? " +invalidate" : ""));
                compareWithReference(s.sets, s.ways, p, inv,
                                     s.sets * 31 + s.ways + inv, 60000);
            }
        }
    }
}

TEST(TagArrayReference, FilledArrayCheckpointKeepsStructLayout)
{
    // A filled array restores into a fresh one and re-serializes to
    // the same bytes, which equal the reference struct layout.
    TagArray a(128, 4, 64);
    RefTagArray ref(128, 4, 64, ReplPolicy::Lru);
    Pcg32 rng(7);
    for (unsigned i = 0; i < 5000; ++i) {
        const Addr addr = static_cast<Addr>(rng.below(4096)) << 6;
        if (!a.access(addr, i % 5 == 0))
            a.insert(addr, i % 7 == 0);
        if (!ref.access(addr, i % 5 == 0))
            ref.insert(addr, i % 7 == 0);
    }
    const std::string bytes = ckptBytes(a);
    EXPECT_EQ(bytes, ref.ckptBytes());

    TagArray b(128, 4, 64);
    ckpt::Archiver ld = ckpt::Archiver::loader(bytes.data(), bytes.size());
    b.ckpt(ld);
    ASSERT_TRUE(ld.ok()) << ld.status().toString();
    EXPECT_EQ(ckptBytes(b), bytes);
    EXPECT_EQ(validLines(b), validLines(a));
}

TEST(TagArrayTest, MissThenHitAfterInsert)
{
    TagArray t(16, 4, 64);
    EXPECT_FALSE(t.access(0x1000, false));
    t.insert(0x1000);
    EXPECT_TRUE(t.access(0x1000, false));
}

TEST(TagArrayTest, SameLineDifferentOffsetsHit)
{
    TagArray t(16, 4, 64);
    t.insert(0x1000);
    EXPECT_TRUE(t.access(0x103f, false));
    EXPECT_FALSE(t.access(0x1040, false));
}

TEST(TagArrayTest, LruEvictsLeastRecentlyUsed)
{
    TagArray t(1, 2, 64); // one set, two ways
    t.insert(0x0);
    t.insert(0x40);
    t.access(0x0, false); // make 0x0 MRU
    Eviction ev = t.insert(0x80);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x40u);
    EXPECT_TRUE(t.contains(0x0));
    EXPECT_FALSE(t.contains(0x40));
}

TEST(TagArrayTest, InsertPrefersInvalidWays)
{
    TagArray t(1, 4, 64);
    t.insert(0x0);
    Eviction ev = t.insert(0x40);
    EXPECT_FALSE(ev.valid);
}

TEST(TagArrayTest, DirtyBitTracksWrites)
{
    TagArray t(1, 1, 64);
    t.insert(0x0);
    t.access(0x0, true);
    Eviction ev = t.insert(0x40);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(TagArrayTest, InsertDirtyFlag)
{
    TagArray t(1, 1, 64);
    t.insert(0x0, true);
    Eviction ev = t.insert(0x40);
    EXPECT_TRUE(ev.dirty);
}

TEST(TagArrayTest, ReinsertRefreshesNotEvicts)
{
    TagArray t(1, 2, 64);
    t.insert(0x0);
    t.insert(0x40);
    Eviction ev = t.insert(0x0); // already present
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(t.contains(0x40));
}

TEST(TagArrayTest, InvalidateRemovesLine)
{
    TagArray t(16, 4, 64);
    t.insert(0x1000);
    EXPECT_TRUE(t.invalidate(0x1000));
    EXPECT_FALSE(t.contains(0x1000));
    EXPECT_FALSE(t.invalidate(0x1000));
}

TEST(TagArrayTest, ResetClearsEverything)
{
    TagArray t(16, 4, 64);
    t.insert(0x1000);
    t.insert(0x2000);
    t.reset();
    EXPECT_EQ(t.validCount(), 0u);
}

TEST(TagArrayTest, SetIndexMapsBySetBits)
{
    TagArray t(16, 4, 64);
    EXPECT_EQ(t.setIndex(0x0), 0u);
    EXPECT_EQ(t.setIndex(0x40), 1u);
    EXPECT_EQ(t.setIndex(0x40 * 16), 0u); // wraps
}

TEST(TagArrayTest, ConflictsOnlyWithinSet)
{
    TagArray t(2, 1, 64); // 2 sets, direct-mapped
    t.insert(0x0);   // set 0
    t.insert(0x40);  // set 1
    EXPECT_TRUE(t.contains(0x0));
    EXPECT_TRUE(t.contains(0x40));
    t.insert(0x80);  // set 0 again: evicts 0x0 only
    EXPECT_FALSE(t.contains(0x0));
    EXPECT_TRUE(t.contains(0x40));
}

TEST(TagArrayTest, RandomPolicyStillEvictsSomething)
{
    TagArray t(1, 2, 64, ReplPolicy::Random);
    t.insert(0x0);
    t.insert(0x40);
    Eviction ev = t.insert(0x80);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(t.validCount(), 2u);
}

TEST(CacheTest, HitMissCounters)
{
    Cache c(smallCache());
    c.access(0x1000, false);
    c.fill(0x1000);
    c.access(0x1000, false);
    c.access(0x1000, false);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(CacheTest, AccessDoesNotAllocate)
{
    Cache c(smallCache());
    c.access(0x1000, false);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(CacheTest, FillEvictionReporting)
{
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 128; // 1 set, 2 ways... 128/(4*64) < 1
    cfg.ways = 2;
    // 128B / (2 ways * 64B) = 1 set.
    Cache c(cfg);
    c.fill(0x0, true);
    c.fill(0x40 * 16, false);
    Eviction ev = c.fill(0x40 * 32, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty); // LRU victim was the dirty first fill
}

TEST(CacheTest, FlushEmpties)
{
    Cache c(smallCache());
    c.fill(0x1000);
    c.flush();
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(CacheTest, LineAddrHelper)
{
    Cache c(smallCache());
    EXPECT_EQ(c.lineAddr(0x1039), 0x1000u);
}

TEST(CacheConfigTest, SetsComputation)
{
    CacheConfig c;
    c.sizeBytes = 32 * KiB;
    c.ways = 4;
    c.lineBytes = 64;
    EXPECT_EQ(c.sets(), 128u);
}

TEST(CacheConfigTest, PaperGeometries)
{
    // The paper's L1: 32KB/4-way/64B; L2: 2MB/4-way/64B.
    CacheConfig l1;
    l1.sizeBytes = 32 * KiB;
    l1.ways = 4;
    EXPECT_EQ(l1.sets(), 128u);

    CacheConfig l2;
    l2.sizeBytes = 2 * MiB;
    l2.ways = 4;
    EXPECT_EQ(l2.sets(), 8192u);
}

using CacheGeometryTest = ::testing::TestWithParam<unsigned>;

TEST_P(CacheGeometryTest, FillUpToCapacityNoEviction)
{
    const unsigned ways = GetParam();
    CacheConfig cfg;
    cfg.name = "p";
    cfg.lineBytes = 64;
    cfg.ways = ways;
    cfg.sizeBytes = std::uint64_t{16} * ways * 64; // 16 sets
    Cache c(cfg);
    // Fill exactly to capacity: no valid line may be displaced.
    for (unsigned s = 0; s < 16; ++s) {
        for (unsigned w = 0; w < ways; ++w) {
            Addr a = (static_cast<Addr>(w) * 16 + s) * 64;
            Eviction ev = c.fill(a);
            EXPECT_FALSE(ev.valid);
        }
    }
    // One more line per set must now evict.
    Eviction ev = c.fill(static_cast<Addr>(ways) * 16 * 64);
    EXPECT_TRUE(ev.valid);
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheGeometryTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));
