/**
 * @file
 * Integration tests for the memory hierarchy: cache paths, prefetch
 * buffer interplay, MSHR merging, epoch accounting and the prefetch
 * engine services.
 */

#include <gtest/gtest.h>

#include "prefetch/prefetcher.hh"
#include "sim/hierarchy.hh"

using namespace ebcp;

namespace
{

/** Records the access stream the hierarchy exposes to prefetchers. */
class SpyPrefetcher : public Prefetcher
{
  public:
    SpyPrefetcher() : Prefetcher("spy") {}

    std::vector<L2AccessInfo> seen;
    std::vector<std::pair<Addr, std::uint64_t>> pfHits;

    void observeAccess(const L2AccessInfo &i) override
    {
        seen.push_back(i);
    }

    void
    observePrefetchHit(Addr line, std::uint64_t ci, Tick) override
    {
        pfHits.push_back({line, ci});
    }
};

struct Rig
{
    SimConfig cfg;
    MainMemory mem{MemConfig{}};
    SpyPrefetcher spy;
    L2Subsystem l2side{cfg, mem, spy};
    Hierarchy hier{cfg, l2side, 0};
};

} // namespace

TEST(HierarchyTest, L1DHitIsFast)
{
    Rig r;
    r.hier.load(0x1000, 0x400, 0); // cold
    MemOutcome o = r.hier.load(0x1000, 0x400, 5000);
    EXPECT_EQ(o.complete, 5000 + r.cfg.l1d.hitLatency);
    EXPECT_FALSE(o.offChip);
}

TEST(HierarchyTest, ColdLoadGoesOffChip)
{
    Rig r;
    MemOutcome o = r.hier.load(0x1000, 0x400, 0);
    EXPECT_TRUE(o.offChip);
    EXPECT_GE(o.complete, r.mem.config().latency);
    EXPECT_EQ(r.l2side.offChipLoad(), 1u);
}

TEST(HierarchyTest, L2HitAfterL1Eviction)
{
    Rig r;
    r.hier.load(0x1000, 0x400, 0);
    // Evict 0x1000 from the 4-way 128-set L1 by loading 4 conflicting
    // lines (same L1 set: stride = 128*64).
    for (int i = 1; i <= 4; ++i)
        r.hier.load(0x1000 + i * 128 * 64, 0x400, 10000 + i * 1000);
    MemOutcome o = r.hier.load(0x1000, 0x400, 50000);
    EXPECT_FALSE(o.offChip); // L2 still has it
    EXPECT_EQ(o.complete,
              50000 + r.cfg.l1d.hitLatency + r.cfg.l2.hitLatency);
}

TEST(HierarchyTest, PrefetchedLineAvertsOffChipMiss)
{
    Rig r;
    r.l2side.issuePrefetch(0x9000, 0, 0, false);
    MemOutcome o = r.hier.load(0x9000, 0x400, 5000);
    EXPECT_FALSE(o.offChip);
    EXPECT_EQ(r.l2side.ledger().used(), 1u);
    EXPECT_EQ(r.l2side.offChipLoad(), 0u);
}

TEST(HierarchyTest, LatePrefetchHitWaitsButIsBounded)
{
    Rig r;
    r.l2side.issuePrefetch(0x9000, 10000, 0, false);
    // Demand arrives well before the prefetch data.
    MemOutcome o = r.hier.load(0x9000, 0x400, 10001);
    EXPECT_TRUE(o.offChip); // residual stall counts as off-chip
    // Bounded by the demand path.
    EXPECT_LE(o.complete, 10001 + r.cfg.l1d.hitLatency +
                              r.cfg.l2.hitLatency +
                              r.mem.config().latency);
    EXPECT_GT(o.complete, 10001 + r.cfg.l1d.hitLatency +
                              r.cfg.l2.hitLatency);
}

TEST(HierarchyTest, PrefetchHitPromotesToL2)
{
    Rig r;
    r.l2side.issuePrefetch(0x9000, 0, 0, false);
    r.hier.load(0x9000, 0x400, 5000);
    EXPECT_TRUE(r.l2side.l2().contains(0x9000));
}

TEST(HierarchyTest, PrefetchFilteredWhenResident)
{
    Rig r;
    r.hier.load(0x9000, 0x400, 0); // now in L2
    r.l2side.issuePrefetch(0x9000, 5000, 0, false);
    EXPECT_EQ(r.l2side.ledger().issued(), 0u);
}

TEST(HierarchyTest, DuplicatePrefetchFiltered)
{
    Rig r;
    r.l2side.issuePrefetch(0x9000, 0, 0, false);
    r.l2side.issuePrefetch(0x9000, 1, 0, false);
    EXPECT_EQ(r.l2side.ledger().issued(), 1u);
}

TEST(HierarchyTest, PrefetchHitReportsCorrIndex)
{
    Rig r;
    r.l2side.issuePrefetch(0x9000, 0, 42, true);
    r.hier.load(0x9000, 0x400, 5000);
    ASSERT_EQ(r.spy.pfHits.size(), 1u);
    EXPECT_EQ(r.spy.pfHits[0].second, 42u);
}

TEST(HierarchyTest, MshrMergesSameLineMisses)
{
    Rig r;
    MemOutcome a = r.hier.load(0x9000, 0x400, 0);
    // Evict from L1 is impossible this fast, so use a different
    // offset in the same line via the instruction path? Simpler: a
    // second load to the same line while in flight, after forcing an
    // L1 miss with a conflicting fill is intricate; instead check the
    // fetch path against the load path's in-flight miss.
    MemOutcome b = r.hier.fetchInst(0x9010, 1);
    EXPECT_TRUE(b.offChip);
    // Merged: completes with (or just after) the original miss, far
    // sooner than a fresh 500-cycle access.
    EXPECT_LE(b.complete, a.complete + 25);
}

TEST(HierarchyTest, EpochTrackerCountsOverlapsOnce)
{
    Rig r;
    r.hier.load(0x9000, 0x400, 0);
    r.hier.load(0xa000, 0x400, 10);
    r.hier.load(0xb000, 0x400, 20);
    EXPECT_EQ(r.l2side.epochTracker().epochs(), 1u);
    r.hier.load(0xc000, 0x400, 5000);
    EXPECT_EQ(r.l2side.epochTracker().epochs(), 2u);
}

TEST(HierarchyTest, PrefetcherSeesL1MissStream)
{
    Rig r;
    r.hier.load(0x9000, 0x440, 0);
    r.hier.load(0x9000, 0x440, 5000); // L1 hit: not seen
    ASSERT_EQ(r.spy.seen.size(), 1u);
    EXPECT_EQ(r.spy.seen[0].pc, 0x440u);
    EXPECT_TRUE(r.spy.seen[0].offChip);
    EXPECT_FALSE(r.spy.seen[0].isInst);
}

TEST(HierarchyTest, InstFetchesMarked)
{
    Rig r;
    r.hier.fetchInst(0x4000, 0);
    ASSERT_EQ(r.spy.seen.size(), 1u);
    EXPECT_TRUE(r.spy.seen[0].isInst);
}

TEST(HierarchyTest, L1IHitNotVisibleToPrefetcher)
{
    Rig r;
    r.hier.fetchInst(0x4000, 0);
    r.hier.fetchInst(0x4004, 100); // same line: L1I hit
    EXPECT_EQ(r.spy.seen.size(), 1u);
}

TEST(HierarchyTest, StoresDoNotCountEpochs)
{
    Rig r;
    r.hier.store(0x9000, 0);
    EXPECT_EQ(r.l2side.epochTracker().epochs(), 0u);
    EXPECT_TRUE(r.spy.seen.empty());
}

TEST(HierarchyTest, StoreMissConsumesWriteBus)
{
    Rig r;
    Tick busy_before = r.mem.writeChannel().busyTicks();
    r.hier.store(0x9000, 0);
    EXPECT_GT(r.mem.writeChannel().busyTicks(), busy_before);
}

TEST(HierarchyTest, StoreHitDrainsFast)
{
    Rig r;
    r.hier.load(0x9000, 0x400, 0);
    Tick drain = r.hier.store(0x9000, 5000);
    EXPECT_EQ(drain, 5001u);
}

TEST(HierarchyTest, PerfectL2NeverGoesOffChip)
{
    SimConfig cfg;
    cfg.perfectL2 = true;
    MainMemory mem{MemConfig{}};
    SpyPrefetcher spy;
    L2Subsystem l2side(cfg, mem, spy);
    Hierarchy h(cfg, l2side, 0);
    for (Addr a = 0; a < 100; ++a) {
        MemOutcome o = h.load(0x100000 + a * 64, 0x400, a * 10);
        EXPECT_FALSE(o.offChip);
    }
    EXPECT_EQ(l2side.epochTracker().epochs(), 0u);
}

TEST(HierarchyTest, TableAccessesAreLowPriority)
{
    Rig r;
    // Demand traffic at t=0 occupies the read bus.
    r.hier.load(0x9000, 0x400, 0);
    MemAccessResult t = r.l2side.tableRead(0);
    EXPECT_GE(t.grant, 20u); // waits behind the demand transfer
}

TEST(HierarchyTest, MeasurementResetClearsCounters)
{
    Rig r;
    r.hier.load(0x9000, 0x400, 0);
    r.hier.beginMeasurement();
    r.l2side.beginMeasurement();
    EXPECT_EQ(r.l2side.offChipLoad(), 0u);
    EXPECT_EQ(r.l2side.epochTracker().epochs(), 0u);
}
