/**
 * @file
 * Behavioural tests for the baseline prefetchers: each must detect
 * the access pattern its paper describes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "prefetch/amc.hh"
#include "prefetch/dcpt.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sms.hh"
#include "prefetch/solihin.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/tcp.hh"
#include "sim/hierarchy.hh"
#include "sim/prefetcher_factory.hh"
#include "verify/audit.hh"

using namespace ebcp;

namespace
{

class MockEngine : public PrefetchEngine
{
  public:
    std::vector<Addr> issued;
    unsigned tableReads = 0;
    unsigned tableWrites = 0;

    void
    issuePrefetch(Addr a, Tick, std::uint64_t, bool, unsigned) override
    {
        issued.push_back(a);
    }

    MemAccessResult
    tableRead(Tick when) override
    {
        ++tableReads;
        return {when, when + 500, false};
    }

    MemAccessResult
    tableWrite(Tick when) override
    {
        ++tableWrites;
        return {when, when + 1, false};
    }

    Tick memoryLatency() const override { return 500; }

    bool
    has(Addr a) const
    {
        return std::find(issued.begin(), issued.end(), a) != issued.end();
    }
};

L2AccessInfo
loadMiss(Addr line, Addr pc, Tick when = 0)
{
    L2AccessInfo i;
    i.pc = pc;
    i.lineAddr = line;
    i.offChip = true;
    i.when = when;
    i.complete = when + 500;
    return i;
}

L2AccessInfo
loadL2Access(Addr line, Addr pc, bool l2hit, Tick when = 0)
{
    L2AccessInfo i = loadMiss(line, pc, when);
    i.l2Hit = l2hit;
    i.offChip = !l2hit;
    return i;
}

} // namespace

// ---------------------------------------------------------------------
// Stream prefetcher
// ---------------------------------------------------------------------

TEST(StreamTest, DetectsUnitStrideAndRunsAhead)
{
    MockEngine eng;
    StreamPrefetcher sp;
    sp.setEngine(&eng);
    for (int i = 0; i < 6; ++i)
        sp.observeAccess(loadMiss(0x10000 + i * 64, 0x400, i * 10));
    EXPECT_FALSE(eng.issued.empty());
    // After confirmation it runs `distance` strides ahead.
    Addr last_seen = 0x10000 + 5 * 64;
    EXPECT_TRUE(eng.has(last_seen + 6 * 64) ||
                eng.has(last_seen + 5 * 64));
}

TEST(StreamTest, DetectsNegativeStride)
{
    MockEngine eng;
    StreamPrefetcher sp;
    sp.setEngine(&eng);
    for (int i = 0; i < 6; ++i)
        sp.observeAccess(loadMiss(0x20000 - i * 64, 0x400, i * 10));
    EXPECT_FALSE(eng.issued.empty());
    // All prefetches go downward.
    for (Addr a : eng.issued)
        EXPECT_LT(a, 0x20000u);
}

TEST(StreamTest, DetectsNonUnitStride)
{
    MockEngine eng;
    StreamPrefetcher sp;
    sp.setEngine(&eng);
    for (int i = 0; i < 6; ++i)
        sp.observeAccess(loadMiss(0x30000 + i * 192, 0x400, i * 10));
    EXPECT_FALSE(eng.issued.empty());
    EXPECT_TRUE(eng.has(0x30000 + 5 * 192 + 6 * 192) ||
                eng.has(0x30000 + 4 * 192 + 6 * 192));
}

TEST(StreamTest, IgnoresRandomAddresses)
{
    MockEngine eng;
    StreamPrefetcher sp;
    sp.setEngine(&eng);
    Addr irregular[] = {0x1000, 0x88000, 0x3340, 0x91c0, 0x20080,
                        0x5500, 0x77140, 0x1240};
    for (Addr a : irregular)
        sp.observeAccess(loadMiss(a, 0x400));
    EXPECT_TRUE(eng.issued.empty());
}

TEST(StreamTest, IgnoresInstructionMisses)
{
    MockEngine eng;
    StreamPrefetcher sp;
    sp.setEngine(&eng);
    for (int i = 0; i < 6; ++i) {
        L2AccessInfo inf = loadMiss(0x10000 + i * 64, 0x400);
        inf.isInst = true;
        sp.observeAccess(inf);
    }
    EXPECT_TRUE(eng.issued.empty());
}

// ---------------------------------------------------------------------
// GHB PC/DC
// ---------------------------------------------------------------------

TEST(GhbTest, ReplaysRecurringDeltaSequence)
{
    MockEngine eng;
    GhbPrefetcher ghb(GhbConfig::small());
    ghb.setEngine(&eng);
    Addr walk[] = {0x1000, 0x5440, 0x2c80, 0x9100};
    // Two consecutive walks of the same irregular chain at one PC.
    for (int r = 0; r < 2; ++r)
        for (Addr a : walk)
            ghb.observeAccess(loadMiss(a, 0x400));
    // During the second walk the delta pairs matched and the rest of
    // the chain was predicted.
    EXPECT_TRUE(eng.has(0x9100));
}

TEST(GhbTest, LocalizesByPc)
{
    MockEngine eng;
    GhbPrefetcher ghb(GhbConfig::small());
    ghb.setEngine(&eng);
    // Interleave two PCs; each PC's stream is separately regular.
    for (int i = 0; i < 8; ++i) {
        ghb.observeAccess(loadMiss(0x10000 + i * 64, 0x400, i * 10));
        ghb.observeAccess(loadMiss(0x90000 + i * 128, 0x800, i * 10));
    }
    EXPECT_FALSE(eng.issued.empty());
    // Predictions continue each PC's own stride.
    bool pc1_pred = false, pc2_pred = false;
    for (Addr a : eng.issued) {
        if (a > 0x10000 && a < 0x11000)
            pc1_pred = true;
        if (a > 0x90000 && a < 0x91000)
            pc2_pred = true;
    }
    EXPECT_TRUE(pc1_pred);
    EXPECT_TRUE(pc2_pred);
}

TEST(GhbTest, InstructionMissesShareOneStream)
{
    MockEngine eng;
    GhbPrefetcher ghb(GhbConfig::small());
    ghb.setEngine(&eng);
    for (int r = 0; r < 2; ++r)
        for (int i = 0; i < 5; ++i) {
            L2AccessInfo inf =
                loadMiss(0x40000 + i * 64, 0x40000 + i * 64);
            inf.isInst = true;
            ghb.observeAccess(inf);
        }
    EXPECT_FALSE(eng.issued.empty());
}

TEST(GhbTest, IgnoresL2Hits)
{
    MockEngine eng;
    GhbPrefetcher ghb(GhbConfig::small());
    ghb.setEngine(&eng);
    for (int i = 0; i < 8; ++i)
        ghb.observeAccess(loadL2Access(0x10000 + i * 64, 0x400, true));
    EXPECT_TRUE(eng.issued.empty());
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

TEST(TcpTest, PredictsRecurringTagSequenceInASet)
{
    MockEngine eng;
    TcpPrefetcher tcp(TcpConfig::small());
    tcp.setEngine(&eng);
    // Three tags missing in the same L1 set (set bits identical),
    // repeated: after history (t1,t2) the next tag is predictable.
    const Addr set_stride = 128 * 64; // one L1 "page" of sets
    Addr seq[] = {5 * set_stride, 9 * set_stride, 13 * set_stride};
    for (int r = 0; r < 3; ++r)
        for (Addr a : seq)
            tcp.observeAccess(loadMiss(a, 0x400));
    EXPECT_FALSE(eng.issued.empty());
    EXPECT_TRUE(eng.has(13 * set_stride));
}

TEST(TcpTest, PredictionStaysInTriggeringSet)
{
    MockEngine eng;
    TcpPrefetcher tcp(TcpConfig::small());
    tcp.setEngine(&eng);
    const Addr set_stride = 128 * 64;
    const Addr set_off = 3 * 64; // set 3
    Addr seq[] = {5 * set_stride + set_off, 9 * set_stride + set_off,
                  13 * set_stride + set_off};
    for (int r = 0; r < 3; ++r)
        for (Addr a : seq)
            tcp.observeAccess(loadMiss(a, 0x400));
    for (Addr a : eng.issued)
        EXPECT_EQ((a / 64) % 128, 3u);
}

TEST(TcpTest, IgnoresInstructionMisses)
{
    MockEngine eng;
    TcpPrefetcher tcp(TcpConfig::small());
    tcp.setEngine(&eng);
    for (int r = 0; r < 3; ++r)
        for (int i = 0; i < 3; ++i) {
            L2AccessInfo inf = loadMiss(0x10000 * (i + 1), 0x400);
            inf.isInst = true;
            tcp.observeAccess(inf);
        }
    EXPECT_TRUE(eng.issued.empty());
}

TEST(TcpTest, LargeConfigHasMorePhtSets)
{
    EXPECT_EQ(TcpConfig::small().phtSets, 2048u);
    EXPECT_EQ(TcpConfig::large().phtSets, 32u * 1024u);
}

// ---------------------------------------------------------------------
// SMS
// ---------------------------------------------------------------------

TEST(SmsTest, ReplaysSpatialPattern)
{
    MockEngine eng;
    SmsPrefetcher sms;
    sms.setEngine(&eng);
    // Generation 1 in region R1: trigger at offset 0 from PC 0x400,
    // then touches at offsets 3 and 7.
    const Addr r1 = 0x100000;
    sms.observeAccess(loadMiss(r1, 0x400));
    sms.observeAccess(loadMiss(r1 + 3 * 64, 0x500));
    sms.observeAccess(loadMiss(r1 + 7 * 64, 0x600));
    // Flood the AGT so the generation commits.
    for (int i = 0; i < 200; ++i)
        sms.observeAccess(loadMiss(0x800000 + i * 2048, 0x700));

    // Same trigger (PC 0x400, offset 0) in a new region: the learned
    // pattern streams offsets 3 and 7.
    const Addr r2 = 0x40000000;
    sms.observeAccess(loadMiss(r2, 0x400));
    EXPECT_TRUE(eng.has(r2 + 3 * 64));
    EXPECT_TRUE(eng.has(r2 + 7 * 64));
}

TEST(SmsTest, TriggerSignatureUsesPcAndOffset)
{
    MockEngine eng;
    SmsPrefetcher sms;
    sms.setEngine(&eng);
    const Addr r1 = 0x100000;
    sms.observeAccess(loadMiss(r1, 0x400));
    sms.observeAccess(loadMiss(r1 + 5 * 64, 0x500));
    for (int i = 0; i < 200; ++i)
        sms.observeAccess(loadMiss(0x800000 + i * 2048, 0x700));

    // A different trigger PC on a new region must not replay it.
    eng.issued.clear();
    const Addr r2 = 0x40000000;
    sms.observeAccess(loadMiss(r2, 0x999));
    EXPECT_FALSE(eng.has(r2 + 5 * 64));
}

TEST(SmsTest, AccumulatesWithinActiveRegion)
{
    MockEngine eng;
    SmsPrefetcher sms;
    sms.setEngine(&eng);
    const Addr r1 = 0x100000;
    sms.observeAccess(loadMiss(r1 + 2 * 64, 0x400));
    // Accesses inside an active region never trigger prefetches.
    eng.issued.clear();
    sms.observeAccess(loadMiss(r1 + 9 * 64, 0x500));
    EXPECT_TRUE(eng.issued.empty());
}

TEST(SmsTest, IgnoresInstructionMisses)
{
    MockEngine eng;
    SmsPrefetcher sms;
    sms.setEngine(&eng);
    L2AccessInfo inf = loadMiss(0x100000, 0x400);
    inf.isInst = true;
    sms.observeAccess(inf);
    EXPECT_TRUE(eng.issued.empty());
}

// ---------------------------------------------------------------------
// Solihin
// ---------------------------------------------------------------------

TEST(SolihinTest, LearnsSuccessorsAcrossLevels)
{
    MockEngine eng;
    SolihinPrefetcher sp(SolihinConfig::depth3width2());
    sp.setEngine(&eng);
    Addr seq[] = {0xA00, 0xB00, 0xC00, 0xD00, 0xE00};
    for (int r = 0; r < 2; ++r)
        for (int i = 0; i < 5; ++i)
            sp.observeAccess(loadMiss(seq[i], r * 5000 + i * 600));
    // On the second encounter of A, its successors B, C, D are
    // prefetched (depth 3).
    EXPECT_TRUE(eng.has(0xB00));
    EXPECT_TRUE(eng.has(0xC00));
    EXPECT_TRUE(eng.has(0xD00));
}

TEST(SolihinTest, DepthSixReachesDeeper)
{
    MockEngine eng;
    SolihinPrefetcher sp(SolihinConfig::depth6width1());
    sp.setEngine(&eng);
    Addr seq[] = {0xA00, 0xB00, 0xC00, 0xD00, 0xE00, 0xF00, 0x1100};
    for (int r = 0; r < 2; ++r)
        for (int i = 0; i < 7; ++i)
            sp.observeAccess(loadMiss(seq[i], r * 8000 + i * 600));
    EXPECT_TRUE(eng.has(0x1100)); // successor 6 of A
}

TEST(SolihinTest, WidthKeepsAlternatives)
{
    MockEngine eng;
    SolihinPrefetcher sp(SolihinConfig::depth3width2());
    sp.setEngine(&eng);
    // A is followed alternately by B and C: width 2 keeps both.
    for (int r = 0; r < 4; ++r) {
        sp.observeAccess(loadMiss(0xA00, r * 4000));
        sp.observeAccess(
            loadMiss(r % 2 ? 0xB00 : 0xC00, r * 4000 + 600));
        sp.observeAccess(loadMiss(0xD00, r * 4000 + 1200));
    }
    sp.observeAccess(loadMiss(0xA00, 50000));
    EXPECT_TRUE(eng.has(0xB00));
    EXPECT_TRUE(eng.has(0xC00));
}

TEST(SolihinTest, InvisibleToPrefetchBufferHits)
{
    // The memory-side engine only sees requests that reach memory.
    MockEngine eng;
    SolihinPrefetcher sp(SolihinConfig::depth6width1());
    sp.setEngine(&eng);
    L2AccessInfo inf = loadMiss(0xA00, 0x400);
    inf.offChip = false;
    inf.prefBufHit = true;
    sp.observeAccess(inf);
    EXPECT_EQ(eng.tableReads, 0u);
}

TEST(SolihinTest, TableTrafficCharged)
{
    MockEngine eng;
    SolihinPrefetcher sp(SolihinConfig::depth6width1());
    sp.setEngine(&eng);
    sp.observeAccess(loadMiss(0xA00, 0));
    // Prediction read + training RMW.
    EXPECT_GE(eng.tableReads, 2u);
    EXPECT_GE(eng.tableWrites, 1u);
}

// ---------------------------------------------------------------------
// Next-line
// ---------------------------------------------------------------------

#include "prefetch/nextline.hh"

TEST(NextLineTest, PrefetchesSequentialLinesAfterInstMiss)
{
    MockEngine eng;
    NextLinePrefetcher nl;
    nl.setEngine(&eng);
    L2AccessInfo inf = loadMiss(0x40000, 0x40000);
    inf.isInst = true;
    nl.observeAccess(inf);
    EXPECT_TRUE(eng.has(0x40040));
    EXPECT_TRUE(eng.has(0x40080));
    EXPECT_EQ(eng.issued.size(), 2u);
}

TEST(NextLineTest, IgnoresLoadsByDefault)
{
    MockEngine eng;
    NextLinePrefetcher nl;
    nl.setEngine(&eng);
    nl.observeAccess(loadMiss(0x40000, 0x400));
    EXPECT_TRUE(eng.issued.empty());
}

TEST(NextLineTest, LoadModeCoversLoads)
{
    MockEngine eng;
    NextLineConfig cfg;
    cfg.onLoad = true;
    cfg.depth = 3;
    NextLinePrefetcher nl(cfg);
    nl.setEngine(&eng);
    nl.observeAccess(loadMiss(0x40000, 0x400));
    EXPECT_EQ(eng.issued.size(), 3u);
    EXPECT_TRUE(eng.has(0x400c0));
}

TEST(NextLineTest, IgnoresL2Hits)
{
    MockEngine eng;
    NextLinePrefetcher nl;
    nl.setEngine(&eng);
    L2AccessInfo inf = loadL2Access(0x40000, 0x40000, true);
    inf.isInst = true;
    nl.observeAccess(inf);
    EXPECT_TRUE(eng.issued.empty());
}

// ---------------------------------------------------------------------
// DCPT (delta-correlating prediction tables)
// ---------------------------------------------------------------------

TEST(DcptTest, DetectsConstantStridePerPc)
{
    MockEngine eng;
    DcptPrefetcher pf({});
    pf.setEngine(&eng);
    // PC 0x400 misses with a constant +2-line stride; after three
    // misses the delta ring holds {2, 2} and the pair matches itself.
    for (int i = 0; i < 4; ++i)
        pf.observeAccess(loadMiss(0x10000 + i * 128, 0x400, i * 10));
    EXPECT_TRUE(eng.has(0x10000 + 4 * 128));
}

TEST(DcptTest, ReplaysRepeatingDeltaSequence)
{
    MockEngine eng;
    DcptPrefetcher pf({});
    pf.setEngine(&eng);
    // Two walks of an irregular delta pattern {1, 3, 9} from one PC.
    const std::int64_t deltas[] = {1, 3, 9, 1, 3};
    Addr line = 0x40000;
    pf.observeAccess(loadMiss(line, 0x400, 0));
    Tick t = 10;
    for (std::int64_t d : deltas) {
        line += d * 64;
        pf.observeAccess(loadMiss(line, 0x400, t));
        t += 10;
    }
    // History ... 1 3 9 1 3; the fresh pair (1, 3) matches the older
    // occurrence, whose successor was 9.
    EXPECT_TRUE(eng.has(line + 9 * 64));
}

TEST(DcptTest, LocalizesByPc)
{
    MockEngine eng;
    DcptPrefetcher pf({});
    pf.setEngine(&eng);
    // Interleaved misses: PC A strides by +1 line, PC B is random
    // noise. A per-PC predictor still sees A's clean stride.
    const Addr noise[] = {0x900000, 0x510000, 0x77f000, 0x123000,
                          0xabc000, 0x5ef000};
    for (int i = 0; i < 6; ++i) {
        pf.observeAccess(loadMiss(0x10000 + i * 64, 0xA, i * 20));
        pf.observeAccess(loadMiss(noise[i], 0xB, i * 20 + 10));
    }
    EXPECT_TRUE(eng.has(0x10000 + 6 * 64));
}

TEST(DcptTest, InFlightFilterSuppressesReissue)
{
    MockEngine eng;
    DcptPrefetcher pf({});
    pf.setEngine(&eng);
    for (int i = 0; i < 8; ++i)
        pf.observeAccess(loadMiss(0x10000 + i * 64, 0x400, i * 10));
    // A strided walk keeps predicting lines ahead; the in-flight
    // filter must keep the issue stream free of duplicates.
    std::vector<Addr> sorted = eng.issued;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
}

TEST(DcptTest, IgnoresL2HitsAndInstructionMisses)
{
    MockEngine eng;
    DcptPrefetcher pf({});
    pf.setEngine(&eng);
    for (int i = 0; i < 6; ++i) {
        L2AccessInfo inst = loadMiss(0x20000 + i * 64, 0x400, i * 10);
        inst.isInst = true;
        pf.observeAccess(inst);
        pf.observeAccess(
            loadL2Access(0x30000 + i * 64, 0x500, true, i * 10));
    }
    EXPECT_TRUE(eng.issued.empty());
}

TEST(DcptTest, AuditCleanAfterRandomizedRun)
{
    DcptConfig cfg;
    cfg.tableEntries = 16; // force LRU churn
    MockEngine eng;
    DcptPrefetcher pf(cfg);
    pf.setEngine(&eng);
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        pf.observeAccess(loadMiss((x >> 20) & ~Addr{63},
                                  (x >> 8) & 0xff, i));
    }
    AuditContext ctx;
    pf.audit(ctx);
    EXPECT_TRUE(ctx.clean());
}

// ---------------------------------------------------------------------
// AMC (access-to-miss correlation)
// ---------------------------------------------------------------------

TEST(AmcTest, PredictsMissFromPrecedingAccess)
{
    MockEngine eng;
    AmcPrefetcher pf({});
    pf.setEngine(&eng);
    // Train: access to A (an L2 hit) is followed by a miss on B.
    pf.observeAccess(loadL2Access(0x1000, 0x400, true, 0));
    pf.observeAccess(loadMiss(0x9000, 0x400, 10));
    // Replay: touching A again predicts B.
    pf.observeAccess(loadL2Access(0x1000, 0x400, true, 100));
    EXPECT_TRUE(eng.has(0x9000));
}

TEST(AmcTest, ChainsSuccessorsBreadthFirst)
{
    MockEngine eng;
    AmcPrefetcher pf({});
    pf.setEngine(&eng);
    // A -> B -> C miss chain, twice, so both edges are learned.
    for (int round = 0; round < 2; ++round) {
        Tick t = round * 100;
        pf.observeAccess(loadMiss(0x1000, 0x400, t));
        pf.observeAccess(loadMiss(0x9000, 0x400, t + 10));
        pf.observeAccess(loadMiss(0x11000, 0x400, t + 20));
        // Break the window so rounds stay independent.
        pf.observeAccess(loadL2Access(0x70000, 0x999, true, t + 30));
        pf.observeAccess(loadL2Access(0x71000, 0x999, true, t + 40));
        pf.observeAccess(loadL2Access(0x72000, 0x999, true, t + 50));
    }
    eng.issued.clear();
    pf.observeAccess(loadL2Access(0x1000, 0x400, true, 1000));
    EXPECT_TRUE(eng.has(0x9000));
    EXPECT_TRUE(eng.has(0x11000));
}

TEST(AmcTest, IgnoresInstructionAccesses)
{
    MockEngine eng;
    AmcPrefetcher pf({});
    pf.setEngine(&eng);
    for (int i = 0; i < 6; ++i) {
        L2AccessInfo inst = loadMiss(0x20000 + i * 64, 0x400, i * 10);
        inst.isInst = true;
        pf.observeAccess(inst);
    }
    EXPECT_TRUE(eng.issued.empty());
}

TEST(AmcTest, AuditCleanAfterRandomizedRun)
{
    AmcConfig cfg;
    cfg.tableEntries = 64; // force tag replacement
    MockEngine eng;
    AmcPrefetcher pf(cfg);
    pf.setEngine(&eng);
    std::uint64_t x = 98765;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        pf.observeAccess(loadL2Access((x >> 20) & ~Addr{63}, 0x400,
                                      (x & 3) == 0, i));
    }
    AuditContext ctx;
    pf.audit(ctx);
    EXPECT_TRUE(ctx.clean());
}

// ---------------------------------------------------------------------
// Factory configuration validation (coded rejection, per engine)
// ---------------------------------------------------------------------

namespace
{

Status
factoryStatus(const PrefetcherParams &p)
{
    return tryCreatePrefetcher(p).status();
}

} // namespace

TEST(FactoryValidation, RejectsZeroDegreeEverywhere)
{
    for (const char *name : {"ebcp", "dcpt", "amc"}) {
        SCOPED_TRACE(name);
        PrefetcherParams p;
        p.name = name;
        p.ebcp.prefetchDegree = 0;
        p.dcpt.degree = 0;
        p.amc.degree = 0;
        Status s = factoryStatus(p);
        EXPECT_EQ(s.code(), StatusCode::InvalidArgument) << s.toString();
    }

    // The TCP presets are fixed configurations; their gate is checked
    // directly.
    TcpConfig tcp = TcpConfig::small();
    tcp.degree = 0;
    EXPECT_EQ(tcp.validate().code(), StatusCode::InvalidArgument);
}

TEST(FactoryValidation, RejectsGarbageTableSizes)
{
    PrefetcherParams p;
    for (const char *name : {"solihin-3-2", "solihin-6-1"}) {
        SCOPED_TRACE(name);
        p = {};
        p.name = name;
        p.solihin.tableEntries = 1000; // not a power of two
        EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);
    }

    p = {};
    p.name = "ebcp";
    p.ebcp.tableEntries = 0;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p = {};
    p.name = "amc";
    p.amc.tableEntries = 12345;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p = {};
    p.name = "dcpt";
    p.dcpt.tableEntries = 0;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    GhbConfig ghb = GhbConfig::small();
    ghb.indexEntries = 100; // not a power of two
    EXPECT_EQ(ghb.validate().code(), StatusCode::InvalidArgument);

    p = {};
    p.name = "sms";
    p.sms.phtSets = 7;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p = {};
    p.name = "stream";
    p.stream.streams = 0;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p = {};
    p.name = "nextline";
    p.nextline.depth = 0;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);
}

TEST(FactoryValidation, SolihinVariantsTakeTheParamTableSize)
{
    // A one-entry table forgets chains a 1M-entry table keeps, so the
    // two prefetch streams differ only if p.solihin.tableEntries
    // reaches the variant.
    const Addr seq[] = {0xA00, 0xB00, 0xC00, 0xD00, 0xE00, 0xF00, 0x1100};
    for (const char *name : {"solihin-3-2", "solihin-6-1"}) {
        SCOPED_TRACE(name);
        std::vector<Addr> issued[2];
        for (int big = 0; big < 2; ++big) {
            PrefetcherParams p;
            p.name = name;
            p.solihin.tableEntries = big ? 1ULL << 20 : 1;
            StatusOr<std::unique_ptr<Prefetcher>> pf =
                tryCreatePrefetcher(p);
            ASSERT_TRUE(pf.ok()) << pf.status().toString();
            MockEngine eng;
            pf.value()->setEngine(&eng);
            for (int r = 0; r < 2; ++r)
                for (int i = 0; i < 7; ++i)
                    pf.value()->observeAccess(
                        loadMiss(seq[i], r * 8000 + i * 600));
            issued[big] = eng.issued;
        }
        EXPECT_NE(issued[0], issued[1]);
    }
}

TEST(FactoryValidation, UnknownNameSuggestsNearest)
{
    PrefetcherParams p;
    p.name = "ebpc";
    Status s = factoryStatus(p);
    EXPECT_EQ(s.code(), StatusCode::NotFound);
    EXPECT_NE(s.toString().find("ebcp"), std::string::npos)
        << s.toString();
}

TEST(FactoryValidation, CompositeRejectsBadShapes)
{
    PrefetcherParams p;
    p.name = "composite";
    p.composite.engines = {};
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p.composite = {};
    p.composite.engines = {"stream", "composite"};
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p.composite = {};
    p.composite.calibInterval = 0;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    p.composite = {};
    p.composite.minDegree = 5;
    p.composite.maxDegree = 2;
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);

    // A child engine's own bad config surfaces through the composite.
    p.composite = {};
    p.composite.engines = {"stream", "dcpt"};
    p.dcpt.degree = 0;
    Status s = factoryStatus(p);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.toString().find("dcpt"), std::string::npos)
        << s.toString();

    // An unknown child name too.
    p = {};
    p.name = "composite";
    p.composite.engines = {"stream", "bogus"};
    EXPECT_EQ(factoryStatus(p).code(), StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Ledger lifecycle accounting at the L2 subsystem boundary
// ---------------------------------------------------------------------

namespace
{

/** A hierarchy rig around an inert prefetcher, driven by hand. */
struct LedgerRig
{
    SimConfig cfg;
    MainMemory mem{MemConfig{}};
    NullPrefetcher pf;
    L2Subsystem l2side{cfg, mem, pf};
    Hierarchy hier{cfg, l2side, 0};

    const PrefetchLedger &ledger() { return l2side.ledger(); }

    void
    expectConserved(const char *what)
    {
        AuditContext ctx;
        l2side.audit(ctx);
        EXPECT_TRUE(ctx.clean()) << what;
    }
};

} // namespace

TEST(LedgerLifecycle, TimelyHitCountedExactlyOnce)
{
    LedgerRig r;
    r.l2side.issuePrefetch(0x9000, 0);
    r.hier.load(0x9000, 0x400, 5000); // data long since arrived
    EXPECT_EQ(r.ledger().issued(), 1u);
    EXPECT_EQ(r.ledger().timelyHits(), 1u);
    EXPECT_EQ(r.ledger().lateHits(), 0u);
    EXPECT_EQ(r.ledger().evictedUnused(), 0u);
    r.expectConserved("timely hit");

    // The hit consumed the buffer entry: a second load of the same
    // line must not recount it (it is an L2 hit now).
    r.hier.load(0x9000, 0x400, 6000);
    EXPECT_EQ(r.ledger().used(), 1u);
    r.expectConserved("second load");
}

TEST(LedgerLifecycle, LateHitCountedOnceNotAlsoEvicted)
{
    LedgerRig r;
    r.l2side.issuePrefetch(0x9000, 10000);
    r.hier.load(0x9000, 0x400, 10001); // arrives before the data
    EXPECT_EQ(r.ledger().lateHits(), 1u);
    EXPECT_EQ(r.ledger().timelyHits(), 0u);

    // Stuff the buffer until every set recycles: the late-hit entry
    // was already consumed, so no eviction may recount it.
    for (unsigned i = 0; i < 4 * r.cfg.prefetchBufferEntries; ++i)
        r.l2side.issuePrefetch(0x100000 + i * 64, 20000 + i);
    EXPECT_EQ(r.ledger().lateHits(), 1u);
    EXPECT_EQ(r.ledger().used(), 1u);
    r.expectConserved("post-churn");
}

TEST(LedgerLifecycle, EvictionCountedExactlyOncePerVictim)
{
    LedgerRig r;
    // Spread over ticks so bandwidth drops thin the stream: only
    // prefetches that actually entered the buffer count as issued.
    const unsigned n = 4 * r.cfg.prefetchBufferEntries;
    for (unsigned i = 0; i < n; ++i)
        r.l2side.issuePrefetch(0x100000 + i * 64, i * 2000);
    // Never touched: every issued prefetch is either still resident
    // or was evicted unused, each exactly once.
    EXPECT_GT(r.ledger().evictedUnused(), 0u);
    EXPECT_EQ(r.ledger().used(), 0u);
    EXPECT_EQ(r.ledger().issued(),
              r.ledger().evictedUnused() +
                  r.l2side.prefetchBuffer().validCount());
    r.expectConserved("pure churn");
}

TEST(LedgerLifecycle, MeasurementBoundaryKeepsConservation)
{
    LedgerRig r;
    // Warm-up: leave prefetches resident in the buffer.
    for (unsigned i = 0; i < 8; ++i)
        r.l2side.issuePrefetch(0x100000 + i * 64, i);
    r.l2side.beginMeasurement();
    EXPECT_EQ(r.ledger().issued(), 0u);
    EXPECT_EQ(r.ledger().carryOver(), 8u);
    r.expectConserved("right after reset");

    // Warm residents hitting or evicting during measurement must not
    // drive the lifecycle counts negative or double.
    r.hier.load(0x100000, 0x400, 50000);
    EXPECT_EQ(r.ledger().used(), 1u);
    for (unsigned i = 0; i < 4 * r.cfg.prefetchBufferEntries; ++i)
        r.l2side.issuePrefetch(0x200000 + i * 64, 60000 + i);
    r.expectConserved("post-measurement churn");
}
