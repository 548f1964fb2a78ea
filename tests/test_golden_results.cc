/**
 * @file
 * Bit-exact SimResults regression against pre-overhaul goldens, plus
 * steady-state allocation checks on the miss path.
 *
 * The hot-path overhaul (FlatMap migrations, record ring, pooled
 * buffers, batched trace pull, ring cursors) is pure mechanism: it
 * must not change a single simulated number. The goldens below were
 * captured from the tree BEFORE any of those changes, printed with
 * %a, and are embedded as C++ hex-float literals -- so every
 * comparison is exact to the last mantissa bit, not a tolerance test.
 * A mismatch means an optimization changed simulator semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace ebcp;

namespace
{

constexpr std::uint64_t kWarm = 200'000;
constexpr std::uint64_t kMeasure = 400'000;

struct Golden
{
    const char *workload;
    const char *pf;
    std::uint64_t insts, cycles, epochs;
    double cpi, epochsPer1k, l2InstMissPer1k, l2LoadMissPer1k;
    std::uint64_t useful, issued, dropped;
    double coverage, accuracy, readBusUtil, writeBusUtil;
};

// Captured at warm=200k / measure=400k from the pre-overhaul tree.
constexpr Golden kGoldens[] = {
    {"database", "null", 400000, 2340804, 3542,
     0x1.768754f3775b8p+2, 0x1.1b5c28f5c28f6p+3, 0x1.219999999999ap+1,
     0x1.4f1eb851eb852p+3, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.648b690fceb7dp-5, 0x0p+0},
    {"database", "ebcp", 400000, 2340307, 3541,
     0x1.7672f9873ffacp+2, 0x1.1b47ae147ae15p+3, 0x1.20f5c28f5c28fp+1,
     0x1.4f0a3d70a3d71p+3, 3, 5, 0,
     0x1.34c4992d87fd9p-11, 0x1.3333333333333p-1,
     0x1.aa59217b592dfp-4, 0x1.f05b27d20509cp-5},
    {"tpcw", "null", 400000, 1562440, 1882,
     0x1.f3fb15b573eabp+1, 0x1.2d1eb851eb852p+2, 0x1.4cccccccccccdp+0,
     0x1.2ee147ae147aep+2, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.fa0fed0521b4ep-6, 0x0p+0},
    {"tpcw", "ebcp", 400000, 1562440, 1882,
     0x1.f3fb15b573eabp+1, 0x1.2d1eb851eb852p+2, 0x1.4cccccccccccdp+0,
     0x1.2ee147ae147aep+2, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.43dd796c577b1p-4, 0x1.8ab2fc561e1bcp-5},
    {"specjbb", "null", 400000, 1910665, 2814,
     0x1.31b4d6a161e4fp+2, 0x1.c23d70a3d70a4p+2, 0x1.31eb851eb851fp-1,
     0x1.5p+3, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.7ca53614b882bp-5, 0x0p+0},
    {"specjbb", "ebcp", 400000, 1909717, 2813,
     0x1.318e0221426fep+2, 0x1.c2147ae147ae1p+2, 0x1.31eb851eb851fp-1,
     0x1.4fd70a3d70a3ep+3, 2, 2, 0,
     0x1.d8701c9ac9bb6p-12, 0x1p+0,
     0x1.afcb952e0df53p-4, 0x1.e303786fa393ep-5},
    {"specjas", "null", 400000, 1983784, 2815,
     0x1.3d67caea747d8p+2, 0x1.c266666666667p+2, 0x1.eb851eb851eb8p+0,
     0x1.e1eb851eb851fp+2, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.383056f785f0dp-5, 0x0p+0},
    {"specjas", "ebcp", 400000, 1983786, 2815,
     0x1.3d67dfe32a066p+2, 0x1.c266666666667p+2, 0x1.eb851eb851eb8p+0,
     0x1.e1c28f5c28f5cp+2, 1, 1, 0,
     0x1.1566abc011567p-12, 0x1p+0,
     0x1.849577253f42ep-4, 0x1.d124f520ff0fbp-5},
};

} // namespace

TEST(GoldenResults, BitExactAcrossAllWorkloadsAndPrefetchers)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.pf);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = g.pf;
        auto src = makeWorkload(g.workload);
        const SimResults r = runOnce(cfg, pf, *src, kWarm, kMeasure);

        EXPECT_EQ(r.insts, g.insts);
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.epochs, g.epochs);
        EXPECT_EQ(r.usefulPrefetches, g.useful);
        EXPECT_EQ(r.issuedPrefetches, g.issued);
        EXPECT_EQ(r.droppedPrefetches, g.dropped);
        // EXPECT_EQ on doubles is exact comparison -- deliberate.
        EXPECT_EQ(r.cpi, g.cpi);
        EXPECT_EQ(r.epochsPer1k, g.epochsPer1k);
        EXPECT_EQ(r.l2InstMissPer1k, g.l2InstMissPer1k);
        EXPECT_EQ(r.l2LoadMissPer1k, g.l2LoadMissPer1k);
        EXPECT_EQ(r.coverage, g.coverage);
        EXPECT_EQ(r.accuracy, g.accuracy);
        EXPECT_EQ(r.readBusUtil, g.readBusUtil);
        EXPECT_EQ(r.writeBusUtil, g.writeBusUtil);
    }
}

TEST(GoldenResults, RestoredRunsReproduceGoldensExactly)
{
    // The crash-safety claim, pinned to the same pre-overhaul
    // numbers: warm a simulator, serialize it, restore the checkpoint
    // into a FRESH simulator, and the measurement must reproduce
    // every golden to the last mantissa bit. A mismatch means
    // serialization missed (or perturbed) simulator state.
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.pf);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = g.pf;

        std::string blob;
        {
            Simulator sim(cfg, pf);
            auto src = makeWorkload(g.workload);
            ASSERT_TRUE(sim.runWarm(*src, kWarm).ok());
            StatusOr<std::string> b = sim.serializeCheckpoint(*src);
            ASSERT_TRUE(b.ok()) << b.status().toString();
            blob = b.take();
        }

        Simulator sim(cfg, pf);
        auto src = makeWorkload(g.workload);
        ASSERT_TRUE(sim.restoreCheckpoint(blob, *src).ok());
        StatusOr<SimResults> rr = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(rr.ok()) << rr.status().toString();
        const SimResults &r = rr.value();

        EXPECT_EQ(r.insts, g.insts);
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.epochs, g.epochs);
        EXPECT_EQ(r.usefulPrefetches, g.useful);
        EXPECT_EQ(r.issuedPrefetches, g.issued);
        EXPECT_EQ(r.droppedPrefetches, g.dropped);
        EXPECT_EQ(r.cpi, g.cpi);
        EXPECT_EQ(r.epochsPer1k, g.epochsPer1k);
        EXPECT_EQ(r.l2InstMissPer1k, g.l2InstMissPer1k);
        EXPECT_EQ(r.l2LoadMissPer1k, g.l2LoadMissPer1k);
        EXPECT_EQ(r.coverage, g.coverage);
        EXPECT_EQ(r.accuracy, g.accuracy);
        EXPECT_EQ(r.readBusUtil, g.readBusUtil);
        EXPECT_EQ(r.writeBusUtil, g.writeBusUtil);
    }
}

TEST(SteadyState, MissPathStructuresStopAllocating)
{
    // Warm a full system, then run twice as many further instructions
    // and require the warmed hot structures to serve them without a
    // single new allocation: the record ring must not grow and the
    // MSHR map (reserved at construction) must never have rehashed.
    // The correlation table is excluded deliberately -- it keeps
    // admitting new keys by design until it reaches its configured
    // entry count.
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    sim.run(*src, 100'000, 100'000);

    const RingStats ring0 = src->ringStats();
    const FlatMapStats mshr0 = sim.l2side().mshrs().mapStats();
    EXPECT_EQ(mshr0.rehashes, 0u);
    // The workload pre-reserves the ring from its own footprint bound
    // at construction (one counted reserve, zero growths), so even
    // the warm-up phase never reallocated.
    EXPECT_EQ(ring0.grows, 0u);

    sim.core().run(*src, 400'000);

    const RingStats ring1 = src->ringStats();
    const FlatMapStats mshr1 = sim.l2side().mshrs().mapStats();
    EXPECT_EQ(ring1.grows, 0u);
    EXPECT_EQ(mshr1.rehashes, 0u);
    // ...while the structures were genuinely exercised.
    EXPECT_GT(ring1.pushes, ring0.pushes);
    EXPECT_GT(mshr1.finds, mshr0.finds);
}

TEST(SteadyState, BatchedPullMatchesSingleRecordPull)
{
    // The core borrows spans of up to its remaining budget; pulling
    // 64-record spans and pulling one record at a time must yield the
    // identical stream.
    auto a = makeWorkload("tpcw");
    auto b = makeWorkload("tpcw");
    TraceRecord ra;
    for (int round = 0; round < 2000; ++round) {
        const TraceRecord *batch = nullptr;
        const std::size_t got = b->peekSpan(&batch, 64);
        ASSERT_GT(got, 0u);
        ASSERT_LE(got, 64u);
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_TRUE(a->next(ra));
            EXPECT_EQ(ra.pc, batch[i].pc);
            EXPECT_EQ(ra.addr, batch[i].addr);
            EXPECT_EQ(static_cast<int>(ra.op),
                      static_cast<int>(batch[i].op));
            EXPECT_EQ(ra.dstReg, batch[i].dstReg);
            EXPECT_EQ(ra.srcReg0, batch[i].srcReg0);
            EXPECT_EQ(ra.srcReg1, batch[i].srcReg1);
        }
        b->consumeSpan(got);
    }
}
