/**
 * @file
 * End-to-end simulator tests: factory coverage, result sanity, the
 * epoch-model decomposition on real runs, and the headline behaviour
 * (EBCP improves performance on a correlated workload).
 */

#include <gtest/gtest.h>

#include "epoch/mlp_model.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

#include "results_print.hh"

using namespace ebcp;

namespace
{

/** Small but representative run. */
SimResults
quickRun(const std::string &workload, const std::string &pf,
         std::uint64_t warm = 300000, std::uint64_t measure = 600000)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = pf;
    auto src = makeWorkload(workload);
    return runOnce(cfg, p, *src, warm, measure);
}

} // namespace

TEST(FactoryTest, AllNamesConstruct)
{
    for (const auto &n : prefetcherNames()) {
        PrefetcherParams p;
        p.name = n;
        auto pf = createPrefetcher(p);
        ASSERT_NE(pf, nullptr) << n;
    }
}

TEST(FactoryTest, EbcpMinusSetsVariant)
{
    PrefetcherParams p;
    p.name = "ebcp-minus";
    auto pf = createPrefetcher(p);
    auto *e = dynamic_cast<EpochBasedPrefetcher *>(pf.get());
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->config().minusVariant);
}

TEST(SimulatorTest, BaselineResultsSane)
{
    SimResults r = quickRun("database", "null");
    EXPECT_GT(r.cpi, 1.0);
    EXPECT_LT(r.cpi, 20.0);
    EXPECT_GT(r.epochsPer1k, 0.5);
    EXPECT_GT(r.l2LoadMissPer1k, 0.5);
    EXPECT_EQ(r.insts, 600000u);
    EXPECT_EQ(r.usefulPrefetches, 0u);
    EXPECT_EQ(r.issuedPrefetches, 0u);
}

TEST(SimulatorTest, DeterministicAcrossRuns)
{
    EXPECT_EQ(quickRun("tpcw", "null"), quickRun("tpcw", "null"));
}

TEST(SimulatorTest, CoverageAccuracyInUnitRange)
{
    for (const char *pf : {"ebcp", "stream", "sms", "solihin-6-1"}) {
        SimResults r = quickRun("database", pf);
        EXPECT_GE(r.coverage, 0.0) << pf;
        EXPECT_LE(r.coverage, 1.0) << pf;
        EXPECT_GE(r.accuracy, 0.0) << pf;
        EXPECT_LE(r.accuracy, 1.0) << pf;
    }
}

TEST(SimulatorTest, EbcpImprovesCorrelatedWorkload)
{
    // Use a longer window so the correlation table trains.
    SimConfig cfg;
    PrefetcherParams base;
    base.name = "null";
    auto s1 = makeWorkload("database");
    SimResults rb = runOnce(cfg, base, *s1, 1000000, 2000000);

    PrefetcherParams pf;
    pf.name = "ebcp";
    auto s2 = makeWorkload("database");
    SimResults rp = runOnce(cfg, pf, *s2, 1000000, 2000000);

    EXPECT_GT(rp.usefulPrefetches, 100u);
    EXPECT_GT(improvementPct(rb, rp), 1.0);
    EXPECT_LT(rp.epochsPer1k, rb.epochsPer1k);
}

TEST(SimulatorTest, PerfectL2GivesCpiPerf)
{
    SimConfig cfg;
    cfg.perfectL2 = true;
    PrefetcherParams p;
    p.name = "null";
    auto src = makeWorkload("database");
    SimResults perf = runOnce(cfg, p, *src, 200000, 400000);
    SimResults real = quickRun("database", "null", 200000, 400000);
    EXPECT_LT(perf.cpi, real.cpi);
    EXPECT_EQ(perf.epochs, 0u);
}

TEST(SimulatorTest, EpochModelDecompositionHolds)
{
    // CPI_overall = CPI_perf (1-Overlap) + EPI * penalty should hold
    // with a plausible Overlap in [0,1] (Section 2.1).
    SimConfig cfg;
    cfg.perfectL2 = true;
    PrefetcherParams p;
    p.name = "null";
    auto s1 = makeWorkload("specjbb");
    SimResults perf = runOnce(cfg, p, *s1, 300000, 600000);

    SimResults real = quickRun("specjbb", "null");
    const double epi = real.epochsPer1k / 1000.0;
    const double ov =
        solveOverlap(real.cpi, perf.cpi, epi, MemConfig{}.latency);
    EXPECT_GT(ov, 0.0);
    EXPECT_LT(ov, 1.0);
}

TEST(SimulatorTest, ImprovementHelpers)
{
    SimResults base, pf;
    base.cpi = 2.0;
    pf.cpi = 1.6;
    EXPECT_NEAR(improvementPct(base, pf), 25.0, 1e-9);
    base.epochsPer1k = 4.0;
    pf.epochsPer1k = 3.0;
    EXPECT_NEAR(epiReductionPct(base, pf), 25.0, 1e-9);
}

TEST(SimulatorTest, BandwidthScaleSlowsPrefetching)
{
    SimConfig low_cfg;
    low_cfg.mem.scaleBandwidth(1.0 / 3.0); // 3.2 GB/s read
    PrefetcherParams pf;
    pf.name = "ebcp";
    pf.ebcp.prefetchDegree = 32;
    auto s1 = makeWorkload("database");
    SimResults low = runOnce(low_cfg, pf, *s1, 300000, 600000);

    SimConfig hi_cfg;
    auto s2 = makeWorkload("database");
    SimResults hi = runOnce(hi_cfg, pf, *s2, 300000, 600000);

    // Less bandwidth means more drops or strictly fewer issued
    // prefetches serviced.
    EXPECT_GE(low.droppedPrefetches + hi.issuedPrefetches,
              low.issuedPrefetches);
    EXPECT_GE(hi.readBusUtil, 0.0);
}

TEST(SimulatorTest, StatsDumpProducesOutput)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    Simulator sim(cfg, p);
    auto src = makeWorkload("tpcw");
    sim.run(*src, 100000, 100000);
    std::ostringstream os;
    sim.dumpStats(os);
    EXPECT_NE(os.str().find("core."), std::string::npos);
    EXPECT_NE(os.str().find("l2side."), std::string::npos);
    EXPECT_NE(os.str().find("memory."), std::string::npos);
    EXPECT_NE(os.str().find("ebcp"), std::string::npos);
}

TEST(SimulatorTest, TableBytesWiredFromEbcpConfig)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.prefetchDegree = 32; // 256B entries
    Simulator sim(cfg, p);
    // A table read must occupy the bus longer than one line.
    MemAccessResult a = sim.l2side().tableRead(0);
    MemAccessResult b = sim.l2side().tableRead(0);
    EXPECT_GE(b.grant - a.grant, 80u); // 256B / 3.2Bpt
}
