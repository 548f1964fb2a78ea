/**
 * @file
 * Property-style parameterized sweeps across prefetchers, workloads
 * and configurations: invariants that must hold for every point in
 * the design space.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/simulator.hh"
#include "trace/workloads.hh"

#include "results_print.hh"

using namespace ebcp;

// ---------------------------------------------------------------------
// Every (workload x prefetcher) combination must produce sane results
// and never lose to the baseline catastrophically.
// ---------------------------------------------------------------------

using ComboParam = std::tuple<std::string, std::string>;

class ComboTest : public ::testing::TestWithParam<ComboParam>
{
};

TEST_P(ComboTest, InvariantsHold)
{
    const auto &[workload, prefetcher] = GetParam();
    SimConfig cfg;
    PrefetcherParams p;
    p.name = prefetcher;
    auto src = makeWorkload(workload);
    SimResults r = runOnce(cfg, p, *src, 250000, 500000);

    EXPECT_GT(r.cpi, 0.2);
    EXPECT_LT(r.cpi, 50.0);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_GE(r.accuracy, 0.0);
    EXPECT_LE(r.accuracy, 1.0);
    EXPECT_GE(r.readBusUtil, 0.0);
    EXPECT_LE(r.readBusUtil, 1.0);
    EXPECT_LE(r.usefulPrefetches, r.issuedPrefetches);
    EXPECT_EQ(r.insts, 500000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ComboTest,
    ::testing::Combine(::testing::Values("database", "tpcw", "specjbb",
                                         "specjas"),
                       ::testing::Values("null", "ebcp", "ebcp-minus",
                                         "stream", "ghb-small", "sms",
                                         "tcp-small", "solihin-6-1")),
    [](const ::testing::TestParamInfo<ComboParam> &param_info) {
        std::string n = std::get<0>(param_info.param) + "_" +
                        std::get<1>(param_info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Prefetching must never delay demand accesses: the baseline's demand
// bus behaviour implies prefetcher CPI can exceed baseline only
// through second-order effects; bound the damage.
// ---------------------------------------------------------------------

class NoHarmTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(NoHarmTest, PrefetcherNeverHurtsMuch)
{
    SimConfig cfg;
    PrefetcherParams base;
    base.name = "null";
    auto s1 = makeWorkload(GetParam());
    SimResults rb = runOnce(cfg, base, *s1, 250000, 500000);

    PrefetcherParams p;
    p.name = "ebcp";
    auto s2 = makeWorkload(GetParam());
    SimResults rp = runOnce(cfg, p, *s2, 250000, 500000);

    EXPECT_GT(improvementPct(rb, rp), -3.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, NoHarmTest,
                         ::testing::Values("database", "tpcw", "specjbb",
                                           "specjas"));

// ---------------------------------------------------------------------
// EBCP degree sweep: issued prefetch volume grows with degree, and
// determinism holds per degree.
// ---------------------------------------------------------------------

class DegreeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DegreeSweep, VolumeAndDeterminism)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.prefetchDegree = GetParam();

    auto s1 = makeWorkload("database");
    SimResults a = runOnce(cfg, p, *s1, 250000, 500000);
    auto s2 = makeWorkload("database");
    SimResults b = runOnce(cfg, p, *s2, 250000, 500000);

    EXPECT_EQ(a, b);
    EXPECT_GE(a.coverage, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Degrees, DegreeSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST(DegreeMonotonicity, IssuedVolumeGrowsWithDegree)
{
    SimConfig cfg;
    std::uint64_t prev_requested = 0;
    for (unsigned d : {1u, 4u, 16u}) {
        PrefetcherParams p;
        p.name = "ebcp";
        p.ebcp.prefetchDegree = d;
        auto src = makeWorkload("database");
        SimResults r = runOnce(cfg, p, *src, 250000, 500000);
        const std::uint64_t vol =
            r.issuedPrefetches + r.droppedPrefetches;
        EXPECT_GE(vol + 50, prev_requested) << "degree " << d;
        prev_requested = vol;
    }
}

// ---------------------------------------------------------------------
// Memory bandwidth sweep: utilization falls as bandwidth grows.
// ---------------------------------------------------------------------

class BandwidthSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(BandwidthSweep, UtilizationBounded)
{
    SimConfig cfg;
    cfg.mem.scaleBandwidth(GetParam());
    PrefetcherParams p;
    p.name = "ebcp";
    auto src = makeWorkload("database");
    SimResults r = runOnce(cfg, p, *src, 250000, 500000);
    EXPECT_GE(r.readBusUtil, 0.0);
    EXPECT_LE(r.readBusUtil, 1.0);
    EXPECT_LE(r.writeBusUtil, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Scales, BandwidthSweep,
                         ::testing::Values(1.0 / 3.0, 2.0 / 3.0, 1.0));

// ---------------------------------------------------------------------
// Prefetch-buffer size sweep: results stay sane from 16 to 1024
// entries (Figure 7's range).
// ---------------------------------------------------------------------

class BufferSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BufferSweep, RunsAndStaysConsistent)
{
    SimConfig cfg;
    cfg.prefetchBufferEntries = GetParam();
    PrefetcherParams p;
    p.name = "ebcp";
    auto src = makeWorkload("specjbb");
    SimResults r = runOnce(cfg, p, *src, 250000, 500000);
    EXPECT_GT(r.cpi, 0.2);
    EXPECT_LE(r.usefulPrefetches, r.issuedPrefetches);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferSweep,
                         ::testing::Values(16u, 64u, 256u, 1024u));

// ---------------------------------------------------------------------
// Correlation-table size: performance must be monotone-ish in table
// size (never dramatically better with a much smaller table).
// ---------------------------------------------------------------------

TEST(TableSizeProperty, TinyTableNeverBeatsLarge)
{
    SimConfig cfg;
    PrefetcherParams tiny;
    tiny.name = "ebcp";
    tiny.ebcp.tableEntries = 1 << 10;
    auto s1 = makeWorkload("database");
    SimResults rt = runOnce(cfg, tiny, *s1, 400000, 800000);

    PrefetcherParams big;
    big.name = "ebcp";
    big.ebcp.tableEntries = 1 << 20;
    auto s2 = makeWorkload("database");
    SimResults rb = runOnce(cfg, big, *s2, 400000, 800000);

    EXPECT_LE(rt.coverage, rb.coverage + 0.02);
}
