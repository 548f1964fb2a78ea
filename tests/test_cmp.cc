/**
 * @file
 * Tests for multi-core systems: per-core wiring, per-core EBCP state,
 * shared-L2 visibility, determinism, full results, per-core stat
 * keys, and bit-exact goldens of the CMP interleaving.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "sim/simulator.hh"
#include "trace/workloads.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace ebcp;

namespace
{

/** One workload instance per core, seeded as the sweep and the CLI
 * seed them. */
struct CoreSources
{
    CoreSources(const std::string &workload, unsigned cores,
                std::uint64_t seed = 0)
    {
        for (unsigned i = 0; i < cores; ++i) {
            owned.push_back(
                makeWorkload(workload, coreSeed(seed, i, cores)));
            list.push_back(owned.back().get());
        }
    }

    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> list;
};

/** Run every core of @p sim on its own instance of @p workload. */
SimResults
runCores(Simulator &sim, const std::string &workload, std::uint64_t warm,
       std::uint64_t measure)
{
    CoreSources src(workload, sim.cores());
    return sim.run(src.list, warm, measure);
}

PrefetcherParams
named(const char *name)
{
    PrefetcherParams p;
    p.name = name;
    return p;
}

} // namespace

TEST(CmpTest, SingleCoreMatchesStructure)
{
    // One core is the plain single-core system: same results as
    // runOnce() on the same trace.
    SimConfig cfg;
    const PrefetcherParams p = named("null");
    Simulator sim(cfg, p, 1);
    const SimResults r = runCores(sim, "database", 100000, 200000);
    EXPECT_EQ(r.insts, 200000u);
    EXPECT_EQ(r.cpi, sim.core().cpi());

    auto src = makeWorkload("database");
    const SimResults once = runOnce(cfg, p, *src, 100000, 200000);
    EXPECT_EQ(r.cycles, once.cycles);
    EXPECT_EQ(r.cpi, once.cpi);
}

TEST(CmpTest, AllCoresRunTheirInstructions)
{
    SimConfig cfg;
    Simulator sim(cfg, named("null"), 4);
    const SimResults r = runCores(sim, "tpcw", 50000, 100000);
    ASSERT_EQ(sim.cores(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(sim.core(i).measuredInsts(), 100000u);
    EXPECT_EQ(r.insts, 400000u);
}

TEST(CmpTest, SharedL2ContentionRaisesCpi)
{
    SimConfig cfg;
    Simulator one_sys(cfg, named("null"), 1);
    Simulator four_sys(cfg, named("null"), 4);
    const SimResults one = runCores(one_sys, "database", 100000, 200000);
    const SimResults four = runCores(four_sys, "database", 100000, 200000);
    // Four independent working sets thrash the shared 2MB L2.
    EXPECT_GT(four.cpi, one.cpi);
}

TEST(CmpTest, Deterministic)
{
    SimConfig cfg;
    PrefetcherParams p = named("ebcp");
    p.ebcp.numCoreStates = 2;
    Simulator a(cfg, p, 2);
    Simulator b(cfg, p, 2);
    const SimResults ra = runCores(a, "specjbb", 50000, 100000);
    const SimResults rb = runCores(b, "specjbb", 50000, 100000);
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(a.core(i).measuredCycles(), b.core(i).measuredCycles());
    EXPECT_EQ(ra.epochs, rb.epochs);
}

TEST(CmpTest, CoresUseDifferentSeeds)
{
    SimConfig cfg;
    Simulator sim(cfg, named("null"), 2);
    runCores(sim, "database", 100000, 200000);
    // Independent instances almost surely differ in cycle counts.
    EXPECT_NE(sim.core(0).measuredCycles(), sim.core(1).measuredCycles());
}

TEST(CmpTest, SeedRuleIsSharedBySweepAndCli)
{
    // A single core replays the descriptor seed as given; CMP cores
    // offset it (from 1000 at seed 0) so no two replay one stream.
    EXPECT_EQ(coreSeed(0, 0, 1), 0u);
    EXPECT_EQ(coreSeed(7, 0, 1), 7u);
    EXPECT_EQ(coreSeed(0, 0, 2), 1000u);
    EXPECT_EQ(coreSeed(0, 3, 4), 1003u);
    EXPECT_EQ(coreSeed(5, 2, 3), 7u);
}

TEST(CmpTest, PerCoreEbcpStateLearnsUnderInterleaving)
{
    SimConfig cfg;
    Simulator base_sys(cfg, named("null"), 2);
    const SimResults base =
        runCores(base_sys, "database", 800000, 1600000);

    PrefetcherParams per_core = named("ebcp");
    per_core.ebcp.numCoreStates = 2;
    Simulator pc_sys(cfg, per_core, 2);
    const SimResults pc = runCores(pc_sys, "database", 800000, 1600000);

    PrefetcherParams shared = named("ebcp");
    shared.ebcp.numCoreStates = 1;
    Simulator sh_sys(cfg, shared, 2);
    const SimResults sh = runCores(sh_sys, "database", 800000, 1600000);

    // Per-core state must beat a single shared epoch stream, and both
    // must beat no prefetching.
    EXPECT_GT(pc.coverage, sh.coverage);
    EXPECT_LT(pc.cpi, base.cpi);
}

TEST(CmpTest, CoreIdsReachThePrefetcher)
{
    // With per-core states, each core's epoch stream is tracked
    // separately; exercise via the public EMAB accessor.
    SimConfig cfg;
    PrefetcherParams p = named("ebcp");
    p.ebcp.numCoreStates = 2;
    Simulator sim(cfg, p, 2);
    auto s0 = makeWorkload("database", 7);
    auto s1 = makeWorkload("database", 8);
    std::vector<TraceSource *> srcs{s0.get(), s1.get()};
    sim.run(srcs, 100000, 100000);
    auto *e = dynamic_cast<EpochBasedPrefetcher *>(&sim.prefetcher());
    ASSERT_NE(e, nullptr);
    EXPECT_GT(e->emab(0).size(), 0u);
    EXPECT_GT(e->emab(1).size(), 0u);
}

TEST(CmpTest, OutOfRangeCoreIdClamps)
{
    // A prefetcher configured with fewer states than cores must not
    // crash: extra cores share the last state.
    SimConfig cfg;
    PrefetcherParams p = named("ebcp");
    p.ebcp.numCoreStates = 1;
    Simulator sim(cfg, p, 4);
    const SimResults r = runCores(sim, "tpcw", 50000, 100000);
    EXPECT_EQ(r.insts, 400000u);
}

TEST(CmpTest, CoverageAccuracySane)
{
    SimConfig cfg;
    {
        Simulator sim(cfg, named("solihin-6-1"), 2);
        const SimResults r = runCores(sim, "database", 200000, 400000);
        EXPECT_GE(r.coverage, 0.0);
        EXPECT_LE(r.coverage, 1.0);
        EXPECT_GE(r.accuracy, 0.0);
        EXPECT_LE(r.accuracy, 1.0);
    }
    {
        // The shared L2 side's prefetch counts, miss rates and bus
        // utilisation reach CMP results, and the ledger conserves.
        PrefetcherParams p = named("ebcp");
        p.ebcp.numCoreStates = 2;
        Simulator sim(cfg, p, 2);
        const SimResults r = runCores(sim, "database", 200000, 400000);
        EXPECT_GT(r.issuedPrefetches, 0u);
        EXPECT_LE(r.timelyPrefetches + r.latePrefetches,
                  r.usefulPrefetches);
        EXPECT_LE(r.usefulPrefetches, r.issuedPrefetches);
        EXPECT_GT(r.readBusUtil, 0.0);
        EXPECT_GT(r.l2InstMissPer1k, 0.0);
        EXPECT_GT(r.l2LoadMissPer1k, 0.0);
    }
}

TEST(CmpTest, StatsDumpsKeyEachCore)
{
    SimConfig cfg;
    Simulator sim(cfg, named("null"), 2);
    runCores(sim, "database", 10000, 20000);

    std::ostringstream json;
    JsonWriter w(json);
    sim.dumpStatsJson(w);
    const std::string doc = json.str();
    for (const char *key : {"\"core0\":", "\"core1\":", "\"core0_l1\":",
                            "\"core1_l1\":"})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    EXPECT_EQ(doc.find("\"core\":"), std::string::npos);

    std::ostringstream text;
    sim.dumpStats(text);
    EXPECT_NE(text.str().find("\ncore1."), std::string::npos);
}

TEST(CmpTest, SamplingIsSingleCoreOnly)
{
    SimConfig cfg;
    Simulator cmp(cfg, named("null"), 2);
    IntervalSampler sampler(cmp.l2side().stats(), 1000);
    const Status s = cmp.setSampler(&sampler);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_TRUE(cmp.setSampler(nullptr).ok());

    Simulator one(cfg, named("null"));
    EXPECT_TRUE(one.setSampler(&sampler).ok());
}

namespace
{

/** CMP results pinned before single-core and CMP shared one class. */
struct CmpGolden
{
    unsigned cores;
    const char *workload;
    const char *engine; //!< null | ebcp-per-core | ebcp-shared | solihin-6-1
    std::uint64_t insts, cycles, epochs;
    double cpi, epochsPer1k, coverage, accuracy, timeliness;
    std::uint64_t timely, late, earlyEvicted;
};

// Captured with %a from the separate CMP class, at warm = measure =
// 200k per core, seeds 1000 + core, degree 8 and 2^18 table entries.
// That class left the prefetch counts, miss rates and bus utilisation
// at zero, so they are not pinned here. That class also gave Solihin
// 2^20 entries whatever it was asked for, so the one solihin-6-1 row
// the table size moves (4-core database) is pinned from Simulator.
constexpr CmpGolden kCmpGoldens[] = {
    {2, "database", "null", 400000, 1415994, 2183,
     0x1.c36b8f9b13166p+2, 0x1.5d47ae147ae14p+2, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {2, "database", "ebcp-per-core", 400000, 1415479, 2183,
     0x1.c3415f45e0b4ep+2, 0x1.5d47ae147ae14p+2, 0x1.7ad2208e0ecc3p-11,
     0x1.5555555555555p-2, 0x0p+0, 0, 3, 0},
    {2, "database", "ebcp-shared", 400000, 1415166, 2181,
     0x1.c327bb2fec56dp+2, 0x1.5cf5c28f5c28fp+2, 0x1.7ad2208e0ecc3p-11,
     0x1.3333333333333p-1, 0x1.5555555555555p-2, 1, 2, 0},
    {2, "database", "solihin-6-1", 400000, 1413380, 2177,
     0x1.c2956c0d6f545p+2, 0x1.5c51eb851eb85p+2, 0x1.d986a8b1927f4p-9,
     0x1.08d3dcb08d3ddp-1, 0x1.1111111111111p-2, 4, 11, 0},
    {2, "tpcw", "null", 400000, 1032096, 1432,
     0x1.48bd3c361134p+2, 0x1.ca3d70a3d70a4p+1, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {2, "tpcw", "ebcp-per-core", 400000, 1032096, 1432,
     0x1.48bd3c361134p+2, 0x1.ca3d70a3d70a4p+1, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {2, "tpcw", "ebcp-shared", 400000, 1032096, 1432,
     0x1.48bd3c361134p+2, 0x1.ca3d70a3d70a4p+1, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {2, "tpcw", "solihin-6-1", 400000, 1032096, 1432,
     0x1.48bd3c361134p+2, 0x1.ca3d70a3d70a4p+1, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {4, "database", "null", 800000, 2171262, 3453,
     0x1.5a5a43fe5c91dp+3, 0x1.143d70a3d70a4p+2, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {4, "database", "ebcp-per-core", 800000, 2152064, 3418,
     0x1.574ee0f3cb3e5p+3, 0x1.1170a3d70a3d7p+2, 0x1.94b0508b7ae79p-7,
     0x1.3dafcea68de13p-1, 0x1.b56fd83ba6863p-2, 44, 59, 23},
    {4, "database", "ebcp-shared", 800000, 2154779, 3428,
     0x1.57d02602c9082p+3, 0x1.123d70a3d70a4p+2, 0x1.16f5cf2202b38p-7,
     0x1.c393e032e1c9fp-2, 0x1.dbf193d4bb7e3p-2, 33, 38, 50},
    {4, "database", "solihin-6-1", 800000, 2133719, 3381,
     0x1.547e060fe4799p+3, 0x1.0e7ae147ae148p+2, 0x1.f6ea05a5e0d04p-6,
     0x1.008040201008p-1, 0x1.b8p-3, 55, 201, 226},
    {4, "tpcw", "null", 800000, 1254216, 1891,
     0x1.90813a92a3055p+2, 0x1.2e8f5c28f5c29p+1, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0},
    {4, "tpcw", "ebcp-per-core", 800000, 1252628, 1891,
     0x1.8fff23cc8de2bp+2, 0x1.2e8f5c28f5c29p+1, 0x1.222a6c7d01223p-9,
     0x1p+0, 0x1.b6db6db6db6dbp-2, 3, 4, 0},
    {4, "tpcw", "ebcp-shared", 800000, 1253517, 1892,
     0x1.9047f77af6406p+2, 0x1.2eb851eb851ecp+1, 0x1.9e85bf8e019e8p-10,
     0x1p+0, 0x1.999999999999ap-3, 1, 4, 0},
    {4, "tpcw", "solihin-6-1", 800000, 1251032, 1885,
     0x1.8f7c6540cc78fp+2, 0x1.2d9999999999ap+1, 0x1.0d70894f810d7p-8,
     0x1.bbbbbbbbbbbbcp-1, 0x1.13b13b13b13b1p-1, 7, 6, 0},
};

PrefetcherParams
goldenParams(const CmpGolden &g)
{
    const std::string engine = g.engine;
    PrefetcherParams pf;
    pf.name = engine.rfind("ebcp", 0) == 0 ? "ebcp" : engine;
    pf.ebcp.prefetchDegree = 8;
    pf.ebcp.tableEntries = 1ULL << 18;
    pf.solihin.tableEntries = 1ULL << 18;
    pf.ebcp.numCoreStates = engine == "ebcp-per-core" ? g.cores : 1;
    return pf;
}

} // namespace

TEST(CmpGoldens, InterleavingIsBitExact)
{
    for (const CmpGolden &g : kCmpGoldens) {
        SCOPED_TRACE(logFormat(g.cores, "-core ", g.workload, "/",
                               g.engine));
        Simulator sim(SimConfig{}, goldenParams(g), g.cores);
        const SimResults r = runCores(sim, g.workload, 200'000, 200'000);

        EXPECT_EQ(r.insts, g.insts);
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.epochs, g.epochs);
        EXPECT_EQ(r.cpi, g.cpi);
        EXPECT_EQ(r.coverage, g.coverage);
        EXPECT_EQ(r.accuracy, g.accuracy);
        EXPECT_EQ(r.timeliness, g.timeliness);
        EXPECT_EQ(r.timelyPrefetches, g.timely);
        EXPECT_EQ(r.latePrefetches, g.late);
        EXPECT_EQ(r.earlyEvictedPrefetches, g.earlyEvicted);
        // The CMP class computed epochs * 1000 / insts; the shared
        // collect() multiplies by a precomputed 1000 / insts, which
        // may round one ulp apart.
        EXPECT_LE(std::fabs(r.epochsPer1k - g.epochsPer1k),
                  std::nextafter(g.epochsPer1k, INFINITY) -
                      g.epochsPer1k);
    }
}
