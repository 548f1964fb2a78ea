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

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/simulator.hh"
#include "trace/workloads.hh"

#include "results_print.hh"

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

// --- paper_sweep's engines at a window where they prefetch ----------

namespace
{

/** One engine's pinned results on one workload. */
struct EngineGolden
{
    const char *workload;
    const char *pf;
    SimResults results;
};

/**
 * bench/perfbench paper_sweep's six engines on the four workloads, at
 * its Figure 9 parity parameters (degree 6, 64K-entry EBCP and Solihin
 * tables) and warm 0.5M + measure 1M. Unlike the 200k/400k goldens
 * above, where EBCP issues at most 5 prefetches, each engine but null
 * issues hundreds on database, so all 18 fields -- the lifecycle
 * split included -- pin real prefetcher behaviour. Captured with %a;
 * fields in SimResults declaration order.
 */
const EngineGolden kEngineGoldens[] = {
    {"database", "null",
     {1000000, 5069721, 7329,
      0x1.44764f11b60afp+2, 0x1.d50e560418937p+2,
      0x1.b9db22d0e5604p+0, 0x1.18395810624ddp+3,
      0, 0, 0,
      0, 0, 0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.52c86b535735dp-5, 0x0p+0}},
    {"database", "ebcp",
     {1000000, 5024684, 7244,
      0x1.41946c332f017p+2, 0x1.cf9db22d0e56p+2,
      0x1.af5c28f5c28f6p+0, 0x1.11f3b645a1cacp+3,
      237, 327, 0,
      133, 104, 49,
      0x1.7268f5928c1ffp-6, 0x1.7315233ab7315p-1, 0x1.1f532c497394p-1,
      0x1.9a2e19a80bd4ep-4, 0x1.e884b9ab217edp-5}},
    {"database", "ebcp-minus",
     {1000000, 5036422, 7266,
      0x1.4254bcf0b6b6ep+2, 0x1.d10624dd2f1aap+2,
      0x1.ad4fdf3b645a2p+0, 0x1.0e04189374bc7p+3,
      368, 433, 0,
      100, 268, 24,
      0x1.1f9360ae43be1p-5, 0x1.b324108de4cdcp-1, 0x1.1642c8590b216p-2,
      0x1.9860d814b3b2p-4, 0x1.edd2305440f55p-5}},
    {"database", "solihin-6-1",
     {1000000, 5006761, 7219,
      0x1.406ec5b078d93p+2, 0x1.ce04189374bc7p+2,
      0x1.ab4395810624ep+0, 0x1.0ac083126e979p+3,
      478, 640, 0,
      173, 305, 119,
      0x1.75892b7e2e40ap-5, 0x1.7e66666666666p-1, 0x1.729c628b3f325p-2,
      0x1.f592c34dad373p-4, 0x1.4766b0565cb09p-4}},
    {"database", "amc",
     {1000000, 4943094, 7103,
      0x1.3c5ba6efc371ep+2, 0x1.c6978d4fdf3b6p+2,
      0x1.b9db22d0e5604p+0, 0x1.068f5c28f5c29p+3,
      552, 1785, 0,
      414, 138, 1215,
      0x1.af5d1105659d2p-5, 0x1.3caa613caa614p-2, 0x1.8p-1,
      0x1.84545d025e4aep-5, 0x0p+0}},
    {"database", "composite",
     {1000000, 5015310, 7268,
      0x1.40fad6cb53501p+2, 0x1.d126e978d4fdfp+2,
      0x1.b95810624dd2fp+0, 0x1.03ced916872bp+3,
      640, 2752, 0,
      73, 567, 2113,
      0x1.f421b345546bfp-5, 0x1.dc47711dc4771p-3, 0x1.d333333333333p-4,
      0x1.bd15b340f5b22p-4, 0x1.df5eab5273098p-5}},
    {"tpcw", "null",
     {1000000, 3437284, 3460,
      0x1.b7f8ec0f88334p+1, 0x1.bae147ae147aep+1,
      0x1.04dd2f1a9fbe8p+0, 0x1.6c49ba5e353f8p+1,
      0, 0, 0,
      0, 0, 0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.7074628c1cbd2p-6, 0x0p+0}},
    {"tpcw", "ebcp",
     {1000000, 3437217, 3460,
      0x1.b7f6ba0620ab7p+1, 0x1.bae147ae147aep+1,
      0x1.049ba5e353f7dp+0, 0x1.6c49ba5e353f8p+1,
      1, 1, 0,
      0, 1, 0,
      0x1.0f4ce63c02627p-12, 0x1p+0, 0x0p+0,
      0x1.010a9bac556f2p-4, 0x1.49f282780c404p-5}},
    {"tpcw", "ebcp-minus",
     {1000000, 3437324, 3460,
      0x1.b7fa3b9ae0c17p+1, 0x1.bae147ae147aep+1,
      0x1.049ba5e353f7dp+0, 0x1.6c28f5c28f5c3p+1,
      2, 2, 0,
      0, 2, 0,
      0x1.0f4ce63c02627p-11, 0x1p+0, 0x0p+0,
      0x1.01088f4af9206p-4, 0x1.4a0848e6b5dffp-5}},
    {"tpcw", "solihin-6-1",
     {1000000, 3436721, 3459,
      0x1.b7e679463cfb3p+1, 0x1.bac083126e979p+1,
      0x1.04189374bc6a8p+0, 0x1.6c28f5c28f5c3p+1,
      4, 4, 0,
      1, 3, 0,
      0x1.0f4ce63c02627p-10, 0x1p+0, 0x1p-2,
      0x1.14320f6f6f241p-4, 0x1.702233b9b6184p-5}},
    {"tpcw", "amc",
     {1000000, 3436324, 3458,
      0x1.b7d976ff3ade2p+1, 0x1.ba9fbe76c8b44p+1,
      0x1.04dd2f1a9fbe8p+0, 0x1.6c083126e978dp+1,
      2, 53, 0,
      2, 0, 12,
      0x1.0f4ce63c02627p-11, 0x1.3521cfb2b78c1p-5, 0x1p+0,
      0x1.756bb9fc1b3ebp-6, 0x0p+0}},
    {"tpcw", "composite",
     {1000000, 3436115, 3457,
      0x1.b7d29dc725c3ep+1, 0x1.ba7ef9db22d0ep+1,
      0x1.04dd2f1a9fbe8p+0, 0x1.6ba5e353f7ceep+1,
      5, 157, 0,
      5, 0, 148,
      0x1.53201fcb02fb1p-10, 0x1.04e447bec6ee1p-5, 0x1p+0,
      0x1.04cb9d50adecdp-4, 0x1.4a0d995726948p-5}},
    {"specjbb", "null",
     {1000000, 4211809, 5933,
      0x1.0d8e4755ffe6dp+2, 0x1.7bb645a1cac08p+2,
      0x1.d0e5604189375p-2, 0x1.187ae147ae148p+3,
      0, 0, 0,
      0, 0, 0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.669ed7b213e1p-5, 0x0p+0}},
    {"specjbb", "ebcp",
     {1000000, 4200823, 5914,
      0x1.0cda48b65237p+2, 0x1.7a7ef9db22d0ep+2,
      0x1.c8b4395810625p-2, 0x1.15a1cac083127p+3,
      97, 127, 0,
      29, 68, 4,
      0x1.58c6d2fca3d5ep-7, 0x1.870e1c3870e1cp-1, 0x1.3224f2cddb0d3p-2,
      0x1.9b8741fabb60ap-4, 0x1.d5594070e0169p-5}},
    {"specjbb", "ebcp-minus",
     {1000000, 4204005, 5919,
      0x1.0d0e6afcce1c6p+2, 0x1.7ad0e56041894p+2,
      0x1.c8b4395810625p-2, 0x1.13c6a7ef9db23p+3,
      155, 182, 0,
      29, 126, 3,
      0x1.13774448882d9p-6, 0x1.b40b40b40b40bp-1, 0x1.7f2c97f2c97f3p-3,
      0x1.9b0f9c25df635p-4, 0x1.d91fdcae698afp-5}},
    {"specjbb", "solihin-6-1",
     {1000000, 4194659, 5908,
      0x1.0c754b05b7cfep+2, 0x1.7a1cac083126fp+2,
      0x1.c6a7ef9db22d1p-2, 0x1.1p+3,
      275, 334, 0,
      52, 223, 25,
      0x1.e8bad3fc8e826p-6, 0x1.a58e901886e5fp-1, 0x1.8342183421834p-3,
      0x1.09454093ddcbdp-3, 0x1.5d586e397c992p-4}},
    {"specjbb", "amc",
     {1000000, 4151918, 5834,
      0x1.09b906466b1e6p+2, 0x1.75604189374bdp+2,
      0x1.d0e5604189375p-2, 0x1.0cd4fdf3b645ap+3,
      364, 1323, 0,
      223, 141, 916,
      0x1.4373449dd667p-5, 0x1.19bc466f119bcp-2, 0x1.39ab9ab9ab9acp-1,
      0x1.91a30c986db69p-5, 0x0p+0}},
    {"specjbb", "composite",
     {1000000, 4149198, 5874,
      0x1.098c75c4a83b2p+2, 0x1.77ef9db22d0e6p+2,
      0x1.d0e5604189375p-2, 0x1.f5f3b645a1cacp+2,
      922, 2814, 0,
      85, 837, 1888,
      0x1.99a4f95cff5c8p-4, 0x1.4f82d1f7a1633p-2, 0x1.799d276d659f6p-4,
      0x1.c54ffe215a424p-4, 0x1.d38720dbee7bap-5}},
    {"specjas", "null",
     {1000000, 4319878, 5718,
      0x1.1478e1932d6edp+2, 0x1.6df3b645a1cacp+2,
      0x1.e5e353f7ced92p+0, 0x1.2eb851eb851ecp+2,
      0, 0, 0,
      0, 0, 0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.f6c2a136375e9p-6, 0x0p+0}},
    {"specjas", "ebcp",
     {1000000, 4314680, 5709,
      0x1.1423b7952d235p+2, 0x1.6d604189374bdp+2,
      0x1.e3126e978d4fep+0, 0x1.2e5604189374cp+2,
      17, 20, 0,
      9, 8, 0,
      0x1.502ef780b1facp-9, 0x1.b333333333333p-1, 0x1.0f0f0f0f0f0f1p-1,
      0x1.56e4b46af0ca2p-4, 0x1.b303deef6e9a4p-5}},
    {"specjas", "ebcp-minus",
     {1000000, 4318077, 5714,
      0x1.145b5fa22706dp+2, 0x1.6db22d0e56042p+2,
      0x1.e20c49ba5e354p+0, 0x1.2e04189374bc7p+2,
      26, 31, 0,
      4, 22, 0,
      0x1.0114db6269fcp-8, 0x1.ad6b5ad6b5ad7p-1, 0x1.3b13b13b13b14p-3,
      0x1.56a481470f3a5p-4, 0x1.b347aceb049e2p-5}},
    {"specjas", "solihin-6-1",
     {1000000, 4311190, 5702,
      0x1.13ea897635e74p+2, 0x1.6ced916872b02p+2,
      0x1.e083126e978d5p+0, 0x1.2c7ae147ae148p+2,
      56, 68, 0,
      18, 38, 0,
      0x1.14db6269fbfbbp-7, 0x1.a5a5a5a5a5a5ap-1, 0x1.4924924924925p-2,
      0x1.77ee0ec0eec69p-4, 0x1.f3845e2309b8ap-5}},
    {"specjas", "amc",
     {1000000, 4298299, 5677,
      0x1.131754b05b7dp+2, 0x1.6b53f7ced9169p+2,
      0x1.e5e353f7ced92p+0, 0x1.296872b020c4ap+2,
      83, 578, 0,
      65, 18, 453,
      0x1.9a5771dd15799p-7, 0x1.261707f8e9dadp-3, 0x1.90f6bf3a9a378p-1,
      0x1.0f82a10614f95p-5, 0x0p+0}},
    {"specjas", "composite",
     {1000000, 4315134, 5712,
      0x1.142b27cbf6e3fp+2, 0x1.6d916872b020cp+2,
      0x1.e5e353f7ced92p+0, 0x1.2a3d70a3d70a4p+2,
      70, 524, 0,
      9, 61, 455,
      0x1.5a123b047afa9p-7, 0x1.1196792909c56p-3, 0x1.075075075075p-3,
      0x1.5f9bed08bee85p-4, 0x1.b24931c349516p-5}},
};

PrefetcherParams
fig9Params(const std::string &name)
{
    PrefetcherParams p;
    p.name = name;
    p.ebcp.prefetchDegree = 6;
    p.ebcp.tableEntries = 1ULL << 16;
    p.solihin.tableEntries = 1ULL << 16;
    p.dcpt.degree = 6;
    p.amc.degree = 6;
    return p;
}

} // namespace

class EngineGoldens : public ::testing::TestWithParam<EngineGolden>
{
};

TEST_P(EngineGoldens, BitExactOnEveryField)
{
    const EngineGolden &g = GetParam();
    auto src = makeWorkload(g.workload);
    EXPECT_EQ(runOnce(SimConfig{}, fig9Params(g.pf), *src, 500'000,
                      1'000'000),
              g.results);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSweep, EngineGoldens, ::testing::ValuesIn(kEngineGoldens),
    [](const ::testing::TestParamInfo<EngineGolden> &param_info) {
        std::string n = std::string(param_info.param.workload) + "_" +
                        param_info.param.pf;
        std::replace(n.begin(), n.end(), '-', '_');
        return n;
    });

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
