/**
 * @file
 * Tests for the composite adaptive prefetcher and the differential
 * properties of the new engines (DCPT, AMC): ledger attribution,
 * controller adaptation, checkpoint bit-exactness, audit cleanliness,
 * and sweep determinism across job counts.
 *
 * The CompositeDeterminism suite doubles as a dedicated ctest entry
 * (composite_determinism) so a -DEBCP_SANITIZE=thread build exercises
 * the controller under the parallel sweep runner.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "prefetch/composite.hh"
#include "prefetch/ledger.hh"
#include "harness/sweep.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"
#include "verify/audit.hh"

#include "results_print.hh"

using namespace ebcp;
using namespace ebcp::harness;

namespace
{

constexpr std::uint64_t kWarm = 60'000;
constexpr std::uint64_t kMeasure = 120'000;

PrefetcherParams
compositeParams()
{
    PrefetcherParams p;
    p.name = "composite";
    p.ebcp.tableEntries = 1ULL << 14;
    // Short interval so the controller exercises explore, exploit and
    // re-explore within a unit-test window.
    p.composite.calibInterval = 2048;
    return p;
}

RunDesc
makeDesc(const std::string &workload, const std::string &pf)
{
    RunDesc d;
    d.workload = workload;
    d.pf.name = pf;
    d.pf.ebcp.tableEntries = 1ULL << 14;
    d.pf.composite.calibInterval = 2048;
    d.scale.warm = kWarm;
    d.scale.measure = kMeasure;
    return d;
}

unsigned
parallelJobs()
{
    if (const char *env = std::getenv("EBCP_BENCH_JOBS"))
        return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return 4;
}

} // namespace

// ---------------------------------------------------------------------
// Ledger parity and attribution
// ---------------------------------------------------------------------

TEST(CompositeLedger, AggregateParityWithResults)
{
    for (const char *name : {"dcpt", "amc", "composite"}) {
        SCOPED_TRACE(name);
        SimConfig cfg;
        PrefetcherParams pf = compositeParams();
        pf.name = name;
        Simulator sim(cfg, pf);
        auto src = makeWorkload("database");
        const SimResults r = sim.run(*src, 200'000, 400'000);

        EXPECT_GT(r.issuedPrefetches, 0u);
        const PrefetchLedger &ledger = sim.l2side().ledger();
        EXPECT_EQ(ledger.issued(), r.issuedPrefetches);
        EXPECT_EQ(ledger.used(), r.usefulPrefetches);
        EXPECT_EQ(r.timelyPrefetches + r.latePrefetches,
                  r.usefulPrefetches);
    }
}

TEST(CompositeLedger, SourcesPartitionTheAggregates)
{
    SimConfig cfg;
    Simulator sim(cfg, compositeParams());
    auto src = makeWorkload("database");
    sim.run(*src, kWarm, kMeasure);

    const PrefetchLedger &ledger = sim.l2side().ledger();
    std::uint64_t issued = 0, timely = 0, late = 0, evicted = 0;
    std::uint64_t attributed = 0;
    for (unsigned s = 0; s < PrefetchLedger::kMaxSources; ++s) {
        const PrefetchLedger::SourceCounters &c = ledger.source(s);
        issued += c.issued;
        timely += c.timelyHits;
        late += c.lateHits;
        evicted += c.evictedUnused;
        if (s > 0)
            attributed += c.issued;
    }
    EXPECT_EQ(issued, ledger.issued());
    EXPECT_EQ(timely, ledger.timelyHits());
    EXPECT_EQ(late, ledger.lateHits());
    EXPECT_EQ(evicted, ledger.evictedUnused());
    // Every composite issue carries a child id: nothing lands in the
    // unattributed slot.
    EXPECT_EQ(attributed, ledger.issued());
    EXPECT_EQ(ledger.source(0).issued, 0u);
}

// ---------------------------------------------------------------------
// Controller behaviour
// ---------------------------------------------------------------------

TEST(CompositeController, AdaptsAndStaysWithinBounds)
{
    SimConfig cfg;
    PrefetcherParams pf = compositeParams();
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    sim.run(*src, kWarm, kMeasure);

    const auto *comp = dynamic_cast<const CompositePrefetcher *>(
        &sim.prefetcher());
    ASSERT_NE(comp, nullptr);
    EXPECT_EQ(comp->childCount(), pf.composite.engines.size());
    EXPECT_LT(comp->activeChild(), comp->childCount());
    for (unsigned i = 0; i < comp->childCount(); ++i) {
        EXPECT_GE(comp->childDegree(i), pf.composite.minDegree);
        EXPECT_LE(comp->childDegree(i), pf.composite.maxDegree);
    }
}

TEST(CompositeController, AuditCleanAcrossWorkloads)
{
    for (const auto &w : workloadNames()) {
        SCOPED_TRACE(w);
        SimConfig cfg;
        Simulator sim(cfg, compositeParams());
        auto src = makeWorkload(w);
        sim.run(*src, kWarm, kMeasure);
        AuditContext ctx;
        sim.l2side().audit(ctx);
        sim.prefetcher().audit(ctx);
        EXPECT_TRUE(ctx.clean()) << w;
    }
}

// ---------------------------------------------------------------------
// Checkpoint round trips
// ---------------------------------------------------------------------

TEST(CompositeCkpt, RestoredRunIsBitIdentical)
{
    for (const char *name : {"dcpt", "amc", "composite"}) {
        SCOPED_TRACE(name);
        SimConfig cfg;
        PrefetcherParams pf = compositeParams();
        pf.name = name;

        Simulator warm(cfg, pf);
        auto src = makeWorkload("tpcw");
        ASSERT_TRUE(warm.runWarm(*src, kWarm).ok());
        StatusOr<std::string> blob = warm.serializeCheckpoint(*src);
        ASSERT_TRUE(blob.ok()) << blob.status().toString();
        StatusOr<SimResults> cold = warm.runMeasure(*src, kMeasure);
        ASSERT_TRUE(cold.ok());

        Simulator restored(cfg, pf);
        auto src2 = makeWorkload("tpcw");
        ASSERT_TRUE(
            restored.restoreCheckpoint(blob.value(), *src2).ok());
        StatusOr<SimResults> resumed =
            restored.runMeasure(*src2, kMeasure);
        ASSERT_TRUE(resumed.ok());
        EXPECT_EQ(cold.value(), resumed.value()) << name;
    }
}

TEST(CompositeCkpt, ChildCountMismatchIsCoded)
{
    SimConfig cfg;
    PrefetcherParams pf = compositeParams();
    Simulator warm(cfg, pf);
    auto src = makeWorkload("database");
    ASSERT_TRUE(warm.runWarm(*src, 20'000).ok());
    StatusOr<std::string> blob = warm.serializeCheckpoint(*src);
    ASSERT_TRUE(blob.ok());

    PrefetcherParams other = pf;
    other.composite.engines = {"stream", "dcpt"};
    Simulator victim(cfg, other);
    auto src2 = makeWorkload("database");
    Status s = victim.restoreCheckpoint(blob.value(), *src2);
    EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------
// Determinism across job counts (ctest: composite_determinism)
// ---------------------------------------------------------------------

TEST(CompositeDeterminism, BitIdenticalAcrossJobCounts)
{
    std::vector<RunDesc> descs;
    for (const auto &w : workloadNames()) {
        descs.push_back(makeDesc(w, "composite"));
        descs.push_back(makeDesc(w, "dcpt"));
        descs.push_back(makeDesc(w, "amc"));
    }

    SweepRunner serial(1);
    SweepRunner parallel(parallelJobs());
    const std::vector<RunResult> a = serial.run(descs);
    const std::vector<RunResult> b = parallel.run(descs);

    ASSERT_EQ(a.size(), descs.size());
    ASSERT_EQ(b.size(), descs.size());
    for (std::size_t i = 0; i < descs.size(); ++i) {
        ASSERT_TRUE(a[i].ok()) << a[i].status.toString();
        ASSERT_TRUE(b[i].ok()) << b[i].status.toString();
        EXPECT_EQ(a[i].results, b[i].results) << runLabel(descs[i]);
    }
}
