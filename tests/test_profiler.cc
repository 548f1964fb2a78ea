/**
 * @file
 * Self-profiler tests.
 *
 * The contract under test: visit counts are exact (only times are
 * stride-sampled), scopes nest into per-path tree nodes, the runtime
 * toggle and the profiler itself never perturb simulated results, the
 * exported "profile" object passes the ebcp-stats-v1 validator, and
 * the flame-span export forms a valid Chrome trace on its own (pid 1)
 * track.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "harness/stats_json.hh"
#include "stats/interval.hh"
#include "trace/workloads.hh"
#include "util/event_trace.hh"
#include "util/json.hh"
#include "util/profiler.hh"

#include "temp_path.hh"

using namespace ebcp;
using ebcp_test::TempFile;

namespace
{

SimResults
runSmall(const char *workload, const char *pf_name)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = pf_name;
    Simulator sim(cfg, pf);
    auto src = makeWorkload(workload);
    return sim.run(*src, 50'000, 100'000);
}

const prof::NodeReport *
findNode(const prof::Report &rep, const std::string &path)
{
    for (const prof::NodeReport &n : rep.nodes)
        if (n.path == path)
            return &n;
    return nullptr;
}

} // namespace

TEST(Profiler, VisitCountsAreExactAndPathsNest)
{
    prof::setEnabled(true);
    prof::resetThisThread();
    for (int i = 0; i < 1000; ++i) {
        EBCP_PROFILE_SCOPE(CoreLoop);
        for (int j = 0; j < 3; ++j) {
            EBCP_PROFILE_SCOPE(PrefetchTrain);
        }
    }
    {
        EBCP_PROFILE_SCOPE(Stats);
    }

    const prof::Report rep = prof::snapshotThisThread();
    ASSERT_TRUE(rep.enabled);

    const prof::NodeReport *core = findNode(rep, "core_loop");
    ASSERT_NE(core, nullptr);
    EXPECT_EQ(core->visits, 1000u);
    EXPECT_EQ(core->depth, 1u);
    // CoreLoop is always timed (stride mask 0): never an estimate.
    EXPECT_EQ(core->timedVisits, core->visits);
    EXPECT_FALSE(core->sampled);

    const prof::NodeReport *train =
        findNode(rep, "core_loop/prefetch_train");
    ASSERT_NE(train, nullptr);
    EXPECT_EQ(train->visits, 3000u); // exact despite time sampling
    EXPECT_EQ(train->depth, 2u);
    EXPECT_LT(train->timedVisits, train->visits); // stride-sampled
    EXPECT_TRUE(train->sampled);

    const prof::NodeReport *stats = findNode(rep, "stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->visits, 1u);

    // The same phase at a different nesting is a different node.
    EXPECT_EQ(findNode(rep, "prefetch_train"), nullptr);
}

TEST(Profiler, DisabledScopesRecordNothing)
{
    prof::setEnabled(false);
    prof::resetThisThread();
    {
        EBCP_PROFILE_SCOPE(CoreLoop);
        EBCP_PROFILE_SCOPE(PrefetchTrain);
    }
    const prof::Report rep = prof::snapshotThisThread();
    EXPECT_FALSE(rep.enabled);
    EXPECT_TRUE(rep.nodes.empty());
    prof::setEnabled(true);
}

TEST(Profiler, ResetDropsAccumulatedTree)
{
    prof::setEnabled(true);
    prof::resetThisThread();
    {
        EBCP_PROFILE_SCOPE(Audit);
    }
    EXPECT_FALSE(prof::snapshotThisThread().nodes.empty());
    prof::resetThisThread();
    EXPECT_TRUE(prof::snapshotThisThread().nodes.empty());
}

TEST(Profiler, EstimatesScaleAndSubtractClockCost)
{
    prof::setEnabled(true);
    prof::resetThisThread();
    for (int i = 0; i < 512; ++i) {
        EBCP_PROFILE_SCOPE(PrefetchIssue);
    }
    const prof::Report rep = prof::snapshotThisThread();
    const prof::NodeReport *n = findNode(rep, "prefetch_issue");
    ASSERT_NE(n, nullptr);
    ASSERT_GT(n->timedVisits, 0u);
    // Estimates are the measured time minus the calibrated self-cost
    // of the clock reads, scaled to all visits -- never negative, and
    // never more than the raw scaled measurement. For this empty body
    // the estimate should collapse toward zero rather than scale the
    // clock syscalls by the visit count.
    const double scale = static_cast<double>(n->visits) /
                         static_cast<double>(n->timedVisits);
    EXPECT_GE(n->estWallNs, 0.0);
    EXPECT_GE(n->estCpuNs, 0.0);
    EXPECT_LE(n->estWallNs, static_cast<double>(n->wallNs) * scale);
    EXPECT_LE(n->estCpuNs, static_cast<double>(n->cpuNs) * scale);
}

TEST(Profiler, RuntimeToggleLeavesSimResultsBitExact)
{
    prof::setEnabled(true);
    prof::resetThisThread();
    const SimResults on = runSmall("database", "ebcp");
    prof::setEnabled(false);
    prof::resetThisThread();
    const SimResults off = runSmall("database", "ebcp");
    prof::setEnabled(true);

    EXPECT_EQ(on.insts, off.insts);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.epochs, off.epochs);
    EXPECT_EQ(on.cpi, off.cpi);
    EXPECT_EQ(on.usefulPrefetches, off.usefulPrefetches);
    EXPECT_EQ(on.issuedPrefetches, off.issuedPrefetches);
    EXPECT_EQ(on.coverage, off.coverage);
    EXPECT_EQ(on.accuracy, off.accuracy);
    EXPECT_EQ(on.timeliness, off.timeliness);
    EXPECT_EQ(on.readBusUtil, off.readBusUtil);
    EXPECT_EQ(on.writeBusUtil, off.writeBusUtil);
}

TEST(Profiler, SimulationPopulatesExpectedPhases)
{
    prof::setEnabled(true);
    prof::resetThisThread();
    runSmall("database", "ebcp");
    const prof::Report rep = prof::snapshotThisThread();
    EXPECT_NE(findNode(rep, "core_loop"), nullptr);
    EXPECT_NE(findNode(rep, "core_loop/prefetch_train"), nullptr);
    EXPECT_NE(findNode(rep, "core_loop/decode"), nullptr);
}

TEST(Profiler, CoreLoopIsOneVisitPerPhase)
{
    // Warm and measure are one core_loop visit each, however many
    // interleaving turns (CMP) or sampler chunks they run in.
    prof::setEnabled(true);
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    {
        prof::resetThisThread();
        Simulator sim(cfg, pf, 4);
        std::vector<std::unique_ptr<SyntheticWorkload>> owned;
        std::vector<TraceSource *> srcs;
        for (unsigned i = 0; i < 4; ++i) {
            owned.push_back(makeWorkload("database", coreSeed(0, i, 4)));
            srcs.push_back(owned.back().get());
        }
        sim.run(srcs, 20'000, 40'000);
        const prof::Report rep = prof::snapshotThisThread();
        const prof::NodeReport *core = findNode(rep, "core_loop");
        ASSERT_NE(core, nullptr);
        EXPECT_EQ(core->visits, 2u);
    }
    {
        prof::resetThisThread();
        Simulator sim(cfg, pf);
        IntervalSampler sampler(sim.l2side().stats(), 5'000);
        ASSERT_TRUE(sim.setSampler(&sampler).ok());
        auto src = makeWorkload("database");
        sim.run(*src, 20'000, 40'000);
        const prof::Report rep = prof::snapshotThisThread();
        const prof::NodeReport *core = findNode(rep, "core_loop");
        ASSERT_NE(core, nullptr);
        EXPECT_EQ(core->visits, 2u);
    }
}

TEST(Profiler, ExportedSpansFormValidChromeTrace)
{
    prof::setEnabled(true);
    prof::resetThisThread();
    {
        EBCP_PROFILE_SCOPE(CoreLoop);
        {
            EBCP_PROFILE_SCOPE(Decode);
        }
        {
            EBCP_PROFILE_SCOPE(PrefetchTrain);
        }
    }

    TraceLog log;
    prof::exportProfileSpans(log);
    TempFile tmp("profiler.trace.json");
    Status s = log.exportChromeJson(tmp.path); // self-validating
    ASSERT_TRUE(s.ok()) << s.toString();

    StatusOr<JsonValue> doc = parseJsonFile(tmp.path);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue *events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t spans = 0;
    for (const JsonValue &e : events->array) {
        const JsonValue *ph = e.find("ph");
        if (!ph || ph->string != "X")
            continue;
        ASSERT_TRUE(e.hasNumber("pid"));
        EXPECT_EQ(e.find("pid")->number, 1.0); // the profile row
        ++spans;
    }
    EXPECT_EQ(spans, 3u); // core_loop, decode, prefetch_train
}

TEST(Profiler, ProfileJsonValidatesInsideStatsDocument)
{
    prof::resetThisThread();
    std::ostringstream ss;
    JsonWriter w(ss);
    beginStatsJson(w, "test_profiler");
    endStatsJson(w, {}, {}, prof::profileJsonString());
    const Status s = validateStatsJson(ss.str());
    EXPECT_TRUE(s.ok()) << s.toString();
}

TEST(Profiler, ProfileJsonShapeIsStable)
{
    prof::resetThisThread();
    StatusOr<JsonValue> doc = parseJson(prof::profileJsonString());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &root = doc.value();
    ASSERT_TRUE(root.isObject());
    const JsonValue *enabled = root.find("enabled");
    ASSERT_NE(enabled, nullptr);
    EXPECT_TRUE(enabled->isBool());
    const JsonValue *clock = root.find("clock");
    ASSERT_NE(clock, nullptr);
    EXPECT_TRUE(clock->isString());
    const JsonValue *nodes = root.find("nodes");
    ASSERT_NE(nodes, nullptr);
    EXPECT_TRUE(nodes->isArray());
}
