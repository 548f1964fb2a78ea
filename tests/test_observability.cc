/**
 * @file
 * Observability-layer tests.
 *
 * The contract under test: tracing and sampling are observation only
 * (attaching them changes no simulated number), every exported JSON
 * artifact passes its own in-repo validator, the interval sampler
 * snapshots at exact instruction boundaries, and the prefetch ledger
 * classifies the lifecycle of every prefetcher behind the factory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "prefetch/ledger.hh"
#include "sim/simulator.hh"
#include "harness/stats_json.hh"
#include "stats/interval.hh"
#include "trace/fault_injection.hh"
#include "trace/workloads.hh"
#include "util/event_trace.hh"
#include "util/json.hh"

#include "temp_path.hh"

using namespace ebcp;
using ebcp_test::TempFile;

namespace
{

constexpr std::uint64_t kWarm = 100'000;
constexpr std::uint64_t kMeasure = 200'000;

SimResults
runPlain(const std::string &workload, const std::string &pf_name)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = pf_name;
    Simulator sim(cfg, pf);
    auto src = makeWorkload(workload);
    return sim.run(*src, kWarm, kMeasure);
}

SimResults
runObserved(const std::string &workload, const std::string &pf_name,
            TraceLog &log)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = pf_name;
    Simulator sim(cfg, pf);
    sim.attachTraceLog(log);
    IntervalSampler sampler(sim.l2side().stats(), 50'000);
    EXPECT_TRUE(sim.setSampler(&sampler).ok());
    auto src = makeWorkload(workload);
    return sim.run(*src, kWarm, kMeasure);
}

/** Every SimResults field, compared exactly (doubles included: the
 * observed run must compute the *same* arithmetic, not similar). */
void
expectBitExact(const SimResults &a, const SimResults &b)
{
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epochsPer1k, b.epochsPer1k);
    EXPECT_EQ(a.l2InstMissPer1k, b.l2InstMissPer1k);
    EXPECT_EQ(a.l2LoadMissPer1k, b.l2LoadMissPer1k);
    EXPECT_EQ(a.usefulPrefetches, b.usefulPrefetches);
    EXPECT_EQ(a.issuedPrefetches, b.issuedPrefetches);
    EXPECT_EQ(a.droppedPrefetches, b.droppedPrefetches);
    EXPECT_EQ(a.timelyPrefetches, b.timelyPrefetches);
    EXPECT_EQ(a.latePrefetches, b.latePrefetches);
    EXPECT_EQ(a.earlyEvictedPrefetches, b.earlyEvictedPrefetches);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.timeliness, b.timeliness);
    EXPECT_EQ(a.readBusUtil, b.readBusUtil);
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil);
}

} // namespace

// --- Observation-only guarantee ------------------------------------

TEST(EventTrace, AttachedLogAndSamplerLeaveResultsBitExact)
{
    for (const char *workload : {"database", "specjbb"})
        for (const char *pf : {"null", "ebcp"}) {
            SCOPED_TRACE(std::string(workload) + "/" + pf);
            const SimResults plain = runPlain(workload, pf);
            TraceLog log;
            const SimResults observed = runObserved(workload, pf, log);
            expectBitExact(plain, observed);
        }
}

// --- Chrome trace export -------------------------------------------

TEST(EventTrace, ExportedTimelineIsValidChromeTraceJson)
{
    TraceLog log;
    runObserved("database", "ebcp", log);
    ASSERT_GT(log.totalEvents(), 0u);

    TempFile tmp("observability.trace.json");
    Status s = log.exportChromeJson(tmp.path);
    ASSERT_TRUE(s.ok()) << s.toString();

    StatusOr<JsonValue> doc = parseJsonFile(tmp.path);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue *events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->array.size(), 0u);

    // Every non-metadata event carries the mandatory members, and
    // each (pid, tid) track is ts-monotone (what Perfetto's importer
    // relies on; distinct tracks -- e.g. the profiler's flame row --
    // are independent timelines).
    std::map<std::pair<double, double>, double> last_ts;
    std::size_t counter_events = 0;
    std::set<std::string> counter_names;
    for (const JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M")
            continue;
        ASSERT_TRUE(e.hasNumber("ts"));
        ASSERT_TRUE(e.hasNumber("pid"));
        ASSERT_TRUE(e.hasNumber("tid"));
        const auto track = std::make_pair(e.find("pid")->number,
                                          e.find("tid")->number);
        const double ts = e.find("ts")->number;
        auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second);
        }
        last_ts[track] = ts;
        if (ph->string == "X") {
            EXPECT_TRUE(e.hasNumber("dur"));
        }
        if (ph->string == "C") {
            // Counter tracks: sampled values live in args.value, and
            // every sample sits on the dedicated counter track.
            ++counter_events;
            const JsonValue *name = e.find("name");
            ASSERT_NE(name, nullptr);
            counter_names.insert(name->string);
            EXPECT_EQ(e.find("pid")->number, 0.0);
            EXPECT_EQ(e.find("tid")->number, 0.0);
            const JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            ASSERT_TRUE(args->isObject());
            EXPECT_TRUE(args->hasNumber("value"));
        }
    }

    // The sampler cadence drove counter samples: 200k measured insts
    // at interval 50k gives four sampling points per counter.
    EXPECT_GT(counter_events, 0u);
    EXPECT_TRUE(counter_names.count("mshr_occupancy"));
    EXPECT_TRUE(counter_names.count("pf_buffer_occupancy"));
    EXPECT_TRUE(counter_names.count("corr_table_fill"));
    EXPECT_TRUE(counter_names.count("channel_backlog_ticks"));
}

TEST(EventTrace, ValidatorRejectsMalformedTimelines)
{
    // Not JSON at all.
    EXPECT_FALSE(validateChromeTraceJson("{nope").ok());
    // No traceEvents member.
    EXPECT_FALSE(validateChromeTraceJson("{\"x\": []}").ok());
    // Event missing "ph".
    EXPECT_FALSE(
        validateChromeTraceJson(
            "{\"traceEvents\": [{\"name\": \"a\", \"ts\": 1, "
            "\"pid\": 0, \"tid\": 0}]}")
            .ok());
    // Non-monotone ts.
    EXPECT_FALSE(
        validateChromeTraceJson(
            "{\"traceEvents\": ["
            "{\"name\": \"a\", \"ph\": \"i\", \"ts\": 5, \"pid\": 0, "
            "\"tid\": 0, \"s\": \"t\"},"
            "{\"name\": \"b\", \"ph\": \"i\", \"ts\": 4, \"pid\": 0, "
            "\"tid\": 0, \"s\": \"t\"}]}")
            .ok());
    // "X" span without dur.
    EXPECT_FALSE(
        validateChromeTraceJson(
            "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", "
            "\"ts\": 1, \"pid\": 0, \"tid\": 0}]}")
            .ok());
    // Monotonicity is per (pid, tid) track: a later event on another
    // track may carry an earlier ts (the profiler flame row restarts
    // its clock at zero).
    EXPECT_TRUE(
        validateChromeTraceJson(
            "{\"traceEvents\": ["
            "{\"name\": \"a\", \"ph\": \"i\", \"ts\": 5, \"pid\": 0, "
            "\"tid\": 0, \"s\": \"t\"},"
            "{\"name\": \"b\", \"ph\": \"i\", \"ts\": 1, \"pid\": 1, "
            "\"tid\": 0, \"s\": \"t\"}]}")
            .ok());
    // "C" counter without a numeric args.value.
    EXPECT_FALSE(
        validateChromeTraceJson(
            "{\"traceEvents\": [{\"name\": \"c\", \"ph\": \"C\", "
            "\"ts\": 1, \"pid\": 0, \"tid\": 0}]}")
            .ok());
}

TEST(EventTrace, RingKeepsNewestAndCountsDropped)
{
    TraceSink sink("s", 0, 16);
    for (Tick t = 0; t < 20; ++t)
        sink.record(TraceEventKind::DemandMiss, t);
    EXPECT_EQ(sink.size(), 16u);
    EXPECT_EQ(sink.dropped(), 4u);
    const std::vector<TraceEvent> events = sink.snapshot();
    ASSERT_EQ(events.size(), 16u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].tick, Tick(4 + i)); // oldest first
}

// --- Interval sampler ----------------------------------------------

TEST(IntervalSampler, SimulatorSamplesAtExactBoundaries)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    Simulator sim(cfg, pf);
    IntervalSampler sampler(sim.l2side().stats(), 60'000);
    ASSERT_TRUE(sim.setSampler(&sampler).ok());
    auto src = makeWorkload("database");
    sim.run(*src, kWarm, kMeasure);

    // 200k measured insts at 60k intervals: 60k, 120k, 180k, plus the
    // partial final boundary at 200k.
    ASSERT_EQ(sampler.snapshots().size(), 4u);
    EXPECT_EQ(sampler.snapshots()[0].insts, 60'000u);
    EXPECT_EQ(sampler.snapshots()[1].insts, 120'000u);
    EXPECT_EQ(sampler.snapshots()[2].insts, 180'000u);
    EXPECT_EQ(sampler.snapshots()[3].insts, 200'000u);
    for (const IntervalSampler::Snapshot &s : sampler.snapshots())
        EXPECT_EQ(s.values.size(), sampler.paths().size());
    EXPECT_FALSE(sampler.paths().empty());
}

TEST(IntervalSampler, DeltaIsChangeSincePreviousBoundary)
{
    StatGroup root("root");
    Scalar hits("hits", "test counter");
    root.add(hits);

    IntervalSampler cumulative(root, 1'000,
                               IntervalSampler::Mode::Cumulative);
    IntervalSampler delta(root, 1'000, IntervalSampler::Mode::Delta);
    ASSERT_EQ(cumulative.paths().size(), 1u);
    EXPECT_EQ(cumulative.paths()[0], "root.hits");

    hits += 10;
    cumulative.sample(1'000);
    delta.sample(1'000);
    hits += 5;
    cumulative.sample(2'000);
    delta.sample(2'000);
    cumulative.sample(3'000); // no activity this interval
    delta.sample(3'000);

    EXPECT_EQ(cumulative.snapshots()[0].values[0], 10.0);
    EXPECT_EQ(cumulative.snapshots()[1].values[0], 15.0);
    EXPECT_EQ(cumulative.snapshots()[2].values[0], 15.0);
    EXPECT_EQ(delta.snapshots()[0].values[0], 10.0);
    EXPECT_EQ(delta.snapshots()[1].values[0], 5.0);
    EXPECT_EQ(delta.snapshots()[2].values[0], 0.0);

    // Delta sampling never reset the live statistic.
    EXPECT_EQ(hits.value(), 15u);
}

TEST(IntervalSampler, DeltaAverageIsPerIntervalMean)
{
    StatGroup root("root");
    Average lat("lat", "test average");
    root.add(lat);

    IntervalSampler delta(root, 100, IntervalSampler::Mode::Delta);
    lat.sample(10.0);
    lat.sample(20.0);
    delta.sample(100);
    lat.sample(90.0);
    delta.sample(200);

    // Interval 1: mean(10, 20) = 15. Interval 2: only the new sample
    // counts -- mean is 90, not the running mean of all three.
    EXPECT_DOUBLE_EQ(delta.snapshots()[0].values[0], 15.0);
    EXPECT_DOUBLE_EQ(delta.snapshots()[1].values[0], 90.0);
}

TEST(IntervalSampler, WriteJsonRoundTrips)
{
    StatGroup root("root");
    Scalar s("s", "d");
    root.add(s);
    IntervalSampler sampler(root, 500);
    s += 3;
    sampler.sample(500);

    std::ostringstream os;
    JsonWriter w(os);
    sampler.writeJson(w);
    ASSERT_TRUE(w.complete());

    StatusOr<JsonValue> doc = parseJson(os.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_TRUE(doc.value().hasNumber("interval"));
    EXPECT_EQ(doc.value().find("interval")->number, 500.0);
    const JsonValue *samples = doc.value().find("samples");
    ASSERT_NE(samples, nullptr);
    ASSERT_EQ(samples->array.size(), 1u);
    EXPECT_EQ(samples->array[0].find("insts")->number, 500.0);
}

// --- Prefetch ledger across the factory ----------------------------

TEST(PrefetchLedger, ClassifiesEveryFactoryPrefetcher)
{
    // Golden-scale windows: every scheme below has trained enough to
    // issue at least one prefetch by then.
    constexpr std::uint64_t warm = 200'000;
    constexpr std::uint64_t measure = 400'000;

    for (const char *name : {"ebcp", "stream", "ghb-small", "tcp-small",
                             "sms", "solihin-3-2", "dcpt", "amc",
                             "composite"}) {
        SCOPED_TRACE(name);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = name;
        Simulator sim(cfg, pf);
        auto src = makeWorkload("database");
        const SimResults r = sim.run(*src, warm, measure);

        EXPECT_GT(r.issuedPrefetches, 0u);

        // Used prefetches split exactly into timely + late, and the
        // lifecycle states never exceed what was issued.
        EXPECT_EQ(r.timelyPrefetches + r.latePrefetches,
                  r.usefulPrefetches);
        EXPECT_LE(r.usefulPrefetches + r.earlyEvictedPrefetches,
                  r.issuedPrefetches);

        EXPECT_GE(r.accuracy, 0.0);
        EXPECT_LE(r.accuracy, 1.0);
        EXPECT_GE(r.coverage, 0.0);
        EXPECT_LE(r.coverage, 1.0);
        EXPECT_GE(r.timeliness, 0.0);
        EXPECT_LE(r.timeliness, 1.0);

        const PrefetchLedger &ledger = sim.l2side().ledger();
        EXPECT_EQ(ledger.issued(), r.issuedPrefetches);
        EXPECT_EQ(ledger.used(), r.usefulPrefetches);
        if (r.usefulPrefetches) {
            EXPECT_DOUBLE_EQ(r.timeliness,
                             static_cast<double>(r.timelyPrefetches) /
                                 static_cast<double>(r.usefulPrefetches));
        }
    }
}

TEST(PrefetchLedger, DerivedMetrics)
{
    PrefetchLedger ledger;
    EXPECT_DOUBLE_EQ(ledger.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(ledger.timeliness(), 0.0);
    EXPECT_DOUBLE_EQ(ledger.coverage(0), 0.0);

    for (int i = 0; i < 10; ++i)
        ledger.onIssue();
    ledger.onHitTimely(100);
    ledger.onHitTimely(50);
    ledger.onHitLate(30);
    ledger.onEvictUnused();

    EXPECT_EQ(ledger.used(), 3u);
    EXPECT_DOUBLE_EQ(ledger.accuracy(), 0.3);
    EXPECT_DOUBLE_EQ(ledger.timeliness(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(ledger.coverage(7), 0.3);
    EXPECT_EQ(ledger.evictedUnused(), 1u);
}

// --- stats.json schema ---------------------------------------------

TEST(StatsJson, ProducedDocumentValidates)
{
    std::ostringstream os;
    JsonWriter w(os);
    beginStatsJson(w, "test");
    SimResults r;
    r.insts = 100;
    r.cycles = 500;
    r.cpi = 5.0;
    w.beginObject();
    w.kv("label", "database/ebcp");
    w.key("results");
    writeSimResultsJson(w, r);
    w.endObject();
    endStatsJson(w);
    ASSERT_TRUE(w.complete());

    Status s = validateStatsJson(os.str());
    EXPECT_TRUE(s.ok()) << s.toString();
}

TEST(StatsJson, DiagnosticMemberValidates)
{
    std::ostringstream os;
    JsonWriter w(os);
    beginStatsJson(w, "test");
    endStatsJson(w, "{\"kind\": \"watchdog_stall\"}");
    Status s = validateStatsJson(os.str());
    EXPECT_TRUE(s.ok()) << s.toString();
}

TEST(StatsJson, ValidatorRejectsSchemaViolations)
{
    // Wrong schema tag.
    EXPECT_FALSE(validateStatsJson("{\"schema\": \"other\", \"source\": "
                                   "\"x\", \"runs\": []}")
                     .ok());
    // Missing runs.
    EXPECT_FALSE(validateStatsJson("{\"schema\": \"ebcp-stats-v1\", "
                                   "\"source\": \"x\"}")
                     .ok());
    // Run without a label.
    EXPECT_FALSE(
        validateStatsJson("{\"schema\": \"ebcp-stats-v1\", \"source\": "
                          "\"x\", \"runs\": [{\"results\": {}}]}")
            .ok());
    // Results missing required numeric fields.
    EXPECT_FALSE(
        validateStatsJson(
            "{\"schema\": \"ebcp-stats-v1\", \"source\": \"x\", "
            "\"runs\": [{\"label\": \"l\", \"results\": {\"cpi\": 1}}]}")
            .ok());
    // Diagnostic that is not an object.
    EXPECT_FALSE(
        validateStatsJson("{\"schema\": \"ebcp-stats-v1\", \"source\": "
                          "\"x\", \"runs\": [], \"diagnostic\": 3}")
            .ok());
}

// --- Watchdog structured diagnostic --------------------------------

TEST(WatchdogJson, StallProducesStructuredDiagnostic)
{
    FaultPlan plan;
    plan.demandStall = true;
    plan.stallAfter = 2'000;

    SimConfig cfg;
    cfg.faults = plan;
    cfg.watchdogTicks = 10'000'000;
    PrefetcherParams pf;
    pf.name = "ebcp";

    auto src = makeWorkload("database", 42);
    Simulator sim(cfg, pf);
    sim.setTracePolicyName("strict");
    StatusOr<SimResults> res = sim.tryRun(*src, 20'000, 60'000);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::Stalled);

    // The text diagnostic carries the new context lines.
    const std::string &msg = res.status().message();
    EXPECT_NE(msg.find("wall clock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace policy: strict"), std::string::npos) << msg;

    // The JSON twin parses and carries the same facts, typed.
    ASSERT_FALSE(sim.lastDiagnosticJson().empty());
    StatusOr<JsonValue> doc = parseJson(sim.lastDiagnosticJson());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &d = doc.value();
    ASSERT_TRUE(d.isObject());
    const JsonValue *kind = d.find("kind");
    ASSERT_NE(kind, nullptr);
    EXPECT_EQ(kind->string, "watchdog_stall");
    EXPECT_TRUE(d.hasNumber("retire_gap_ticks"));
    EXPECT_TRUE(d.hasNumber("wall_seconds"));
    EXPECT_GE(d.find("wall_seconds")->number, 0.0);
    const JsonValue *policy = d.find("trace_policy");
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->string, "strict");
    ASSERT_NE(d.find("mshrs"), nullptr);
    EXPECT_TRUE(d.find("mshrs")->hasNumber("occupancy"));

    // And the JSON embeds cleanly as a stats.json diagnostic.
    std::ostringstream os;
    JsonWriter w(os);
    beginStatsJson(w, "test");
    endStatsJson(w, sim.lastDiagnosticJson());
    Status s = validateStatsJson(os.str());
    EXPECT_TRUE(s.ok()) << s.toString();
}
