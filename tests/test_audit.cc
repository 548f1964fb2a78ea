/**
 * @file
 * Tests for the invariant-audit subsystem: option parsing, the
 * AuditContext accumulator, one corrupt-and-trip test per stateful
 * component, whole-simulator audit runs (clean runs stay clean and
 * bit-identical; the abort policy stops a run), and the fault x audit
 * cross-matrix proving each injected-fault kind is caught by the
 * invariant it breaks.
 *
 * The AuditFaultMatrix suite is also registered as a dedicated ctest
 * entry (audit_fault_detection) so the fault-catching guarantee is a
 * first-class gate, not a side effect of the gtest glob.
 */

#include <gtest/gtest.h>

#include <string_view>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "cache/prefetch_buffer.hh"
#include "prefetch/correlation_table.hh"
#include "core/ebcp.hh"
#include "core/emab.hh"
#include "core/table_allocation.hh"
#include "epoch/epoch_tracker.hh"
#include "mem/channel.hh"
#include "mem/main_memory.hh"
#include "sim/simulator.hh"
#include "trace/fault_injection.hh"
#include "trace/workloads.hh"
#include "util/flat_map.hh"
#include "util/json.hh"
#include "verify/audit.hh"

#include "results_print.hh"

using namespace ebcp;

namespace
{

/** Run one component audit pass under a fresh context. */
template <typename Component>
AuditContext
auditOf(const Component &c, std::string_view name = "test")
{
    AuditContext ctx;
    ctx.beginComponent(name);
    c.audit(ctx);
    return ctx;
}

bool
hasViolation(const AuditContext &ctx, std::string_view invariant)
{
    for (const AuditViolation &v : ctx.violations())
        if (v.invariant == invariant)
            return true;
    return false;
}

std::string
violationNames(const AuditContext &ctx)
{
    std::string out;
    for (const AuditViolation &v : ctx.violations())
        out += v.component + ":" + v.invariant + " ";
    return out.empty() ? "<none>" : out;
}

} // namespace

// ---------------------------------------------------------------------
// Option parsing.
// ---------------------------------------------------------------------

TEST(AuditParse, CadenceSpellings)
{
    AuditOptions o;
    ASSERT_TRUE(parseAuditCadence("off", o).ok());
    EXPECT_EQ(o.cadence, AuditCadence::Off);
    EXPECT_FALSE(o.enabled());

    ASSERT_TRUE(parseAuditCadence("retire", o).ok());
    EXPECT_EQ(o.cadence, AuditCadence::Retire);
    EXPECT_TRUE(o.enabled());

    ASSERT_TRUE(parseAuditCadence("epoch", o).ok());
    EXPECT_EQ(o.cadence, AuditCadence::Epoch);

    ASSERT_TRUE(parseAuditCadence("every:5000", o).ok());
    EXPECT_EQ(o.cadence, AuditCadence::EveryN);
    EXPECT_EQ(o.everyTicks, 5000u);
}

TEST(AuditParse, RejectsBadCadences)
{
    AuditOptions o;
    for (const char *bad : {"", "sometimes", "every:", "every:0",
                            "every:-5", "every:12x", "Retire"}) {
        Status s = parseAuditCadence(bad, o);
        EXPECT_FALSE(s.ok()) << "accepted audit='" << bad << "'";
        if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
        }
    }
}

TEST(AuditParse, PolicySpellings)
{
    AuditOptions o;
    ASSERT_TRUE(parseAuditPolicy("collect", o).ok());
    EXPECT_EQ(o.policy, AuditPolicy::Collect);
    ASSERT_TRUE(parseAuditPolicy("abort", o).ok());
    EXPECT_EQ(o.policy, AuditPolicy::Abort);
    EXPECT_FALSE(parseAuditPolicy("panic", o).ok());
    EXPECT_FALSE(parseAuditPolicy("", o).ok());
}

// ---------------------------------------------------------------------
// The AuditContext accumulator.
// ---------------------------------------------------------------------

TEST(AuditContextTest, ChecksAndViolations)
{
    AuditContext ctx;
    ctx.beginComponent("widget");
    ctx.setNow(42);

    EXPECT_TRUE(ctx.check(true, "fine"));
    EXPECT_TRUE(ctx.clean());
    EXPECT_EQ(ctx.checksRun(), 1u);

    EXPECT_FALSE(ctx.check(false, "broken", "detail ", 7));
    EXPECT_FALSE(ctx.clean());
    EXPECT_EQ(ctx.totalViolations(), 1u);
    ASSERT_EQ(ctx.violations().size(), 1u);
    EXPECT_EQ(ctx.violations()[0].component, "widget");
    EXPECT_EQ(ctx.violations()[0].invariant, "broken");
    EXPECT_EQ(ctx.violations()[0].detail, "detail 7");
    EXPECT_EQ(ctx.violations()[0].when, 42u);

    ctx.fail("also_broken", "unconditional");
    EXPECT_EQ(ctx.totalViolations(), 2u);
}

TEST(AuditContextTest, RecordingIsCappedButCountingIsNot)
{
    AuditContext ctx;
    ctx.beginComponent("flood");
    for (int i = 0; i < 100; ++i)
        ctx.fail("flooded", "violation ", i);
    EXPECT_EQ(ctx.totalViolations(), 100u);
    EXPECT_EQ(ctx.violations().size(), 32u) << "cap must hold";
}

TEST(AuditContextTest, ToStatusNamesTheFirstViolation)
{
    AuditContext ctx;
    EXPECT_TRUE(ctx.toStatus().ok());

    ctx.beginComponent("core0");
    ctx.fail("rob_age_ordered", "entries out of order");
    Status s = ctx.toStatus();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvariantViolation);
    EXPECT_NE(s.message().find("core0"), std::string::npos);
    EXPECT_NE(s.message().find("rob_age_ordered"), std::string::npos);
}

TEST(AuditContextTest, WriteJsonParsesAndCarriesStructure)
{
    AuditContext ctx;
    ctx.beginComponent("l2");
    ctx.setNow(9);
    ctx.check(true, "good");
    ctx.fail("bad \"quoted\"", "detail\nline");

    std::ostringstream os;
    JsonWriter w(os);
    ctx.writeJson(w);
    StatusOr<JsonValue> v = parseJson(os.str());
    ASSERT_TRUE(v.ok()) << v.status().toString();
    const JsonValue &d = v.value();
    EXPECT_EQ(d.find("checks")->number, 2.0);
    EXPECT_EQ(d.find("violation_count")->number, 1.0);
    EXPECT_EQ(d.find("violations_dropped")->number, 0.0);
    ASSERT_EQ(d.find("violations")->array.size(), 1u);
    const JsonValue &viol = d.find("violations")->array[0];
    EXPECT_EQ(viol.find("component")->string, "l2");
    EXPECT_EQ(viol.find("invariant")->string, "bad \"quoted\"");
    EXPECT_EQ(viol.find("tick")->number, 9.0);
}

TEST(AuditContextTest, ResetForgetsEverything)
{
    AuditContext ctx;
    ctx.fail("x", "y");
    ctx.reset();
    EXPECT_TRUE(ctx.clean());
    EXPECT_EQ(ctx.checksRun(), 0u);
    EXPECT_TRUE(ctx.violations().empty());
}

// ---------------------------------------------------------------------
// Per-component corrupt-and-trip tests. Each component must audit
// clean when healthy and trip its own invariant after corruptForTest().
// ---------------------------------------------------------------------

TEST(ComponentAudits, FlatMapProbeChainIntegrity)
{
    FlatMap<Tick> m;
    for (std::uint64_t k = 0; k < 24; ++k)
        m[k * 64] = k;
    EXPECT_TRUE(m.integrityError().empty());
    m.corruptForTest();
    EXPECT_FALSE(m.integrityError().empty());
}

TEST(ComponentAudits, MshrFileTrips)
{
    MshrFile mshrs("mshr_ut", 4);
    mshrs.allocate(0x1000, 500);
    mshrs.allocate(0x2000, 700);
    EXPECT_TRUE(auditOf(mshrs).clean());

    mshrs.corruptForTest();
    AuditContext ctx = auditOf(mshrs);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "occupancy_within_capacity"))
        << violationNames(ctx);
}

TEST(ComponentAudits, CacheTagArrayTrips)
{
    Cache c(CacheConfig{"l2_ut", 64 * KiB, 4, 64, 20});
    for (Addr a = 0; a < 64 * 64; a += 64)
        c.fill(a);
    EXPECT_TRUE(auditOf(c).clean());

    c.corruptForTest();
    AuditContext ctx = auditOf(c);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "no_duplicate_tags_in_set"))
        << violationNames(ctx);
}

TEST(ComponentAudits, PrefetchBufferTrips)
{
    PrefetchBuffer buf(64, 4, 64);
    buf.insert(0x4000, 100, 1, true);
    buf.insert(0x8000, 120, 2, true);
    EXPECT_TRUE(auditOf(buf).clean());

    buf.corruptForTest();
    AuditContext ctx = auditOf(buf);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
}

TEST(ComponentAudits, EmabTrips)
{
    Emab emab(4, 8);
    emab.beginEpoch(1, 0x1000);
    emab.recordMiss(0x1040);
    emab.beginEpoch(2, 0x2000);
    EXPECT_TRUE(auditOf(emab).clean());

    emab.corruptForTest();
    AuditContext ctx = auditOf(emab);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "epochs_strictly_increasing"))
        << violationNames(ctx);
}

TEST(ComponentAudits, EmptyEmabTripsViaOverfill)
{
    Emab emab(4, 4);
    emab.corruptForTest();
    AuditContext ctx = auditOf(emab);
    EXPECT_TRUE(hasViolation(ctx, "addrs_within_entry_cap"))
        << violationNames(ctx);
}

TEST(ComponentAudits, EpochTrackerTrips)
{
    EpochTracker tracker;
    tracker.observe(1000, 1500);
    tracker.observe(2600, 3100);
    EXPECT_TRUE(auditOf(tracker).clean());

    tracker.corruptForTest();
    AuditContext ctx = auditOf(tracker);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "epoch_span_well_formed"))
        << violationNames(ctx);
}

TEST(ComponentAudits, CorrelationTableTrips)
{
    CorrTableConfig tcfg;
    tcfg.entries = 1ULL << 10;
    tcfg.addrsPerEntry = 8;
    CorrelationTable table(tcfg);
    table.update(0x1000, {0x2000, 0x3000});
    EXPECT_TRUE(auditOf(table).clean());

    table.corruptForTest();
    AuditContext ctx = auditOf(table);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "tag_indexes_home"))
        << violationNames(ctx);
}

TEST(ComponentAudits, TableAllocationTrips)
{
    TableAllocation alloc(64 * MiB, 1000);
    EXPECT_TRUE(auditOf(alloc).clean());
    alloc.requestInitial(0);
    EXPECT_TRUE(auditOf(alloc).clean());

    alloc.corruptForTest();
    AuditContext ctx = auditOf(alloc);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "base_matches_state"))
        << violationNames(ctx);
}

TEST(ComponentAudits, ChannelTrips)
{
    Channel chan("bus_ut", 3.2, 2000);
    chan.request(0, MemPriority::Demand, 64);
    chan.request(10, MemPriority::Low, 64);
    EXPECT_TRUE(auditOf(chan).clean());

    chan.corruptForTest();
    AuditContext ctx = auditOf(chan);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "request_conservation"))
        << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "priority_horizons_ordered"))
        << violationNames(ctx);
}

TEST(ComponentAudits, MainMemoryTrips)
{
    MainMemory mem{MemConfig{}};
    mem.access(0, MemReqType::DemandLoad);
    mem.access(100, MemReqType::Prefetch);
    mem.access(200, MemReqType::StoreWrite);
    EXPECT_TRUE(auditOf(mem).clean());

    mem.corruptForTest();
    AuditContext ctx = auditOf(mem);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "read_request_conservation"))
        << violationNames(ctx);
}

TEST(ComponentAudits, CoreModelTrips)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    sim.run(*src, 2000, 4000);
    EXPECT_TRUE(auditOf(sim.core()).clean());

    sim.core().corruptForTest();
    AuditContext ctx = auditOf(sim.core());
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
}

TEST(ComponentAudits, L2BufferExclusivityTrips)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    sim.run(*src, 2000, 4000);
    EXPECT_TRUE(auditOf(sim.l2side()).clean());

    sim.l2side().corruptForTest();
    AuditContext ctx = auditOf(sim.l2side());
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
    EXPECT_TRUE(hasViolation(ctx, "line_not_in_l2_and_buffer"))
        << violationNames(ctx);
}

TEST(ComponentAudits, EbcpPrefetcherTrips)
{
    EbcpConfig ecfg;
    ecfg.tableEntries = 1ULL << 12;
    EpochBasedPrefetcher pf(ecfg);
    EXPECT_TRUE(auditOf(pf).clean());

    // Corrupting the per-core EMAB must surface through the
    // prefetcher's own audit, which recurses into all its parts.
    pf.emabForTest().corruptForTest();
    AuditContext ctx = auditOf(pf);
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
}

// ---------------------------------------------------------------------
// Whole-simulator audit runs.
// ---------------------------------------------------------------------

namespace
{

AuditOptions
everyTicks(std::uint64_t n,
           AuditPolicy policy = AuditPolicy::Collect)
{
    AuditOptions o;
    o.cadence = AuditCadence::EveryN;
    o.everyTicks = n;
    o.policy = policy;
    return o;
}

} // namespace

TEST(SimulatorAudit, CleanRunAuditsCleanAtEveryCadence)
{
    for (AuditCadence cad :
         {AuditCadence::Retire, AuditCadence::Epoch,
          AuditCadence::EveryN}) {
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = "ebcp";
        Simulator sim(cfg, pf);
        AuditOptions o;
        o.cadence = cad;
        o.everyTicks = 5000;
        ASSERT_TRUE(sim.configureAudit(o).ok());
        auto src = makeWorkload("database");
        // Keep the retire-cadence run small: a full registry pass per
        // retired instruction is the most expensive configuration.
        const std::uint64_t insts =
            cad == AuditCadence::Retire ? 2000 : 30000;
        sim.run(*src, insts / 2, insts);

        ASSERT_NE(sim.auditor(), nullptr);
        EXPECT_GT(sim.auditor()->passes(), 0u);
        EXPECT_TRUE(sim.auditor()->context().clean())
            << violationNames(sim.auditor()->context());
        EXPECT_TRUE(sim.auditor()->toStatus().ok());
    }
}

TEST(SimulatorAudit, AuditingDoesNotPerturbResults)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";

    auto s1 = makeWorkload("specjbb");
    Simulator plain(cfg, pf);
    SimResults a = plain.run(*s1, 30000, 60000);

    auto s2 = makeWorkload("specjbb");
    Simulator audited(cfg, pf);
    ASSERT_TRUE(audited.configureAudit(everyTicks(2000)).ok());
    SimResults b = audited.run(*s2, 30000, 60000);

    EXPECT_EQ(a, b);
    ASSERT_NE(audited.auditor(), nullptr);
    EXPECT_GT(audited.auditor()->passes(), 0u);
}

TEST(SimulatorAudit, EveryRunGetsAtLeastOneFinalPass)
{
    // A cadence so sparse no periodic pass would fire: the simulator
    // still runs one final pass before collecting results.
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    ASSERT_TRUE(
        sim.configureAudit(everyTicks(std::uint64_t(1) << 60)).ok());
    auto src = makeWorkload("database");
    StatusOr<SimResults> r = sim.tryRun(*src, 1000, 2000);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_GE(sim.auditor()->passes(), 1u);
}

TEST(SimulatorAudit, AbortPolicyStopsTheRun)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    ASSERT_TRUE(
        sim.configureAudit(everyTicks(100, AuditPolicy::Abort)).ok());

    // Pre-corrupt the core: the first audit pass must request an
    // abort, and tryRun must surface it as an InvariantViolation.
    sim.core().corruptForTest();
    auto src = makeWorkload("database");
    StatusOr<SimResults> r = sim.tryRun(*src, 5000, 10000);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvariantViolation);
    EXPECT_TRUE(sim.auditor()->abortRequested());
}

TEST(SimulatorAudit, SummaryJsonParsesAndEmbedsInStats)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    Simulator sim(cfg, pf);
    ASSERT_TRUE(sim.configureAudit(everyTicks(2000)).ok());
    auto src = makeWorkload("database");
    sim.run(*src, 10000, 20000);

    const std::string summary = sim.auditSummaryJson();
    ASSERT_FALSE(summary.empty());
    StatusOr<JsonValue> v = parseJson(summary);
    ASSERT_TRUE(v.ok()) << v.status().toString();
    EXPECT_TRUE(v.value().hasNumber("passes"));
    const JsonValue *result = v.value().find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->hasNumber("checks"));
    EXPECT_EQ(result->find("violation_count")->number, 0.0);
}

TEST(SimulatorAudit, OffCadenceDetachesTheAuditor)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    ASSERT_TRUE(sim.configureAudit(everyTicks(1000)).ok());
    EXPECT_NE(sim.auditor(), nullptr);

    ASSERT_TRUE(sim.configureAudit(AuditOptions{}).ok());
    EXPECT_EQ(sim.auditor(), nullptr);
    EXPECT_EQ(sim.auditSummaryJson(), "");
}

TEST(SimulatorAudit, CmpAuditsAllCores)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    pf.ebcp.numCoreStates = 2;
    Simulator sys(cfg, pf, 2);
    ASSERT_TRUE(sys.configureAudit(everyTicks(5000)).ok());

    auto s0 = makeWorkload("database", 1);
    auto s1 = makeWorkload("tpcw", 2);
    std::vector<TraceSource *> sources{s0.get(), s1.get()};
    sys.run(sources, 10000, 20000);

    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_GT(sys.auditor()->passes(), 0u);
    EXPECT_TRUE(sys.auditor()->context().clean())
        << violationNames(sys.auditor()->context());

    // A corrupted core must surface under its per-core registry name.
    sys.core(1).corruptForTest();
    AuditContext ctx = auditOf(sys.core(1), "core1");
    EXPECT_FALSE(ctx.clean()) << violationNames(ctx);
}

TEST(SimulatorAudit, CmpAbortPolicyStopsTheRun)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sys(cfg, pf, 2);
    ASSERT_TRUE(
        sys.configureAudit(everyTicks(100, AuditPolicy::Abort)).ok());
    sys.core(0).corruptForTest();

    auto s0 = makeWorkload("database", 1);
    auto s1 = makeWorkload("database", 2);
    std::vector<TraceSource *> sources{s0.get(), s1.get()};
    StatusOr<SimResults> r = sys.tryRun(sources, 5000, 10000);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvariantViolation);
}

// ---------------------------------------------------------------------
// Fault x audit cross-matrix: every table/trace fault kind must be
// caught by the invariant it breaks. Registered as the dedicated
// audit_fault_detection ctest entry.
// ---------------------------------------------------------------------

namespace
{

const AuditContext &
runWithFaults(Simulator &sim, TraceSource &src,
              const AuditOptions &opts)
{
    EXPECT_TRUE(sim.configureAudit(opts).ok());
    SimResults r = sim.run(src, 30000, 60000);
    EXPECT_GT(r.insts, 0u);
    return sim.auditor()->context();
}

} // namespace

TEST(AuditFaultMatrix, FaultFreeRunIsClean)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    const AuditContext &ctx = runWithFaults(sim, *src, everyTicks(2000));
    EXPECT_TRUE(ctx.clean()) << violationNames(ctx);
}

TEST(AuditFaultMatrix, TableDropCaughtByConservation)
{
    SimConfig cfg;
    cfg.faults.tableDrop = true;
    cfg.faults.rate = 1.0;
    PrefetcherParams pf;
    pf.name = "ebcp";

    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    const AuditContext &ctx = runWithFaults(sim, *src, everyTicks(2000));
    EXPECT_FALSE(ctx.clean());
    EXPECT_TRUE(hasViolation(ctx, "table_read_conservation"))
        << violationNames(ctx);
}

TEST(AuditFaultMatrix, TableDelayCaughtByLatencyBound)
{
    SimConfig cfg;
    cfg.faults.tableDelay = true;
    cfg.faults.rate = 1.0;
    // The default delay (2000 ticks) sits exactly at the served-read
    // bound; stretch it far past the drop horizon instead.
    cfg.faults.tableDelayTicks = 50000;
    PrefetcherParams pf;
    pf.name = "ebcp";

    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    const AuditContext &ctx = runWithFaults(sim, *src, everyTicks(2000));
    EXPECT_FALSE(ctx.clean());
    EXPECT_TRUE(hasViolation(ctx, "table_read_latency_bounded"))
        << violationNames(ctx);
}

TEST(AuditFaultMatrix, TraceBitflipCaughtByRecordScreening)
{
    SimConfig cfg;
    cfg.faults.traceBitflip = true;
    cfg.faults.rate = 0.05;
    PrefetcherParams pf;
    pf.name = "ebcp";

    auto inner = makeWorkload("database");
    FaultInjectingTraceSource faulty(*inner, cfg.faults);

    Simulator sim(cfg, pf);
    const AuditContext &ctx =
        runWithFaults(sim, faulty, everyTicks(2000));
    EXPECT_GT(faulty.bitflipsInjected(), 0u);
    EXPECT_FALSE(ctx.clean());
    EXPECT_TRUE(hasViolation(ctx, "trace_records_well_formed"))
        << violationNames(ctx);
}

TEST(AuditFaultMatrix, CheckpointRoundTripStaysClean)
{
    // Crash-safety x audit: a measurement forked from a restored
    // checkpoint must satisfy every runtime invariant, exactly as the
    // uninterrupted run does. A violation here means deserialization
    // rebuilt internally inconsistent component state.
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";

    std::string blob;
    {
        Simulator sim(cfg, pf);
        auto src = makeWorkload("database");
        ASSERT_TRUE(sim.runWarm(*src, 30000).ok());
        StatusOr<std::string> b = sim.serializeCheckpoint(*src);
        ASSERT_TRUE(b.ok()) << b.status().toString();
        blob = b.take();
    }

    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    ASSERT_TRUE(sim.restoreCheckpoint(blob, *src).ok());
    ASSERT_TRUE(sim.configureAudit(everyTicks(2000)).ok());
    StatusOr<SimResults> r = sim.runMeasure(*src, 60000);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const AuditContext &ctx = sim.auditor()->context();
    EXPECT_TRUE(ctx.clean()) << violationNames(ctx);
}

TEST(AuditFaultMatrix, CorruptionAfterRestoreStillTripsAudit)
{
    // The audit must keep its teeth on a restored simulator: damage
    // the restored core state and the Abort-policy audit must fail
    // the measurement with InvariantViolation.
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";

    std::string blob;
    {
        Simulator sim(cfg, pf);
        auto src = makeWorkload("database");
        ASSERT_TRUE(sim.runWarm(*src, 30000).ok());
        StatusOr<std::string> b = sim.serializeCheckpoint(*src);
        ASSERT_TRUE(b.ok()) << b.status().toString();
        blob = b.take();
    }

    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    ASSERT_TRUE(sim.restoreCheckpoint(blob, *src).ok());
    ASSERT_TRUE(
        sim.configureAudit(everyTicks(100, AuditPolicy::Abort)).ok());
    sim.core().corruptForTest();
    StatusOr<SimResults> r = sim.runMeasure(*src, 60000);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvariantViolation);
}

TEST(AuditFaultMatrix, AbortPolicyTurnsAFaultIntoAFailedRun)
{
    SimConfig cfg;
    cfg.faults.tableDrop = true;
    cfg.faults.rate = 1.0;
    PrefetcherParams pf;
    pf.name = "ebcp";

    Simulator sim(cfg, pf);
    ASSERT_TRUE(
        sim.configureAudit(everyTicks(2000, AuditPolicy::Abort)).ok());
    auto src = makeWorkload("database");
    StatusOr<SimResults> r = sim.tryRun(*src, 30000, 60000);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvariantViolation);
    EXPECT_NE(r.status().message().find("table_read_conservation"),
              std::string::npos)
        << r.status().message();
}
