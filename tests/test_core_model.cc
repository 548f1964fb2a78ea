/**
 * @file
 * Timing-model tests: the core must exhibit the pipeline behaviours
 * the epoch model depends on (bounded overlap, dependence
 * serialization, window-termination conditions).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/archiver.hh"
#include "cpu/core_model.hh"
#include "cpu/mem_iface.hh"
#include "verify/audit.hh"

using namespace ebcp;

namespace
{

/** Memory stub: configurable per-line miss latency, instant fetch. */
class StubMem : public MemSystem
{
  public:
    std::set<Addr> missLines;
    Tick missLatency = 500;
    Tick hitLatency = 3;
    bool instMiss = false;
    std::set<Addr> instMissLines;

    MemOutcome
    fetchInst(Addr pc, Tick when) override
    {
        const Addr line = pc & ~Addr{63};
        if (instMissLines.count(line))
            return {when + missLatency, true};
        return {when, false};
    }

    MemOutcome
    load(Addr addr, Addr, Tick when) override
    {
        const Addr line = addr & ~Addr{63};
        if (missLines.count(line))
            return {when + missLatency, true};
        return {when + hitLatency, false};
    }

    Tick store(Addr, Tick when) override { return when + 1; }
    unsigned lineBytes() const override { return 64; }
};

TraceRecord
alu(Addr pc, std::uint8_t dst = NoReg, std::uint8_t src = NoReg)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::IntAlu;
    r.dstReg = dst;
    r.srcReg0 = src;
    return r;
}

TraceRecord
load(Addr pc, Addr addr, std::uint8_t dst, std::uint8_t src = NoReg)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::Load;
    r.addr = addr;
    r.dstReg = dst;
    r.srcReg0 = src;
    return r;
}

} // namespace

TEST(CoreModel, RetireIsMonotonic)
{
    StubMem mem;
    CoreModel core({}, mem);
    Tick last = 0;
    for (int i = 0; i < 200; ++i) {
        InstTiming t = core.process(alu(0x1000 + i * 4));
        EXPECT_GE(t.retire, last);
        EXPECT_GE(t.retire, t.complete);
        EXPECT_GE(t.complete, t.issue);
        EXPECT_GE(t.issue, t.dispatch);
        EXPECT_GE(t.dispatch, t.fetch);
        last = t.retire;
    }
}

TEST(CoreModel, IndependentAlusReachAluWidth)
{
    StubMem mem;
    CoreConfig cfg;
    CoreModel core(cfg, mem);
    core.beginMeasurement();
    for (int i = 0; i < 4000; ++i)
        core.process(alu(0x1000 + (i % 8) * 4));
    // Two ALUs: best case CPI 0.5; allow modest overhead.
    EXPECT_LT(core.cpi(), 0.7);
    EXPECT_GE(core.cpi(), 0.5);
}

TEST(CoreModel, DependentChainRunsAtIpcOne)
{
    StubMem mem;
    CoreModel core({}, mem);
    core.beginMeasurement();
    for (int i = 0; i < 4000; ++i)
        core.process(alu(0x1000 + (i % 8) * 4, 5, 5)); // r5 <- r5
    EXPECT_NEAR(core.cpi(), 1.0, 0.1);
}

TEST(CoreModel, IndependentMissesOverlap)
{
    StubMem mem;
    mem.missLines = {0x10000, 0x20000};
    CoreModel core({}, mem);
    InstTiming a = core.process(load(0x1000, 0x10000, 1));
    InstTiming b = core.process(load(0x1004, 0x20000, 2));
    // Both issue before either completes: full overlap.
    EXPECT_LT(b.issue, a.complete);
    EXPECT_LT(b.complete - a.complete, 10u);
}

TEST(CoreModel, DependentMissesSerialize)
{
    StubMem mem;
    mem.missLines = {0x10000, 0x20000};
    CoreModel core({}, mem);
    InstTiming a = core.process(load(0x1000, 0x10000, 1));
    InstTiming b = core.process(load(0x1004, 0x20000, 2, 1));
    EXPECT_GE(b.issue, a.complete);
    EXPECT_GE(b.complete, a.complete + mem.missLatency);
}

TEST(CoreModel, RobBoundsMissOverlap)
{
    StubMem mem;
    mem.missLines = {0x10000, 0x20000};
    CoreConfig cfg;
    CoreModel core(cfg, mem);
    InstTiming first = core.process(load(0x1000, 0x10000, 1));
    // Fill the ROB with more independent ALU work than it can hold.
    for (unsigned i = 0; i < cfg.robEntries + 8; ++i)
        core.process(alu(0x2000 + i * 4));
    InstTiming second = core.process(load(0x3000, 0x20000, 2));
    // The second miss is beyond the window: it cannot overlap the
    // first (its dispatch waits for the first to retire).
    EXPECT_GE(second.issue, first.complete);
}

TEST(CoreModel, OffChipInstructionMissStallsFetch)
{
    StubMem mem;
    mem.instMissLines = {0x2000};
    CoreModel core({}, mem);
    core.process(alu(0x1000));
    InstTiming t = core.process(alu(0x2000)); // new line, off-chip
    EXPECT_GE(t.fetch, mem.missLatency);
}

TEST(CoreModel, MispredictedBranchRedirectsFetch)
{
    StubMem mem;
    CoreConfig cfg;
    CoreModel core(cfg, mem);
    // Branch whose outcome the fresh predictor gets wrong (counters
    // initialize weakly-not-taken, so a taken branch mispredicts).
    TraceRecord br;
    br.pc = 0x1000;
    br.op = OpClass::Branch;
    br.taken = true;
    br.target = 0x1010;
    InstTiming b = core.process(br);
    InstTiming next = core.process(alu(0x1010));
    EXPECT_GE(next.fetch, b.complete + cfg.mispredictPenalty);
}

TEST(CoreModel, BranchDependentOnMissTerminatesWindow)
{
    StubMem mem;
    mem.missLines = {0x10000};
    CoreModel core({}, mem);
    InstTiming ld = core.process(load(0x1000, 0x10000, 1));
    TraceRecord br;
    br.pc = 0x1004;
    br.op = OpClass::Branch;
    br.taken = true;  // mispredicted on a fresh predictor
    br.target = 0x2000;
    br.srcReg0 = 1;   // depends on the off-chip load
    core.process(br);
    InstTiming after = core.process(alu(0x2000));
    // Fetch resumed only after the load + branch resolved.
    EXPECT_GT(after.fetch, ld.complete);
}

TEST(CoreModel, SerializerDrainsWindow)
{
    StubMem mem;
    mem.missLines = {0x10000};
    CoreModel core({}, mem);
    InstTiming ld = core.process(load(0x1000, 0x10000, 1));
    TraceRecord s;
    s.pc = 0x1004;
    s.op = OpClass::Serialize;
    InstTiming ser = core.process(s);
    EXPECT_GE(ser.dispatch, ld.retire);
    InstTiming next = core.process(alu(0x1008));
    EXPECT_GE(next.dispatch, ser.retire);
}

TEST(CoreModel, StoreBufferFullStallsStores)
{
    StubMem mem;
    CoreConfig cfg;
    cfg.storeBufferEntries = 2;
    // Make stores drain very slowly via a custom stub.
    class SlowStoreMem : public StubMem
    {
      public:
        Tick
        store(Addr, Tick when) override
        {
            return when + 1000;
        }
    } slow;
    CoreModel core(cfg, slow);
    TraceRecord st;
    st.op = OpClass::Store;
    st.addr = 0x5000;
    st.pc = 0x1000;
    InstTiming t1 = core.process(st);
    core.process(st);
    InstTiming t3 = core.process(st); // buffer full: waits for drain
    EXPECT_GE(t3.dispatch, t1.retire + 999);
}

TEST(CoreModel, MeasurementWindowDeltas)
{
    StubMem mem;
    CoreModel core({}, mem);
    for (int i = 0; i < 100; ++i)
        core.process(alu(0x1000 + (i % 4) * 4));
    core.beginMeasurement();
    EXPECT_EQ(core.measuredInsts(), 0u);
    for (int i = 0; i < 50; ++i)
        core.process(alu(0x1000 + (i % 4) * 4));
    EXPECT_EQ(core.measuredInsts(), 50u);
    EXPECT_GT(core.measuredCycles(), 0u);
}

TEST(CoreModel, RunConsumesFromSource)
{
    StubMem mem;
    CoreModel core({}, mem);

    /** An endless run of one ALU record, lent 64 at a time. */
    class CountingSource : public TraceSource
    {
      public:
        int produced = 0;

        CountingSource()
        {
            for (TraceRecord &rec : recs_) {
                rec.op = OpClass::IntAlu;
                rec.pc = 0x1000;
            }
        }

        std::size_t
        peekSpan(const TraceRecord **out, std::size_t max) override
        {
            *out = recs_.data();
            return std::min(max, recs_.size());
        }
        void
        consumeSpan(std::size_t n) override
        {
            produced += static_cast<int>(n);
        }
        void reset() override { produced = 0; }

      private:
        std::array<TraceRecord, 64> recs_{};
    } src;

    core.run(src, 321);
    EXPECT_EQ(src.produced, 321);
    EXPECT_EQ(core.instCount(), 321u);
}

namespace
{

/** Deterministic memory stub that also fingerprints every call, so
 * two cores can be checked for issuing the same memory traffic. */
class LoggingMem : public MemSystem
{
  public:
    std::uint64_t log = 0xcbf29ce484222325ULL;
    Addr hugeLine = InvalidAddr; //!< load line that stalls for ages

    MemOutcome
    fetchInst(Addr pc, Tick when) override
    {
        note(1, pc, when);
        const bool miss = (pc >> 6) % 13 == 0;
        return {when + (miss ? 400 : 2), miss};
    }

    MemOutcome
    load(Addr addr, Addr pc, Tick when) override
    {
        note(2, addr ^ (pc << 1), when);
        if ((addr & ~Addr{63}) == hugeLine)
            return {when + 5'000'000, true};
        const bool miss = (addr >> 6) % 5 == 0;
        return {when + (miss ? 300 : 3), miss};
    }

    Tick
    store(Addr addr, Tick when) override
    {
        note(3, addr, when);
        return when + 1 + (addr >> 6) % 7;
    }

    unsigned lineBytes() const override { return 64; }

  private:
    void
    note(std::uint64_t kind, std::uint64_t a, std::uint64_t b)
    {
        for (const std::uint64_t v : {kind, a, b}) {
            log ^= v;
            log *= 0x100000001b3ULL;
        }
    }
};

/**
 * A recorded mixed stream: ALU chains, loads, stores, mispredicting
 * branches, calls and returns, serializers, FP ops, and register ids
 * outside the architectural range (which the core must ignore).
 */
std::vector<TraceRecord>
mixedStream(std::size_t n)
{
    std::vector<TraceRecord> out;
    out.reserve(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto rnd = [&x](std::uint64_t bound) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x % bound;
    };
    const auto reg = [&rnd]() -> std::uint8_t {
        const std::uint64_t k = rnd(100);
        if (k < 70)
            return static_cast<std::uint8_t>(rnd(NumArchRegs));
        if (k < 90)
            return NoReg;
        return static_cast<std::uint8_t>(NumArchRegs + rnd(100));
    };
    Addr pc = 0x10000;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.pc = pc;
        r.dstReg = reg();
        r.srcReg0 = reg();
        r.srcReg1 = reg();
        const std::uint64_t k = rnd(1000);
        if (k < 550) {
            r.op = OpClass::IntAlu;
        } else if (k < 720) {
            r.op = OpClass::Load;
            r.addr = 0x400000 + rnd(1 << 16) * 64;
        } else if (k < 800) {
            r.op = OpClass::Store;
            r.addr = 0x800000 + rnd(1 << 12) * 64;
            r.dstReg = NoReg;
        } else if (k < 900) {
            r.op = OpClass::Branch;
            r.taken = rnd(3) != 0;
            r.target = 0x10000 + rnd(4096) * 4;
        } else if (k < 930) {
            r.op = OpClass::Call;
            r.taken = true;
            r.target = 0x20000 + rnd(512) * 64;
        } else if (k < 960) {
            r.op = OpClass::Return;
            r.taken = true;
            r.target = 0x10000 + rnd(4096) * 4;
        } else if (k < 975) {
            r.op = OpClass::FpAdd;
        } else if (k < 990) {
            r.op = OpClass::FpMul;
        } else if (k < 995) {
            r.op = OpClass::Serialize;
        } else {
            r.op = OpClass::Nop;
        }
        out.push_back(r);
        pc = r.taken ? r.target : pc + 4;
    }
    return out;
}

/** Replays a record vector in spans of at most @p lend records, so a
 * run crosses many span boundaries; counts what the core asks for and
 * what it consumes. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(const std::vector<TraceRecord> &recs,
                          std::size_t lend = 1000)
        : recs_(recs), lend_(lend)
    {}

    std::size_t
    peekSpan(const TraceRecord **out, std::size_t max) override
    {
        ++peeks;
        maxAsked = std::max(maxAsked, max);
        *out = recs_.data() + pos_;
        lent_ = std::min({max, recs_.size() - pos_, lend_});
        return lent_;
    }

    void
    consumeSpan(std::size_t n) override
    {
        EXPECT_LE(n, lent_) << "consumed past the lent span";
        pos_ += n;
        lent_ = 0;
    }

    void reset() override { pos_ = 0; }

    std::size_t consumed() const { return pos_; }

    std::uint64_t peeks = 0;
    std::size_t maxAsked = 0; //!< largest max passed to peekSpan()

  private:
    const std::vector<TraceRecord> &recs_;
    std::size_t lend_;
    std::size_t pos_ = 0;
    std::size_t lent_ = 0;
};

std::string
ckptBytes(CoreModel &core)
{
    std::string out;
    ckpt::Archiver ar = ckpt::Archiver::saver(out);
    core.ckpt(ar);
    return out;
}

std::string
statsDump(CoreModel &core)
{
    std::ostringstream os;
    core.stats().dump(os);
    return os.str();
}

/** Run @p recs through run() on one core and process() on another and
 * require identical state; @p watchdog arms the run core's trip
 * machinery (the process core re-derives the trip), and
 * @p audited attaches a retire-cadence auditor to the run core, so
 * run() takes its audited loop, which must also audit clean. */
void
expectRunMatchesProcess(const std::vector<TraceRecord> &recs,
                        Addr huge_line, Tick watchdog, bool audited)
{
    LoggingMem mem_run;
    LoggingMem mem_proc;
    mem_run.hugeLine = mem_proc.hugeLine = huge_line;
    CoreModel run_core({}, mem_run);
    CoreModel proc_core({}, mem_proc);
    run_core.setWatchdog(watchdog);
    AuditOptions audit_opts;
    audit_opts.cadence = AuditCadence::Retire;
    Auditor auditor(audit_opts);
    auditor.registry().add(
        "core", [&run_core](AuditContext &c) { run_core.audit(c); });
    if (audited)
        run_core.setAuditor(&auditor);

    // Split at a point that is not a span or chunk boundary, with a
    // measurement mark in between, as warm-up + measure does.
    const std::uint64_t warm = 12'345;
    VectorSource src(recs);
    run_core.run(src, warm);
    run_core.beginMeasurement();
    if (!run_core.watchdogTripped())
        run_core.run(src, recs.size() - warm);

    Tick prev = 0;
    std::uint64_t retired = 0; // instructions that did not trip
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i == warm)
            proc_core.beginMeasurement();
        const InstTiming t = proc_core.process(recs[i]);
        if (watchdog && t.retire > prev + watchdog)
            break;
        prev = t.retire;
        ++retired;
    }

    EXPECT_EQ(run_core.watchdogTripped(), watchdog != 0);
    EXPECT_EQ(run_core.now(), proc_core.now());
    EXPECT_EQ(run_core.instCount(), proc_core.instCount());
    EXPECT_EQ(run_core.measuredCycles(), proc_core.measuredCycles());
    EXPECT_EQ(mem_run.log, mem_proc.log);
    EXPECT_EQ(statsDump(run_core), statsDump(proc_core));
    EXPECT_EQ(ckptBytes(run_core), ckptBytes(proc_core));
    EXPECT_EQ(auditor.passes(), audited ? retired : 0);
    EXPECT_TRUE(auditor.context().clean())
        << auditor.context().toStatus().toString();
    EXPECT_EQ(run_core.malformedRecords(), 0u);
}

} // namespace

TEST(CoreModelRunLoop, RunMatchesProcessOneRecordAtATime)
{
    const std::vector<TraceRecord> recs = mixedStream(60'000);
    for (const bool audited : {false, true}) {
        SCOPED_TRACE(testing::Message() << "audited=" << audited);
        expectRunMatchesProcess(recs, InvalidAddr, 0, audited);
    }
}

TEST(CoreModelRunLoop, WatchdogTripInsideASpanMatchesProcess)
{
    // One load deep inside a span stalls for 5M ticks: the watchdog
    // trips on it mid-span and both cores must stop in the same state.
    std::vector<TraceRecord> recs = mixedStream(60'000);
    TraceRecord &stall = recs[31'415];
    stall = TraceRecord{};
    stall.pc = recs[31'414].pc + 4;
    stall.op = OpClass::Load;
    stall.addr = 0x7770000;
    stall.dstReg = 7;
    for (const bool audited : {false, true}) {
        SCOPED_TRACE(testing::Message() << "audited=" << audited);
        expectRunMatchesProcess(recs, 0x7770000, 1'000'000, audited);
    }
}

TEST(CoreModelRunLoop, OneRecordSpansRunExactlyCount)
{
    // A source that lends one record per span: run() must pull span
    // after span and stop at exactly the requested count.
    const std::vector<TraceRecord> recs = mixedStream(5'000);
    LoggingMem mem;
    CoreModel core({}, mem);
    VectorSource src(recs, 1);
    core.run(src, 1'234);
    EXPECT_EQ(src.consumed(), 1'234u);
    EXPECT_EQ(src.peeks, 1'234u);
    core.run(src, 2'000);
    EXPECT_EQ(src.consumed(), 3'234u);
    EXPECT_EQ(core.instCount(), 3'234u);
}

TEST(CoreModelRunLoop, SpansLongerThanTheBudgetRunExactlyCount)
{
    // A source holding far more records than the budget: every span
    // must be asked for at most the remaining count, so the source is
    // consumed by exactly that many records.
    const std::vector<TraceRecord> recs = mixedStream(50'000);
    LoggingMem mem;
    CoreModel core({}, mem);
    VectorSource src(recs, recs.size());
    core.run(src, 777);
    EXPECT_EQ(src.consumed(), 777u);
    EXPECT_EQ(src.maxAsked, 777u);
    EXPECT_EQ(src.peeks, 1u);
    core.run(src, 12'345);
    EXPECT_EQ(src.consumed(), 13'122u);
    EXPECT_EQ(src.maxAsked, 12'345u);
    EXPECT_EQ(core.instCount(), 13'122u);

    // At exhaustion run() stops early instead of spinning.
    core.run(src, 1'000'000);
    EXPECT_EQ(src.consumed(), recs.size());
    EXPECT_EQ(core.instCount(), recs.size());
}

TEST(CoreModel, FpOpsUseFpPipelines)
{
    StubMem mem;
    CoreModel core({}, mem);
    TraceRecord f;
    f.pc = 0x1000;
    f.op = OpClass::FpMul;
    f.dstReg = 3;
    InstTiming t = core.process(f);
    EXPECT_EQ(t.complete - t.issue, opLatency(OpClass::FpMul));
}
