/**
 * @file
 * One-pass out-of-order core timing model.
 *
 * Each dynamic instruction is assigned fetch / dispatch / issue /
 * complete / retire ticks in a single pass over the trace. The model
 * captures exactly the mechanisms the epoch MLP model (Section 2.1)
 * depends on:
 *
 *  - off-chip misses overlap only within the instruction window
 *    (ROB / issue-queue / store-buffer capacity constraints),
 *  - register dependences serialize dependent misses (pointer chasing
 *    yields one miss per epoch; independent scans yield several),
 *  - the paper's window-termination conditions all emerge naturally:
 *    ROB/IQ full, serializing instructions, mispredicted branches that
 *    depend on an off-chip miss, and off-chip instruction misses.
 *
 * The style of model (interval / one-pass) trades cycle-exactness for
 * speed; relative prefetcher behaviour -- which misses overlap, how
 * many epochs execution splits into -- is preserved.
 */

#ifndef EBCP_CPU_CORE_MODEL_HH
#define EBCP_CPU_CORE_MODEL_HH

#include <array>
#include <chrono>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_config.hh"
#include "cpu/mem_iface.hh"
#include "cpu/trace.hh"
#include "cpu/width_limiter.hh"
#include "stats/group.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

class AuditContext;
class Auditor;

/** Timing assigned to one instruction (exposed for tests). */
struct InstTiming
{
    Tick fetch = 0;
    Tick dispatch = 0;
    Tick issue = 0;
    Tick complete = 0;
    Tick retire = 0;
    bool offChip = false;
};

/** The out-of-order core. */
class CoreModel
{
  public:
    CoreModel(const CoreConfig &cfg, MemSystem &mem);

    /** Process one instruction; @return its timing. */
    InstTiming process(const TraceRecord &rec);

    /** Run @p count instructions from @p src. With a wall deadline
     * armed, execution proceeds in ~8k-instruction chunks with a
     * clock check between chunks; otherwise it is a single
     * uninterrupted pass with zero deadline cost. */
    void run(TraceSource &src, std::uint64_t count);

    /**
     * Mark the end of warm-up: subsequent CPI queries report only the
     * instructions processed after this call.
     */
    void beginMeasurement();

    /** Instructions processed since beginMeasurement(). */
    std::uint64_t measuredInsts() const { return s_.insts - instMark_; }

    /** Cycles elapsed since beginMeasurement(). */
    Tick
    measuredCycles() const
    {
        return s_.lastRetire > tickMark_ ? s_.lastRetire - tickMark_ : 0;
    }

    /** Overall CPI of the measurement window. */
    double
    cpi() const
    {
        return measuredInsts()
                   ? static_cast<double>(measuredCycles()) / measuredInsts()
                   : 0.0;
    }

    Tick now() const { return s_.lastRetire; }
    std::uint64_t instCount() const { return s_.insts; }

    /**
     * Arm the forward-progress watchdog: run() stops (and
     * watchdogTripped() turns true) once consecutive retirements are
     * more than @p max_retire_gap ticks apart. In this one-pass model
     * every instruction retires eventually, so a liveness bug in the
     * timing machinery (leaked MSHR, wedged channel) manifests as an
     * unbounded tick jump between retirements -- exactly what this
     * detects. 0 disables.
     */
    void setWatchdog(Tick max_retire_gap)
    {
        watchdogLimit_ = max_retire_gap;
    }

    bool watchdogTripped() const { return watchdogTripped_; }

    /** The retire gap that tripped the watchdog. */
    Tick watchdogGap() const { return watchdogGap_; }

    /** Wall-clock seconds inside the run() call that tripped. */
    double watchdogWallSeconds() const { return watchdogWallSeconds_; }

    /**
     * Arm an absolute wall-clock deadline. Once it passes, run()
     * stops through the watchdog-trip path (watchdogTripped() turns
     * true with a zero gap and wallDeadlineTripped() set), so the
     * caller gets the same Stalled status + diagnostic a liveness
     * failure would produce. The check runs once every few thousand
     * instructions, so an unarmed deadline costs nothing and an armed
     * one costs one clock read per ~8k instructions. Run-scoped like
     * watchdog arming: not part of checkpointed state.
     */
    void
    setWallDeadline(std::chrono::steady_clock::time_point deadline)
    {
        wallDeadline_ = deadline;
        wallDeadlineArmed_ = true;
    }

    void clearWallDeadline() { wallDeadlineArmed_ = false; }

    /** True when the last trip came from the wall deadline, not a
     * retire gap. */
    bool wallDeadlineTripped() const { return wallDeadlineTripped_; }

    /** ROB entries retiring after tick @p t (watchdog diagnostics:
     * pass the last healthy retire tick to see what was in flight
     * across the stall). */
    unsigned robOccupancyAfter(Tick t) const;

    BranchPredictor &branchPredictor() { return bp_; }
    StatGroup &stats() { return stats_; }

    /**
     * Attach the invariant auditor. When set, run() fires the
     * retire-cadence hook after each instruction and screens each
     * trace record with recordAuditError(); when null (always legal),
     * run() takes a loop with neither.
     */
    void setAuditor(Auditor *aud) { auditor_ = aud; }

    /** Records flagged by recordAuditError() (auditor attached). */
    std::uint64_t malformedRecords() const { return malformedRecords_; }

    /**
     * Re-derive window invariants from the retirement state: the ROB
     * ring is age-ordered up to its newest entry (== the last retire,
     * which nothing in flight may outlive), the ring cursors agree
     * with the dispatch sequence numbers, and no screened trace record
     * was malformed.
     */
    void audit(AuditContext &ctx) const;

    /** Test-only: break ROB age order so audit() trips. */
    void corruptForTest();

    /** Serialize or restore all mutable timing state (checkpointing).
     * Watchdog arming and the attached auditor are run-scoped, not
     * state, and are left alone. */
    void ckpt(ckpt::Archiver &ar);

  private:
    /** Wrap a ring cursor (cheaper than % on a runtime size). */
    static std::size_t
    bump(std::size_t i, std::size_t size)
    {
        return ++i == size ? 0 : i;
    }

    /**
     * The scheduling state every instruction reads and writes, as one
     * value. retireLoop() copies it into a local for each span so it
     * lives in registers: held through `this`, every store to a ring
     * slot, register ready time or stat counter (all 64-bit words that
     * may alias it) forced it to be reloaded.
     */
    struct Sched
    {
        explicit Sched(const CoreConfig &cfg)
            : fetchLim(cfg.fetchWidth), dispatchLim(cfg.decodeWidth),
              retireLim(cfg.retireWidth), aluLim(cfg.numAlus),
              lsuLim(cfg.numLoadStoreUnits), brLim(cfg.numBranchUnits),
              fpAddLim(cfg.numFpAddUnits), fpMulLim(cfg.numFpMulUnits)
        {}

        WidthLimiter fetchLim;
        WidthLimiter dispatchLim;
        WidthLimiter retireLim;
        WidthLimiter aluLim;
        WidthLimiter lsuLim;
        WidthLimiter brLim;
        WidthLimiter fpAddLim;
        WidthLimiter fpMulLim;

        // Fetch state.
        Addr fetchLine = InvalidAddr;
        Tick fetchLineReady = 0;
        Tick fetchResume = 0; //!< earliest fetch after redirects/stalls

        Tick lastRetire = 0;
        Tick serializeBarrier = 0; //!< dispatch floor after a serializer

        // Ring cursors: seq % size without the per-instruction division.
        std::size_t robIdx = 0;
        std::size_t iqIdx = 0;
        std::size_t sbIdx = 0;
        std::size_t lbIdx = 0;
        std::uint64_t seq = 0;      //!< dispatched instruction count
        std::uint64_t storeSeq = 0; //!< dispatched store count
        std::uint64_t loadSeq = 0;  //!< dispatched load count
        std::uint64_t insts = 0;
    };

    /**
     * Time one instruction against @p s: the member state for
     * process(), a span-local copy for retireLoop(). A non-null
     * @p sync receives @p s before every call into the memory system,
     * so audits fired from inside it see exactly the state they would
     * see with no copy in between.
     */
    inline InstTiming step(Sched &s, const TraceRecord &rec, Sched *sync);

    CoreConfig cfg_;
    MemSystem &mem_;
    Addr lineBytes_; //!< cached mem_.lineBytes() (virtual call)
    BranchPredictor bp_;

    // Per-architectural-register ready times.
    std::array<Tick, NumArchRegs> regReady_{};

    // Window resources, as rings of the tick at which entry (i - size)
    // frees, indexed by the Sched cursors.
    std::vector<Tick> robRetire_;
    std::vector<Tick> iqIssue_;
    std::vector<Tick> sbDrain_;
    std::vector<Tick> lbComplete_;

    Sched s_;

    std::uint64_t instMark_ = 0;
    Tick tickMark_ = 0;

    Tick watchdogLimit_ = 0; //!< max retire-to-retire gap; 0 = off
    Tick watchdogGap_ = 0;
    bool watchdogTripped_ = false;
    double watchdogWallSeconds_ = 0.0;

    /** The deadline-free retirement loop behind run(): picks the
     * audited or the unaudited instance of retireLoop() once. */
    void runBounded(TraceSource &src, std::uint64_t count);

    /** One loop body, instantiated twice. The unaudited instance has
     * no state write-backs, record screening or retire hook. */
    template <bool Audited>
    void retireLoop(TraceSource &src, std::uint64_t count);

    std::chrono::steady_clock::time_point wallDeadline_{};
    bool wallDeadlineArmed_ = false;
    bool wallDeadlineTripped_ = false;

    Auditor *auditor_ = nullptr;
    std::uint64_t malformedRecords_ = 0;

    StatGroup stats_;
    Scalar loads_{"loads", "load instructions"};
    Scalar stores_{"stores", "store instructions"};
    Scalar branches_{"branches", "control instructions"};
    Scalar offChipLoads_{"offchip_loads", "loads serviced off chip"};
    Scalar offChipFetches_{"offchip_fetches",
                           "instruction lines fetched off chip"};
    Scalar serializers_{"serializers", "serializing instructions"};
};

} // namespace ebcp

#endif // EBCP_CPU_CORE_MODEL_HH
