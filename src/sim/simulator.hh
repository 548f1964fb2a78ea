/**
 * @file
 * The simulated system: N cores, each with private L1s and its own
 * trace source, over one shared banked L2, prefetch buffer,
 * prefetcher control and memory system -- Figure 2's arrangement.
 * A single-core system is the N = 1 case.
 *
 * With N > 1 the cores are interleaved in small jittered instruction
 * quanta, which approximates concurrent execution closely enough for
 * the behaviours of interest (the paper's Section 6 future work):
 *
 *  - the shared prefetcher control still sees each core's L1 miss
 *    requests *with the core id* (it sits in front of the crossbar),
 *    so an epoch-based prefetcher can keep per-core EMABs;
 *  - anything observing only the stream of requests that reach main
 *    memory (a memory-side scheme like Solihin's) sees the cores'
 *    miss streams interleaved, which destroys its correlation -- the
 *    paper's Section 3.3.1 argument.
 */

#ifndef EBCP_SIM_SIMULATOR_HH
#define EBCP_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "mem/main_memory.hh"
#include "sim/hierarchy.hh"
#include "sim/l2_subsystem.hh"
#include "sim/prefetcher_factory.hh"
#include "sim/results.hh"
#include "sim/sim_config.hh"
#include "stats/interval.hh"
#include "util/event_trace.hh"
#include "util/random.hh"
#include "util/status.hh"

namespace ebcp
{

/**
 * One trace source per core, borrowed for the length of a call. A
 * single TraceSource converts implicitly, so single-core callers pass
 * their source as is.
 */
class SourceList
{
  public:
    SourceList(TraceSource &src) : one_(&src), size_(1) {}
    SourceList(const std::vector<TraceSource *> &srcs)
        : many_(srcs.data()), size_(srcs.size())
    {}

    std::size_t size() const { return size_; }
    TraceSource &operator[](std::size_t i) const
    {
        return one_ ? *one_ : *many_[i];
    }

  private:
    TraceSource *one_ = nullptr;
    TraceSource *const *many_ = nullptr;
    std::size_t size_;
};

/**
 * Workload seed of core @p core in a @p cores-core run whose
 * descriptor seed is @p seed. A single core replays @p seed as given
 * (0 = the workload's calibrated default); CMP cores get seed + core,
 * or 1000 + core at seed 0, so no two cores replay the same stream.
 */
std::uint64_t coreSeed(std::uint64_t seed, unsigned core, unsigned cores);

/** A complete simulated system of one or more cores. */
class Simulator
{
  public:
    Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
              unsigned cores = 1);

    /**
     * Warm caches and predictors for @p warm_insts instructions per
     * core, then measure for @p measure_insts per core. @p src holds
     * one trace source per core.
     *
     * Fails with StatusCode::Stalled -- the message carrying a full
     * progress diagnostic (ROB/MSHR/channel/EMAB state) of the
     * offending core -- if the configured forward-progress watchdog
     * trips in either window.
     */
    StatusOr<SimResults> tryRun(SourceList src, std::uint64_t warm_insts,
                                std::uint64_t measure_insts);

    /** As tryRun(), but a watchdog trip is fatal. */
    SimResults run(SourceList src, std::uint64_t warm_insts,
                   std::uint64_t measure_insts);

    /**
     * Run only the warm-up window. tryRun() is exactly
     * runWarm() + runMeasure(); the split exists so a caller can
     * checkpoint the warm state (or restore one) between the two.
     */
    Status runWarm(SourceList src, std::uint64_t warm_insts);

    /**
     * Reset measurement statistics and run the measurement window.
     * Warm state must already be in place, either from runWarm() or
     * from restoreCheckpoint().
     */
    StatusOr<SimResults> runMeasure(SourceList src,
                                    std::uint64_t measure_insts);

    /**
     * Collect results for the instructions since beginMeasurement():
     * insts summed over the cores, cycles of the slowest core, CPI
     * weighted by instructions, and the shared L2 side's and memory's
     * counters.
     */
    SimResults collect();

    /**
     * Identity hash of this system's configuration (SimConfig,
     * prefetcher parameters, core count); embedded in every
     * checkpoint and verified on restore.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Serialize the complete mutable state -- every core, every L1
     * port, the shared L2 side, memory, the prefetcher, the
     * interleaving RNG and each source's read cursor -- into the
     * versioned checkpoint container.
     */
    StatusOr<std::string> serializeCheckpoint(SourceList src);

    /** serializeCheckpoint() + atomic write (temp + fsync + rename). */
    Status saveCheckpoint(const std::string &path, SourceList src);

    /**
     * Restore state from a serialized checkpoint buffer. Fails with a
     * coded Status (never UB) on corruption, version skew, or a
     * fingerprint from a different configuration; the simulator is
     * left unspecified-but-destructible on failure, so callers either
     * propagate the error or rebuild from scratch.
     */
    Status restoreCheckpoint(const std::string &buffer, SourceList src);

    /** Read @p path and restore from it. */
    Status restoreCheckpointFile(const std::string &path, SourceList src);

    /**
     * Attach lifecycle event tracing (must outlive the simulator).
     * Observation only: SimResults are bit-identical with or without
     * a log attached. With both a log and a sampler attached, the
     * measurement loop additionally records occupancy counter tracks
     * (MSHRs, prefetch buffer, correlation-table fill, per-source
     * ledger accuracy, channel backlog) at each sampler boundary.
     */
    void
    attachTraceLog(TraceLog &log)
    {
        traceLog_ = &log;
        l2side_->attachTraceLog(log);
    }

    /**
     * Attach an interval sampler (nullptr detaches). With a sampler,
     * the measurement window runs in interval-sized chunks and the
     * sampler snapshots at each exact boundary plus the final
     * (possibly partial) one. Chunked driving is bit-exact vs one
     * run() call: the core re-derives its loop state from members.
     *
     * Single-core only: exact boundaries would cut the cores'
     * interleaving turns, so a sampled CMP run would differ from an
     * unsampled one. With more than one core this is an
     * InvalidArgument error and nothing is attached.
     */
    Status setSampler(IntervalSampler *sampler);

    /** Trace-read policy name carried into watchdog diagnostics. */
    void setTracePolicyName(std::string name)
    {
        tracePolicyName_ = std::move(name);
    }

    /**
     * Configure invariant auditing. Cadence Off detaches any auditor.
     * Registers every stateful component (one "core" entry, or
     * "core<i>" per core with more than one) plus the cross-component
     * checks (table-traffic conservation, table-read latency bound,
     * epoch-id monotonicity) and wires the retire/epoch hooks.
     *
     * Audits read state only, so results are bit-identical with
     * auditing on or off. In a -DEBCP_AUDIT=OFF build any cadence
     * other than Off is an InvalidArgument error: a build without
     * hook sites must not pretend it audited.
     */
    Status configureAudit(const AuditOptions &opts);

    /** The attached auditor, or nullptr when auditing is off. */
    Auditor *auditor() { return auditor_.get(); }

    /** Audit summary as rendered JSON ("" when auditing is off). */
    std::string
    auditSummaryJson() const
    {
        return auditor_ ? auditor_->summaryJson() : std::string();
    }

    /**
     * JSON form of the last watchdog diagnostic ("" if no stall
     * happened). Drivers embed this in stats.json.
     */
    const std::string &lastDiagnosticJson() const
    {
        return lastDiagnosticJson_;
    }

    /**
     * Dump every statistic group as one JSON object value. With more
     * than one core, each core's groups are keyed "core<i>" and
     * "core<i>_l1".
     */
    void dumpStatsJson(JsonWriter &w);

    /** Dump every statistic group (examples / debugging). */
    void dumpStats(std::ostream &os);

    unsigned cores() const { return static_cast<unsigned>(cores_.size()); }
    CoreModel &core(unsigned i = 0) { return *cores_[i]; }
    Hierarchy &hierarchy(unsigned i = 0) { return *ports_[i]; }
    L2Subsystem &l2side() { return *l2side_; }
    MainMemory &memory() { return mem_; }
    Prefetcher &prefetcher() { return *prefetcher_; }

  private:
    using SectionFn = std::function<void(ckpt::Archiver &)>;
    using SectionVisitor =
        std::function<Status(const std::string &, const SectionFn &)>;

    /** Run every core @p insts instructions (interleaved for N > 1). */
    Status runPhase(SourceList src, std::uint64_t insts);

    /** Run the single core's measurement window in sampler-sized
     * chunks, sampling at each boundary. */
    Status runSampled(TraceSource &src, std::uint64_t insts);

    /** A source list that is not one source per core is a caller
     * bug: fatal. */
    void checkSources(const SourceList &src) const;

    /** Status after core @p i ran: stalled, audit abort, or OK. */
    Status progressStatus(unsigned i);

    /** Record one sample of every counter track into traceLog_. */
    void sampleCounterTracks();

    /** The checkpoint layout: hands each section's name and
     * serializer to @p visit, in order. Save and restore share it. */
    Status ckptSections(SourceList src, const SectionVisitor &visit);

    /** Registry name of core @p i ("core" when there is only one). */
    std::string coreName(unsigned i) const;

    SimConfig cfg_;
    PrefetcherParams pf_;
    MainMemory mem_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<L2Subsystem> l2side_;
    std::vector<std::unique_ptr<Hierarchy>> ports_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    /** Each core's stat group under its dump key. */
    std::vector<std::unique_ptr<StatGroup>> coreStats_;

    IntervalSampler *sampler_ = nullptr;
    TraceLog *traceLog_ = nullptr;
    std::unique_ptr<Auditor> auditor_;
    std::string tracePolicyName_;
    std::string lastDiagnosticJson_;

    Tick readBusyMark_ = 0;
    Tick writeBusyMark_ = 0;
    Pcg32 rng_{0xc3b0}; //!< CMP interleaving; never drawn for N = 1
};

/**
 * The CMP front door's former name, kept only because bench/perfbench
 * spells it; everything else says Simulator.
 */
using CmpSystem = Simulator;

/**
 * Convenience: run @p src on configuration @p cfg with prefetcher
 * @p pf and return the measured results.
 */
SimResults runOnce(const SimConfig &cfg, const PrefetcherParams &pf,
                   TraceSource &src, std::uint64_t warm_insts,
                   std::uint64_t measure_insts);

} // namespace ebcp

#endif // EBCP_SIM_SIMULATOR_HH
