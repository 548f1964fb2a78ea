/**
 * @file
 * The shared L2-side of the memory system: the banked L2 (modeled as
 * one shared cache), the prefetch buffer searched in parallel with
 * it, the L2 MSHRs, the epoch tracker, and the prefetcher control
 * attachment point (Figure 2: the control sits in front of the
 * core-to-L2 crossbar and sees every core's L1 miss requests).
 *
 * One L2Subsystem is shared by every core port (Hierarchy), which is
 * exactly the paper's CMP arrangement and its single-core special
 * case.
 */

#ifndef EBCP_SIM_L2_SUBSYSTEM_HH
#define EBCP_SIM_L2_SUBSYSTEM_HH

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "cache/prefetch_buffer.hh"
#include "cpu/mem_iface.hh"
#include "epoch/epoch_tracker.hh"
#include "mem/main_memory.hh"
#include "prefetch/ledger.hh"
#include "prefetch/prefetcher.hh"
#include "sim/sim_config.hh"
#include "util/event_trace.hh"
#include "verify/audit.hh"

namespace ebcp
{

/** The shared L2 + prefetch machinery. */
class L2Subsystem : public PrefetchEngine
{
  public:
    L2Subsystem(const SimConfig &cfg, MainMemory &mem,
                Prefetcher &prefetcher);

    /**
     * Service an L1 miss from core @p core_id at time @p when.
     * @return completion time and off-chip flag.
     */
    MemOutcome access(Addr addr, Addr pc, Tick when, bool is_inst,
                      unsigned core_id);

    /**
     * Service an L1 store miss (weak consistency: drains in the
     * background). @return drain time.
     */
    Tick storeAccess(Addr addr, Tick when);

    // PrefetchEngine
    void issuePrefetch(Addr line_addr, Tick when,
                       std::uint64_t corr_index = 0,
                       bool has_corr = false,
                       unsigned source = 0) override;
    MemAccessResult tableRead(Tick when) override;
    MemAccessResult tableWrite(Tick when) override;
    Tick memoryLatency() const override { return mem_.config().latency; }

    /** Bytes per correlation-table transfer (set from table config). */
    void setTableTransferBytes(unsigned bytes) { tableBytes_ = bytes; }

    /**
     * Attach lifecycle tracing: one sink for the prefetch/demand
     * events recorded here, one EpochSpan row for the demand epoch
     * tracker, plus whatever rows the prefetcher adds. Observation
     * only; timing is unchanged.
     */
    void attachTraceLog(TraceLog &log);

    EpochTracker &epochTracker() { return epochs_; }
    Cache &l2() { return l2_; }
    PrefetchBuffer &prefetchBuffer() { return prefBuf_; }
    MshrFile &mshrs() { return l2Mshrs_; }
    PrefetchLedger &ledger() { return ledger_; }
    const PrefetchLedger &ledger() const { return ledger_; }

    std::uint64_t usefulPrefetches() const
    {
        return usefulPrefetches_.value();
    }
    std::uint64_t issuedPrefetches() const
    {
        return issuedPrefetches_.value();
    }
    std::uint64_t droppedPrefetches() const
    {
        return droppedPrefetches_.value();
    }
    std::uint64_t offChipInst() const { return offChipInst_.value(); }
    std::uint64_t offChipLoad() const { return offChipLoad_.value(); }

    /** Reset measurement statistics after warm-up. */
    void beginMeasurement();

    StatGroup &stats() { return stats_; }

    /**
     * Attach the invariant auditor: epoch triggers observed by the
     * demand tracker fire the epoch-cadence hook. Null is legal.
     */
    void setAuditor(Auditor *aud) { auditor_ = aud; }

    /** Lifetime (never reset) table transfers actually sent to
     * memory, balanced by the prefetcher against its own attempt
     * count to expose dropped-on-the-floor table traffic. */
    std::uint64_t tableReadsServedLifetime() const
    {
        return tableReadsServedLifetime_;
    }
    std::uint64_t tableWritesServedLifetime() const
    {
        return tableWritesServedLifetime_;
    }

    /**
     * Re-derive the L2-side exclusivity invariant: a line is never
     * resident in the L2 and the prefetch buffer at once (fills from
     * the buffer move the line into the L2 and the buffer entry is
     * consumed).
     */
    void audit(AuditContext &ctx) const;

    /** Test-only: plant one line in both structures so audit() trips. */
    void corruptForTest();

    /** Serialize or restore the shared L2-side state: L2 contents,
     * prefetch buffer, MSHRs, demand epoch tracker, ledger and
     * counters. The attached prefetcher checkpoints itself via its
     * own ckpt(); trace sinks and the auditor are run-scoped. */
    void ckpt(ckpt::Archiver &ar);

  private:
    /** Feed the demand epoch tracker and fire the audit epoch hook on
     * a trigger. */
    void
    observeEpoch(Tick issue, Tick complete)
    {
        if (epochs_.observe(issue, complete).newEpoch && auditor_)
            auditor_->onEpoch(issue);
    }

    SimConfig cfg_;
    MainMemory &mem_;
    Prefetcher &prefetcher_;

    Cache l2_;
    PrefetchBuffer prefBuf_;
    MshrFile l2Mshrs_;
    EpochTracker epochs_;
    PrefetchLedger ledger_;
    TraceSink *trace_ = nullptr;
    Auditor *auditor_ = nullptr;
    unsigned tableBytes_ = 64;
    std::uint64_t demandCount_ = 0; //!< demand accesses (fault trigger)
    std::uint64_t tableReadsServedLifetime_ = 0;
    std::uint64_t tableWritesServedLifetime_ = 0;

    StatGroup stats_;
    Scalar offChipInst_{"offchip_inst", "instruction fetches off chip"};
    Scalar offChipLoad_{"offchip_load", "loads off chip"};
    Scalar issuedPrefetches_{"issued_prefetches",
                             "prefetch reads sent to memory"};
    Scalar droppedPrefetches_{"dropped_prefetches",
                              "prefetch reads dropped (saturation)"};
    Scalar filteredPrefetches_{"filtered_prefetches",
                               "prefetch requests already on chip"};
    Scalar usefulPrefetches_{"useful_prefetches",
                             "demand accesses served by the buffer"};
    Scalar latePrefetchStalls_{"late_prefetch_stalls",
                               "buffer hits that still had to wait"};
    Average lateStallTicks_{"late_stall_ticks",
                            "residual wait of late prefetch hits"};
    Scalar injectedStalls_{"injected_stalls",
                           "demand-stall faults injected"};
};

} // namespace ebcp

#endif // EBCP_SIM_L2_SUBSYSTEM_HH
