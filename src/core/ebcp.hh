/**
 * @file
 * The Epoch-Based Correlation Prefetcher (Section 3).
 *
 * Operation per epoch boundary (the prefetcher's own epoch sense,
 * which treats prefetch-buffer hits as the off-chip accesses they
 * *would have been* -- Section 3.4.3 triggers lookups on "the first
 * L2 instruction or load miss (or prefetch buffer hit) in a new
 * epoch"):
 *
 *  1. Training: with the EMAB holding epochs i..i+3 (i+3 just ended),
 *     the first event address of epoch i keys the table and the miss
 *     addresses of epochs i+2 and i+3 become the entry's prefetch
 *     addresses (older epoch first). Epoch i+1 is deliberately
 *     skipped: prefetches for it could never be timely given the
 *     main-memory table read. The EBCP-minus ablation records epochs
 *     i+1 and i+2 instead.
 *  2. Prediction: the new epoch's first event address keys a table
 *     read (a low-priority memory access whose latency hides under
 *     the current epoch); on a tag match, prefetches for all stored
 *     addresses issue when the read returns.
 *
 * Memory traffic per epoch: one prediction read, one update
 * read-modify-write, plus one LRU-refresh write per prefetch-buffer
 * hit (Section 3.4.4), all at low priority.
 */

#ifndef EBCP_CORE_EBCP_HH
#define EBCP_CORE_EBCP_HH

#include <memory>
#include <vector>

#include "core/emab.hh"
#include "core/table_allocation.hh"
#include "epoch/epoch_tracker.hh"
#include "prefetch/correlation_table.hh"
#include "prefetch/prefetcher.hh"
#include "util/status.hh"
#include "util/fault.hh"
#include "util/random.hh"

namespace ebcp
{

/** EBCP configuration knobs (the Section 5 design space). */
struct EbcpConfig
{
    std::uint64_t tableEntries = 1ULL << 20; //!< correlation table size
    unsigned prefetchDegree = 8; //!< max prefetches per table match
    unsigned emabEntries = 4;
    unsigned emabAddrsPerEntry = 32;

    /**
     * EBCP-minus (Figure 9 ablation): also record the epoch
     * immediately after the trigger, wasting entry slots on untimely
     * prefetches.
     */
    bool minusVariant = false;

    /**
     * Section 3.4.2's alternative implementation: use *all* misses of
     * the oldest EMAB epoch (not just the first) to insert/update
     * table entries. Costs extra table traffic and capacity but makes
     * the keying robust to epoch-boundary drift.
     */
    bool trainAllOldestMisses = false;

    /** Ticks between re-allocation attempts while inactive. */
    Tick reallocRetryInterval = 1'000'000;

    /**
     * Number of per-core epoch-state instances (EMAB + epoch
     * tracker). The paper's future-work CMP design: the prefetcher
     * control sits in front of the core-to-L2 crossbar, so it can
     * keep one EMAB per core and track each thread's epoch stream
     * separately while sharing the main-memory correlation table.
     * With 1 (the default), all cores share one epoch stream -- which
     * degrades under interleaving exactly like a memory-side scheme.
     */
    unsigned numCoreStates = 1;

    /**
     * Idealized on-chip correlation table: lookups are instantaneous
     * and cost no memory traffic. Not buildable at commercial
     * working-set sizes (the paper's whole point); provided for the
     * Section 3.1/3.2 ablation of *why* the epoch-skip and the
     * memory-resident table matter.
     */
    bool onChipTable = false;

    /** Coded rejection of nonsense values (factory gate). */
    Status validate() const;
};

/** The epoch-based correlation prefetcher control. */
class EpochBasedPrefetcher : public Prefetcher
{
  public:
    /**
     * @param faults the run's fault plan; its table-drop and
     *        table-delay kinds apply to correlation-table reads and
     *        show that a lost or late read costs coverage, never
     *        correctness
     */
    explicit EpochBasedPrefetcher(const EbcpConfig &cfg,
                                  const FaultPlan &faults = {});

    void observeAccess(const L2AccessInfo &info) override;
    void observePrefetchHit(Addr line_addr, std::uint64_t corr_index,
                            Tick when) override;

    /**
     * One sink for the control's EMAB/table events plus one
     * EpochSpan row per core-state tracker.
     */
    void attachTraceLog(TraceLog &log) override;

    /** The simulated OS reclaims the table region (failure injection). */
    void reclaimTable(Tick now);

    /**
     * Re-derive the EBCP's structural invariants: the correlation
     * table, its allocation state (a populated table requires an
     * active region), and each core state's EMAB + epoch tracker.
     */
    void audit(AuditContext &ctx) const override;

    /** Serialize or restore the full EBCP state: table, allocation,
     * per-core EMABs and epoch trackers, fault RNG and counters. */
    void ckpt(ckpt::Archiver &ar) override;

    /** Lifetime table reads this control intended to issue. The
     * engine's served count balances against it: a shortfall means a
     * read vanished between the control and the memory system (the
     * table-drop fault does exactly that). */
    std::uint64_t tableReadAttemptsLifetime() const
    {
        return tableReadAttempts_;
    }

    /** Largest observed latency of a served table read; bounded by
     * MainMemory::maxLowPriorityReadLatency() unless something (the
     * table-delay fault) stretched a read beyond the channel's drop
     * horizon. */
    Tick maxTableReadTicks() const { return maxTableReadTicks_; }

    CorrelationTable &table() { return table_; }
    TableAllocation &allocation() { return alloc_; }
    const Emab &emab(unsigned core = 0) const
    {
        return states_[core]->emab;
    }
    /** Mutable EMAB access for audit trip-tests. */
    Emab &emabForTest(unsigned core = 0) { return states_[core]->emab; }
    const EbcpConfig &config() const { return cfg_; }

  private:
    /** Per-core epoch state (one instance in single-core configs). */
    struct CoreState
    {
        Emab emab;
        EpochTracker tracker;

        CoreState(unsigned emab_entries, unsigned addrs_per_entry)
            : emab(emab_entries, addrs_per_entry)
        {}
    };

    CoreState &stateFor(unsigned core_id);

    void onEpochStart(const L2AccessInfo &info, EpochId epoch,
                      CoreState &cs);

    /** Trace the EMAB eviction+insertion a beginEpoch will cause. */
    void traceEmabTurnover(const CoreState &cs, EpochId epoch,
                           const L2AccessInfo &info);

    /** engine_->tableRead() with the plan's table faults applied. */
    MemAccessResult faultyTableRead(Tick when, Addr key);

    /** Gather the training payload into payloadScratch_ (older epoch
     * first, deduplicated, truncated to the table's slot count). */
    const std::vector<Addr> &trainingPayload(const CoreState &cs);

    EbcpConfig cfg_;
    FaultPlan faults_;
    // unique_ptr storage: CoreState holds stat groups with interior
    // pointers, so the objects must never move.
    std::vector<std::unique_ptr<CoreState>> states_;
    CorrelationTable table_;
    TableAllocation alloc_;
    bool osRequested_ = false;
    Pcg32 faultRng_;

    std::uint64_t tableReadAttempts_ = 0;
    Tick maxTableReadTicks_ = 0;

    // Scratch vectors: reused across epochs so the per-epoch path
    // allocates nothing once warmed.
    std::vector<Addr> lookupOut_;
    std::vector<Addr> payloadScratch_;
    std::vector<Addr> keysScratch_;

    Scalar epochStarts_{"epoch_starts", "epoch triggers handled"};
    Scalar trainings_{"trainings", "table training updates performed"};
    Scalar predictions_{"predictions", "prediction lookups issued"};
    Scalar matches_{"matches", "prediction lookups that matched"};
    Scalar prefetchesRequested_{"prefetches_requested",
                                "line prefetches handed to the engine"};
    Scalar inactiveSkips_{"inactive_skips",
                          "epoch boundaries skipped while inactive"};
    Scalar droppedTableReads_{"dropped_table_reads",
                              "table reads lost to bus saturation"};
    Scalar injectedReadDrops_{"injected_read_drops",
                              "table reads lost to fault injection"};
    Scalar injectedReadDelays_{"injected_read_delays",
                               "table reads delayed by fault injection"};
};

} // namespace ebcp

#endif // EBCP_CORE_EBCP_HH
