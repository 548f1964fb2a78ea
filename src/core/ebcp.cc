#include "core/ebcp.hh"

#include <algorithm>

#include "ckpt/containers.hh"
#include "util/logging.hh"
#include "verify/audit.hh"

namespace ebcp
{

Status
EbcpConfig::validate() const
{
    if (tableEntries == 0)
        return invalidArgError("ebcp: table_entries must be nonzero");
    if (prefetchDegree == 0)
        return invalidArgError(
            "ebcp: degree=0 would never prefetch; use the null "
            "prefetcher to disable prefetching");
    if (emabEntries == 0 || emabAddrsPerEntry == 0)
        return invalidArgError("ebcp: EMAB geometry ", emabEntries,
                               "x", emabAddrsPerEntry,
                               " must be nonzero in both dimensions");
    if (numCoreStates == 0 || numCoreStates > 32)
        return invalidArgError("ebcp: num_core_states ", numCoreStates,
                               " outside [1, 32]");
    if (reallocRetryInterval == 0)
        return invalidArgError(
            "ebcp: realloc_retry_interval must be nonzero");
    return Status();
}

EpochBasedPrefetcher::EpochBasedPrefetcher(const EbcpConfig &cfg)
    : Prefetcher("ebcp"),
      cfg_(cfg),
      table_({cfg.tableEntries, cfg.prefetchDegree, 64}),
      alloc_(table_.config().footprintBytes(), cfg.reallocRetryInterval),
      faultRng_(cfg.faults.seed,
                static_cast<std::uint64_t>(FaultStream::Table))
{
    fatal_if(cfg.numCoreStates == 0, "EBCP needs at least one core");
    for (unsigned i = 0; i < cfg.numCoreStates; ++i)
        states_.push_back(std::make_unique<CoreState>(
            cfg.emabEntries, cfg.emabAddrsPerEntry));
    stats().add(epochStarts_);
    stats().add(trainings_);
    stats().add(predictions_);
    stats().add(matches_);
    stats().add(prefetchesRequested_);
    stats().add(inactiveSkips_);
    stats().add(droppedTableReads_);
    stats().add(injectedReadDrops_);
    stats().add(injectedReadDelays_);
    stats().addChild(table_.stats());
    stats().addChild(alloc_.stats());
    stats().addChild(states_[0]->tracker.stats());
}

MemAccessResult
EpochBasedPrefetcher::faultyTableRead(Tick when, Addr key)
{
    // Injected table-read faults model the real failure modes of a
    // best-effort memory-resident table -- a read lost to saturation
    // or arriving too late -- and must degrade coverage only.
    ++tableReadAttempts_;
    if (cfg_.faults.tableDrop && faultRng_.chance(cfg_.faults.rate)) {
        ++injectedReadDrops_;
        return MemAccessResult{when, when, true};
    }
    MemAccessResult rd = engine_->tableRead(when);
    if (!rd.dropped && cfg_.faults.tableDelay &&
        faultRng_.chance(cfg_.faults.rate)) {
        ++injectedReadDelays_;
        rd.complete += cfg_.faults.tableDelayTicks;
    }
    if (!rd.dropped) {
        maxTableReadTicks_ = std::max(maxTableReadTicks_,
                                      rd.complete - when);
        EBCP_TRACE_EVENT(trace_, TraceEventKind::TableRead, when,
                         rd.complete - when, key);
    }
    return rd;
}

void
EpochBasedPrefetcher::attachTraceLog(TraceLog &log)
{
    // Per-core epoch rows use tid = core id; the control's own
    // EMAB/table row sits above them at tid 32.
    trace_ = log.sink("ebcp", 32);
    for (unsigned i = 0; i < states_.size(); ++i)
        states_[i]->tracker.setTraceSink(
            log.sink("ebcp/core" + std::to_string(i), i));
}

void
EpochBasedPrefetcher::traceEmabTurnover(const CoreState &cs, EpochId epoch,
                                        const L2AccessInfo &info)
{
    if (!trace_)
        return;
    if (cs.emab.full()) {
        const EmabEntry &old = cs.emab.entry(0);
        EBCP_TRACE_EVENT(trace_, TraceEventKind::EmabEvict, info.when, 0,
                         old.epoch, old.missAddrs.size());
    }
    EBCP_TRACE_EVENT(trace_, TraceEventKind::EmabInsert, info.when, 0,
                     epoch, info.lineAddr);
}

EpochBasedPrefetcher::CoreState &
EpochBasedPrefetcher::stateFor(unsigned core_id)
{
    return *states_[core_id < states_.size() ? core_id
                                             : states_.size() - 1];
}

void
EpochBasedPrefetcher::observeAccess(const L2AccessInfo &info)
{
    panic_if(!engine_, "EBCP used without an engine");

    // Only inst/load accesses that left the chip -- or would have,
    // absent prefetching -- are epoch-relevant.
    const bool relevant = info.offChip || info.prefBufHit;
    if (!relevant)
        return;

    // Prefetch-buffer hits count as epoch events at their actual
    // times (Section 3.4.3: the first miss *or prefetch buffer hit*
    // in a new epoch triggers the lookup). Using actual completion
    // times keeps the lookup chain running at the compressed pace of
    // covered execution, so the prefetcher stays ahead instead of
    // starving every few epochs.
    CoreState &cs = stateFor(info.coreId);
    EpochEvent ev = cs.tracker.observe(info.when, info.complete);

    if (ev.newEpoch)
        onEpochStart(info, ev.epoch, cs);

    if (info.offChip)
        cs.emab.recordMiss(info.lineAddr);
}

const std::vector<Addr> &
EpochBasedPrefetcher::trainingPayload(const CoreState &cs)
{
    // EMAB holds epochs i..i+3 (oldest first). Regular EBCP records
    // epochs i+2 and i+3 (entries 2, 3); EBCP-minus records i+1 and
    // i+2 (entries 1, 2).
    const std::size_t first = cfg_.minusVariant ? 1 : 2;
    std::vector<Addr> &payload = payloadScratch_;
    payload.clear();
    for (std::size_t e = first; e <= first + 1; ++e) {
        for (Addr a : cs.emab.entry(e).missAddrs) {
            if (std::find(payload.begin(), payload.end(), a) ==
                payload.end())
                payload.push_back(a);
            if (payload.size() >= table_.config().addrsPerEntry)
                return payload;
        }
    }
    return payload;
}

void
EpochBasedPrefetcher::onEpochStart(const L2AccessInfo &info,
                                   EpochId epoch, CoreState &cs)
{
    ++epochStarts_;

    if (!osRequested_) {
        alloc_.requestInitial(info.when);
        osRequested_ = true;
    }
    if (!alloc_.active(info.when)) {
        ++inactiveSkips_;
        // Keep recording epochs so the EMAB is warm on reactivation.
        traceEmabTurnover(cs, epoch, info);
        cs.emab.beginEpoch(epoch, info.lineAddr);
        return;
    }

    // --- 1. Training: record epochs i+2/i+3 under epoch i's key. ---
    if (cs.emab.full()) {
        std::vector<Addr> &keys = keysScratch_;
        keys.clear();
        keys.push_back(cs.emab.entry(0).keyAddr);
        if (cfg_.trainAllOldestMisses) {
            // Section 3.4.2's alternative implementation: every miss
            // of the oldest epoch keys an entry, making the scheme
            // robust to epoch-boundary drift between encounters.
            for (Addr a : cs.emab.entry(0).missAddrs)
                if (a != keys.front())
                    keys.push_back(a);
        }
        const std::vector<Addr> &payload = trainingPayload(cs);
        if (!payload.empty()) {
            for (Addr key : keys) {
                if (key == InvalidAddr)
                    continue;
                // Read-modify-write of the table entry, both low
                // priority (Section 3.4.4's second read + first
                // write). An idealized on-chip table costs nothing.
                if (!cfg_.onChipTable) {
                    MemAccessResult rd = faultyTableRead(info.when, key);
                    if (rd.dropped) {
                        ++droppedTableReads_;
                        continue;
                    }
                    table_.update(key, payload);
                    engine_->tableWrite(rd.complete);
                    EBCP_TRACE_EVENT(trace_, TraceEventKind::TableWrite,
                                     rd.complete, 0, key);
                } else {
                    table_.update(key, payload);
                }
                ++trainings_;
            }
        }
    }

    // --- 2. Open the new epoch in the EMAB. ---
    traceEmabTurnover(cs, epoch, info);
    cs.emab.beginEpoch(epoch, info.lineAddr);

    // --- 3. Prediction lookup keyed by the new epoch's trigger. ---
    ++predictions_;
    MemAccessResult rd{info.when, info.when, false};
    if (!cfg_.onChipTable) {
        rd = faultyTableRead(info.when, info.lineAddr);
        if (rd.dropped) {
            ++droppedTableReads_;
            return;
        }
    }
    std::uint64_t index = 0;
    if (table_.lookup(info.lineAddr, lookupOut_, &index)) {
        ++matches_;
        const std::size_t n =
            std::min<std::size_t>(lookupOut_.size(), cfg_.prefetchDegree);
        for (std::size_t i = 0; i < n; ++i) {
            engine_->issuePrefetch(lookupOut_[i], rd.complete, index,
                                   true);
            ++prefetchesRequested_;
        }
    }
}

void
EpochBasedPrefetcher::observePrefetchHit(Addr line_addr,
                                         std::uint64_t corr_index,
                                         Tick when)
{
    if (table_.refreshLru(corr_index, line_addr)) {
        // LRU write-back of the entry (Section 3.4.4's second write).
        if (!cfg_.onChipTable) {
            engine_->tableWrite(when);
            EBCP_TRACE_EVENT(trace_, TraceEventKind::TableWrite, when, 0,
                             line_addr);
        }
    }
}

void
EpochBasedPrefetcher::reclaimTable(Tick now)
{
    alloc_.reclaim(now);
    table_.clear();
    for (auto &cs : states_)
        cs->emab.clear();
}

void
EpochBasedPrefetcher::audit(AuditContext &ctx) const
{
    table_.audit(ctx);
    alloc_.audit(ctx);
    for (const auto &cs : states_) {
        cs->emab.audit(ctx);
        cs->tracker.audit(ctx);
    }
    // reclaimTable() clears the table when the region goes away, so
    // residual content implies the region is live.
    ctx.check(table_.populatedEntries() == 0 ||
                  alloc_.state() == TableAllocation::State::Active,
              "populated_table_requires_active_region",
              table_.populatedEntries(),
              " populated entries while the table region is not active");
}


void
EpochBasedPrefetcher::ckpt(ckpt::Archiver &ar)
{
    Prefetcher::ckpt(ar);
    std::uint32_t nstates = static_cast<std::uint32_t>(states_.size());
    ar.u32(nstates);
    if (!ar.saving() && ar.ok() && nstates != states_.size()) {
        ar.fail(invalidArgError("checkpoint holds ", nstates,
                                " EBCP core states but ",
                                states_.size(), " are configured"));
        return;
    }
    // CoreState objects are pinned behind unique_ptrs (stat groups
    // hold interior pointers), so restore happens strictly in place.
    for (auto &cs : states_) {
        cs->emab.ckpt(ar);
        cs->tracker.ckpt(ar);
        if (!ar.ok())
            return;
    }
    table_.ckpt(ar);
    alloc_.ckpt(ar);
    ar.boolean(osRequested_);
    ckpt::ckptPcg32(ar, faultRng_);
    ar.u64(tableReadAttempts_);
    ar.u64(maxTableReadTicks_);
}

} // namespace ebcp
