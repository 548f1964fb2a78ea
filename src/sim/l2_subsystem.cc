#include "sim/l2_subsystem.hh"

#include <algorithm>

#include "ckpt/archiver.hh"
#include "util/profiler.hh"

namespace ebcp
{

L2Subsystem::L2Subsystem(const SimConfig &cfg, MainMemory &mem,
                         Prefetcher &prefetcher)
    : cfg_(cfg), mem_(mem), prefetcher_(prefetcher),
      l2_(cfg.l2),
      prefBuf_(cfg.prefetchBufferEntries, cfg.prefetchBufferWays,
               cfg.l2.lineBytes),
      l2Mshrs_("l2_mshrs", cfg.l2Mshrs),
      stats_("l2side")
{
    prefetcher_.setEngine(this);
    prefetcher_.attachLedger(ledger_);
    stats_.add(offChipInst_);
    stats_.add(offChipLoad_);
    stats_.add(droppedPrefetches_);
    stats_.add(filteredPrefetches_);
    stats_.add(injectedStalls_);
    stats_.addChild(l2_.stats());
    stats_.addChild(l2Mshrs_.stats());
    stats_.addChild(epochs_.stats());
    stats_.addChild(ledger_.stats());
    stats_.addChild(prefetcher_.stats());
}

void
L2Subsystem::attachTraceLog(TraceLog &log)
{
    // tids: 0..31 are per-core rows (the prefetcher's epoch
    // trackers); the shared L2-side machinery sits above them.
    trace_ = log.sink("l2side", 33);
    epochs_.setTraceSink(log.sink("demand_epochs", 34));
    prefetcher_.attachTraceLog(log);
}

MemOutcome
L2Subsystem::access(Addr addr, Addr pc, Tick when, bool is_inst,
                    unsigned core_id)
{
    const Addr line = l2_.lineAddr(addr);
    const Tick l2_lat = l2_.hitLatency();
    l2Mshrs_.advance(when);

    MemOutcome out;
    L2AccessInfo info;
    info.pc = pc;
    info.lineAddr = line;
    info.isInst = is_inst;
    info.when = when;
    info.coreId = core_id;

    // Injected liveness bug (watchdog demo/testing): once the demand
    // count crosses the threshold, one access "loses" its completion
    // far in the future, exactly like a wedged channel would look.
    if (cfg_.faults.demandStall && ++demandCount_ == cfg_.faults.stallAfter) {
        ++injectedStalls_;
        out.complete = when + FaultPlan::StallTicks;
        out.offChip = true;
        return out;
    }

    if (cfg_.perfectL2) {
        // CPI_perf mode: the furthest on-chip cache always hits.
        out.complete = when + l2_lat;
        return out;
    }

    if (l2_.access(line, false)) {
        // The tags hit, but the line may still be in flight (lines
        // are installed at miss time and data arrives later): such an
        // access merges into the outstanding miss.
        const Tick inflight = l2Mshrs_.inFlightCompletion(line);
        if (inflight != MaxTick && inflight > when + l2_lat) {
            out.complete = inflight;
            out.offChip = true;
            observeEpoch(when, inflight);
            info.offChip = true;
            info.complete = inflight;
        } else {
            out.complete = when + l2_lat;
            info.l2Hit = true;
            info.complete = out.complete;
        }
        {
            EBCP_PROFILE_SCOPE(PrefetchTrain);
            prefetcher_.observeAccess(info);
        }
        return out;
    }

    // The prefetch buffer is searched in parallel with the L2.
    PrefBufHit pb = prefBuf_.lookup(line);
    if (pb.hit) {
        // A hit on an in-flight prefetch waits for that fill, but
        // never longer than a demand fetch issued right now would
        // take -- the controller promotes the in-flight request to
        // demand priority rather than letting a late prefetch be
        // worse than no prefetch.
        const Tick demand_bound = when + l2_lat + mem_.config().latency;
        const Tick data_ready =
            std::max(when + l2_lat,
                     std::min(pb.readyTime, demand_bound));
        out.complete = data_ready;
        // A hit on a still-in-flight prefetch stalls like a
        // (shortened) off-chip access and is epoch-relevant.
        if (data_ready > when + l2_lat) {
            observeEpoch(when, data_ready);
            out.offChip = true;
            ledger_.onHitLate(data_ready - when - l2_lat, pb.source);
            EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchHitLate,
                             when, 0, line, data_ready - when - l2_lat);
        } else {
            // Timely: the fill beat the demand access by this slack.
            ledger_.onHitTimely(when + l2_lat - pb.readyTime, pb.source);
            EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchHitTimely,
                             when, 0, line);
        }
        info.prefBufHit = true;
        info.complete = data_ready;
        l2_.fill(line);
        {
            EBCP_PROFILE_SCOPE(PrefetchTrain);
            if (pb.hasCorrIndex)
                prefetcher_.observePrefetchHit(line, pb.corrIndex,
                                               data_ready);
            prefetcher_.observeAccess(info);
        }
        return out;
    }

    // A real L2 miss.
    out.offChip = true;
    const Tick alloc = l2Mshrs_.whenCanAllocate(when);
    MemAccessResult r = mem_.access(alloc, is_inst
                                               ? MemReqType::DemandInst
                                               : MemReqType::DemandLoad);
    out.complete = r.complete;
    l2Mshrs_.allocate(line, r.complete);
    observeEpoch(alloc, r.complete);
    EBCP_TRACE_EVENT(trace_, TraceEventKind::DemandMiss, alloc,
                     r.complete - alloc, line);
    if (is_inst)
        ++offChipInst_;
    else
        ++offChipLoad_;

    Eviction ev = l2_.fill(line);
    if (ev.valid && ev.dirty)
        mem_.access(out.complete, MemReqType::StoreWrite);

    info.offChip = true;
    info.complete = out.complete;
    {
        EBCP_PROFILE_SCOPE(PrefetchTrain);
        prefetcher_.observeAccess(info);
    }
    return out;
}

Tick
L2Subsystem::storeAccess(Addr addr, Tick when)
{
    const Addr line = l2_.lineAddr(addr);
    if (cfg_.perfectL2 || l2_.access(line, true))
        return when + l2_.hitLatency();

    // Stores can also be satisfied by a prefetched line.
    PrefBufHit pb = prefBuf_.lookup(line);
    if (pb.hit) {
        const Tick on_chip = when + l2_.hitLatency();
        if (pb.readyTime > on_chip) {
            ledger_.onHitLate(pb.readyTime - on_chip, pb.source);
            EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchHitLate,
                             when, 0, line, pb.readyTime - on_chip);
        } else {
            ledger_.onHitTimely(on_chip - pb.readyTime, pb.source);
            EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchHitTimely,
                             when, 0, line);
        }
        l2_.fill(line, true);
        return std::max(when + l2_.hitLatency(), pb.readyTime);
    }

    // Off-chip store: drains over the write bus under weak
    // consistency; never stalls the window, never recorded in the
    // EMAB (Section 3.4.2), never an epoch trigger.
    MemAccessResult r = mem_.access(when, MemReqType::StoreWrite);
    l2_.fill(line, true);
    return r.complete;
}

void
L2Subsystem::issuePrefetch(Addr line_addr, Tick when,
                           std::uint64_t corr_index, bool has_corr,
                           unsigned source)
{
    EBCP_PROFILE_SCOPE(PrefetchIssue);
    const Addr line = l2_.lineAddr(line_addr);
    if (l2_.contains(line) || prefBuf_.contains(line)) {
        ++filteredPrefetches_;
        return;
    }
    MemAccessResult r = mem_.access(when, MemReqType::Prefetch);
    if (r.dropped) {
        ++droppedPrefetches_;
        return;
    }
    ledger_.onIssue(source);
    EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchIssue, when, 0, line,
                     corr_index);
    EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchFill, r.complete, 0,
                     line);
    const PrefBufEvict evicted =
        prefBuf_.insert(line, r.complete, corr_index, has_corr,
                        static_cast<std::uint8_t>(source));
    if (evicted.line != InvalidAddr) {
        ledger_.onEvictUnused(evicted.source);
        EBCP_TRACE_EVENT(trace_, TraceEventKind::PrefetchEvict, when, 0,
                         evicted.line);
    }
}

MemAccessResult
L2Subsystem::tableRead(Tick when)
{
    ++tableReadsServedLifetime_;
    return mem_.access(when, MemReqType::TableRead, tableBytes_);
}

MemAccessResult
L2Subsystem::tableWrite(Tick when)
{
    ++tableWritesServedLifetime_;
    return mem_.access(when, MemReqType::TableWrite, tableBytes_);
}

void
L2Subsystem::audit(AuditContext &ctx) const
{
    // A buffered line must not also be L2-resident: issuePrefetch()
    // filters lines already on chip, and a buffer hit fills the L2
    // while consuming the buffer entry. Dual residence means a stale
    // or duplicated fill path.
    prefBuf_.forEachValid([&](Addr line, Tick) {
        ctx.check(!l2_.contains(line), "line_not_in_l2_and_buffer",
                  "line ", line, " resident in both the L2 and the "
                  "prefetch buffer");
    });
    // The ledger's exactly-once lifecycle identity closes over the
    // buffer's current occupancy, so the cross-component form lives
    // here rather than in either component.
    ledger_.audit(ctx, prefBuf_.validCount());
}

void
L2Subsystem::corruptForTest()
{
    const Addr line = l2_.lineAddr(0x1337'0000);
    prefBuf_.insert(line, 0, 0, false);
    l2_.fill(line);
}

void
L2Subsystem::beginMeasurement()
{
    stats_.resetAll();
    // Warm-up prefetches still buffer-resident will hit or evict
    // during measurement; record them so the ledger's lifecycle
    // states stay exactly-once across the reset.
    ledger_.beginMeasurement(prefBuf_.validCount());
    prefetcher_.beginMeasurement();
    epochs_.beginMeasurement();
}

void
L2Subsystem::ckpt(ckpt::Archiver &ar)
{
    l2_.ckpt(ar);
    prefBuf_.ckpt(ar);
    l2Mshrs_.ckpt(ar);
    epochs_.ckpt(ar);
    ledger_.ckpt(ar);
    ar.u64(demandCount_);
    ar.u64(tableReadsServedLifetime_);
    ar.u64(tableWritesServedLifetime_);
    stats_.ckpt(ar);
}

} // namespace ebcp
