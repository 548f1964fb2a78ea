#include "cpu/core_model.hh"

#include <algorithm>
#include <chrono>

#include "ckpt/containers.hh"
#include "cpu/decode_ahead.hh"
#include "util/bitfield.hh"
#include "verify/audit.hh"

namespace ebcp
{

CoreModel::CoreModel(const CoreConfig &cfg, MemSystem &mem)
    : cfg_(cfg), mem_(mem), lineBytes_(mem.lineBytes()),
      bp_(cfg.branchPred),
      robRetire_(cfg.robEntries, 0),
      iqIssue_(cfg.issueQueueEntries, 0),
      sbDrain_(cfg.storeBufferEntries, 0),
      lbComplete_(cfg.loadBufferEntries, 0),
      s_(cfg),
      stats_("core")
{
    stats_.add(loads_);
    stats_.add(stores_);
    stats_.add(branches_);
    stats_.add(offChipLoads_);
    stats_.add(offChipFetches_);
    stats_.add(serializers_);
    stats_.addChild(bp_.stats());
}

// Forced inline: every caller must get its own copy, so that in
// retireLoop() the span-local Sched never has its address taken and
// stays in registers.
__attribute__((always_inline)) inline InstTiming
CoreModel::step(Sched &s, const TraceRecord &rec, Sched *sync)
{
    InstTiming t;

    // ------------------------------------------------------------------
    // Fetch: a new cache line is requested from the memory system; an
    // off-chip instruction miss stalls fetch entirely (window
    // termination condition).
    // ------------------------------------------------------------------
    const Addr line = alignDown(rec.pc, lineBytes_);
    if (line != s.fetchLine) {
        if (sync)
            *sync = s;
        MemOutcome o = mem_.fetchInst(rec.pc, std::max(s.fetchResume,
                                                       s.fetchLineReady));
        s.fetchLine = line;
        s.fetchLineReady = o.complete;
        if (o.offChip)
            ++offChipFetches_;
    }
    t.fetch = s.fetchLim.next(std::max(s.fetchResume, s.fetchLineReady));

    // ------------------------------------------------------------------
    // Dispatch: bounded by ROB, issue queue, load/store buffers and a
    // pending serialization barrier.
    // ------------------------------------------------------------------
    Tick d = std::max(t.fetch, s.serializeBarrier);
    d = std::max(d, robRetire_[s.robIdx]);
    d = std::max(d, iqIssue_[s.iqIdx]);
    if (rec.op == OpClass::Store)
        d = std::max(d, sbDrain_[s.sbIdx]);
    if (rec.op == OpClass::Load)
        d = std::max(d, lbComplete_[s.lbIdx]);
    if (rec.op == OpClass::Serialize) {
        // Serializers wait for the whole window to drain.
        d = std::max(d, s.lastRetire);
        ++serializers_;
    }
    t.dispatch = s.dispatchLim.next(d);

    // ------------------------------------------------------------------
    // Issue + execute.
    // ------------------------------------------------------------------
    // The < NumArchRegs bound subsumes the != NoReg check and also
    // shields the array from out-of-range register ids in records
    // from untrusted sources (corrupt traces, fault injection).
    Tick ready = t.dispatch;
    if (rec.srcReg0 < NumArchRegs)
        ready = std::max(ready, regReady_[rec.srcReg0]);
    if (rec.srcReg1 < NumArchRegs)
        ready = std::max(ready, regReady_[rec.srcReg1]);

    switch (rec.op) {
      case OpClass::Load: {
        t.issue = s.lsuLim.next(ready);
        if (sync)
            *sync = s;
        MemOutcome o = mem_.load(rec.addr, rec.pc, t.issue);
        t.complete = o.complete;
        t.offChip = o.offChip;
        ++loads_;
        if (o.offChip)
            ++offChipLoads_;
        lbComplete_[s.lbIdx] = t.complete;
        s.lbIdx = bump(s.lbIdx, lbComplete_.size());
        ++s.loadSeq;
        break;
      }
      case OpClass::Store:
        // Address generation only; the store drains post-retire under
        // weak consistency.
        t.issue = s.lsuLim.next(ready);
        t.complete = t.issue + 1;
        ++stores_;
        break;
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return: {
        t.issue = s.brLim.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        ++branches_;
        const bool correct =
            bp_.predict(rec.pc, rec.op, rec.taken, rec.target);
        if (!correct) {
            // Fetch restarts after the branch resolves; a branch fed
            // by an off-chip load thus terminates the window.
            s.fetchResume = std::max(s.fetchResume,
                                     t.complete + cfg_.mispredictPenalty);
        }
        break;
      }
      case OpClass::FpAdd:
        t.issue = s.fpAddLim.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        break;
      case OpClass::FpMul:
        t.issue = s.fpMulLim.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        break;
      case OpClass::IntAlu:
        t.issue = s.aluLim.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        break;
      case OpClass::Serialize:
      case OpClass::Nop:
        t.issue = ready;
        t.complete = t.issue + 1;
        break;
    }

    if (rec.dstReg < NumArchRegs)
        regReady_[rec.dstReg] = t.complete;

    // ------------------------------------------------------------------
    // Retire: in order, bounded by retire width.
    // ------------------------------------------------------------------
    t.retire = s.retireLim.next(std::max(t.complete, s.lastRetire));
    s.lastRetire = t.retire;

    robRetire_[s.robIdx] = t.retire;
    iqIssue_[s.iqIdx] = t.issue;
    s.robIdx = bump(s.robIdx, robRetire_.size());
    s.iqIdx = bump(s.iqIdx, iqIssue_.size());
    ++s.seq;

    if (rec.op == OpClass::Store) {
        if (sync)
            *sync = s;
        sbDrain_[s.sbIdx] = mem_.store(rec.addr, t.retire);
        s.sbIdx = bump(s.sbIdx, sbDrain_.size());
        ++s.storeSeq;
    }
    if (rec.op == OpClass::Serialize)
        s.serializeBarrier = t.retire;

    ++s.insts;
    return t;
}

InstTiming
CoreModel::process(const TraceRecord &rec)
{
    return step(s_, rec, nullptr);
}

void
CoreModel::run(TraceSource &src, std::uint64_t count)
{
    if (auditor_)
        retireLoop<true>(src, count);
    else
        retireLoop<false>(src, count);
}

template <bool Audited>
void
CoreModel::retireLoop(TraceSource &src, std::uint64_t count)
{
    // Records arrive through the decode-ahead pipe without a per-record
    // copy. Span sources -- every synthetic workload -- lend their own
    // record ring in place; other sources (trace files) decode into
    // chunks, on a producer thread for long runs on multi-core hosts
    // and inline otherwise. The pipe never over-pulls: over its
    // lifetime it requests exactly `count` records, so the source is
    // left positioned as if records had been pulled one at a time
    // (except after a watchdog trip, where the run is abandoned).
    DecodeAhead pipe(src, count);
    Tick prev_retire = s_.lastRetire;
    const Tick watchdog = watchdogLimit_;
    std::uint64_t remaining = count;
    // Audited, the span-local state is written back before each
    // memory-system call (inside step()) and each retire hook, so
    // every audit sees current state. Unaudited, sync is a literal
    // null and the write-backs fold away: state goes back only at
    // span end and on a trip.
    Sched *const sync = Audited ? &s_ : nullptr;
    // One clock read per run() call (and one more on a trip), never
    // per instruction: the wall-clock context in watchdog dumps must
    // not slow the retirement loop.
    const auto wall_start = std::chrono::steady_clock::now();
    while (remaining > 0) {
        const TraceRecord *batch = nullptr;
        const std::size_t got = pipe.acquire(
            &batch, static_cast<std::size_t>(std::min<std::uint64_t>(
                        remaining, ~std::size_t{0})));
        Sched s = s_;
        for (std::size_t i = 0; i < got; ++i) {
            // Screen the raw record before it shapes any timing: a
            // malformed one is evidence of corruption upstream of the
            // core, surfaced by audit() rather than a crash here.
            if constexpr (Audited) {
                if (recordAuditError(batch[i]))
                    ++malformedRecords_;
            }
            const InstTiming t = step(s, batch[i], sync);
            if (watchdog && t.retire > prev_retire + watchdog) {
                s_ = s;
                watchdogTripped_ = true;
                watchdogGap_ = t.retire - prev_retire;
                watchdogWallSeconds_ =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
                return;
            }
            prev_retire = t.retire;
            if constexpr (Audited) {
                s_ = s;
                auditor_->onRetire(t.retire);
                // Under the abort policy a failed pass ends the run
                // here; the simulator turns the auditor's state into a
                // Status.
                if (auditor_->abortRequested())
                    return;
            }
        }
        s_ = s;
        pipe.consume(got);
        remaining -= got;
        if (got == 0)
            return; // the source ran dry
    }
}

unsigned
CoreModel::robOccupancyAfter(Tick t) const
{
    const std::uint64_t valid =
        std::min<std::uint64_t>(s_.seq, cfg_.robEntries);
    unsigned busy = 0;
    for (std::uint64_t i = 0; i < valid; ++i)
        if (robRetire_[i] > t)
            ++busy;
    return busy;
}

void
CoreModel::audit(AuditContext &ctx) const
{
    // The ROB ring holds the retire ticks of the last |ROB| dispatched
    // instructions; retirement is in order, so walking it oldest to
    // newest must never go backwards, and the newest entry is the last
    // retirement -- which nothing still tracked may outlive.
    const Sched &s = s_;
    const std::size_t size = robRetire_.size();
    const std::uint64_t valid = std::min<std::uint64_t>(s.seq, size);
    if (valid > 0) {
        const std::size_t oldest = s.seq >= size ? s.robIdx : 0;
        bool ordered = true;
        Tick prev = 0;
        for (std::uint64_t k = 0; k < valid; ++k) {
            const Tick r = robRetire_[(oldest + k) % size];
            if (r < prev) {
                ordered = false;
                break;
            }
            prev = r;
        }
        ctx.check(ordered, "rob_age_ordered",
                  "ROB retire times decrease oldest to newest");
        const Tick newest = robRetire_[(oldest + valid - 1) % size];
        ctx.check(newest == s.lastRetire, "rob_newest_is_last_retire",
                  "newest ROB entry retires at ", newest,
                  " but the last retirement was ", s.lastRetire);
        ctx.check(robOccupancyAfter(s.lastRetire) == 0,
                  "no_inst_outlives_last_retire",
                  robOccupancyAfter(s.lastRetire),
                  " ROB entries retire after the last retirement");
    }

    // Ring cursors are sequence counters folded by the ring size; a
    // divergence means an entry was skipped or double-counted.
    ctx.check(s.robIdx == s.seq % robRetire_.size(), "rob_cursor_consistent",
              "ROB cursor ", s.robIdx, " vs seq ", s.seq);
    ctx.check(s.iqIdx == s.seq % iqIssue_.size(), "iq_cursor_consistent",
              "IQ cursor ", s.iqIdx, " vs seq ", s.seq);
    ctx.check(s.sbIdx == s.storeSeq % sbDrain_.size(), "sb_cursor_consistent",
              "store-buffer cursor ", s.sbIdx, " vs store seq ", s.storeSeq);
    ctx.check(s.lbIdx == s.loadSeq % lbComplete_.size(),
              "lb_cursor_consistent", "load-buffer cursor ", s.lbIdx,
              " vs load seq ", s.loadSeq);
    ctx.check(s.seq == s.insts, "dispatch_matches_inst_count",
              s.seq, " dispatches vs ", s.insts, " instructions");
    ctx.check(s.storeSeq + s.loadSeq <= s.seq, "mem_ops_within_dispatches",
              s.storeSeq + s.loadSeq, " memory ops vs ", s.seq,
              " dispatches");

    ctx.check(malformedRecords_ == 0, "trace_records_well_formed",
              malformedRecords_, " malformed trace records screened");
}

void
CoreModel::corruptForTest()
{
    if (s_.seq == 0) {
        // Fabricate a lone instruction whose retirement is in the
        // future relative to the last retirement.
        robRetire_[0] = s_.lastRetire + 1000;
        iqIssue_[0] = s_.lastRetire + 1000;
        s_.seq = 1;
        s_.insts = 1;
        s_.robIdx = bump(s_.robIdx, robRetire_.size());
        s_.iqIdx = bump(s_.iqIdx, iqIssue_.size());
    } else {
        // Push the newest live entry far past the last retirement:
        // breaks the newest==lastRetire tie and leaves an entry that
        // outlives every near-term retirement. The newest slot is the
        // last to be overwritten by subsequent dispatches, so the
        // damage also survives long enough for a cadenced mid-run
        // audit to observe it (the oldest slot, being the insertion
        // cursor, would be erased by the very next instruction).
        const std::size_t size = robRetire_.size();
        const std::size_t newest = (s_.robIdx + size - 1) % size;
        robRetire_[newest] = s_.lastRetire + 10'000'000;
    }
}

void
CoreModel::beginMeasurement()
{
    instMark_ = s_.insts;
    tickMark_ = s_.lastRetire;
    stats_.resetAll();
}


void
CoreModel::ckpt(ckpt::Archiver &ar)
{
    for (Tick &t : regReady_)
        ar.u64(t);
    ar.fixedVecU64(robRetire_, "ROB ring");
    ar.fixedVecU64(iqIssue_, "issue queue ring");
    ar.fixedVecU64(sbDrain_, "store buffer ring");
    ar.fixedVecU64(lbComplete_, "load buffer ring");
    ar.cursor(s_.robIdx, robRetire_.size(), "ROB");
    ar.cursor(s_.iqIdx, iqIssue_.size(), "issue queue");
    ar.cursor(s_.sbIdx, sbDrain_.size(), "store buffer");
    ar.cursor(s_.lbIdx, lbComplete_.size(), "load buffer");
    ar.u64(s_.seq);
    ar.u64(s_.storeSeq);
    ar.u64(s_.loadSeq);
    for (WidthLimiter *lim :
         {&s_.fetchLim, &s_.dispatchLim, &s_.retireLim, &s_.aluLim,
          &s_.lsuLim, &s_.brLim, &s_.fpAddLim, &s_.fpMulLim}) {
        Tick cur = lim->cur();
        unsigned used = lim->used();
        ar.u64(cur);
        ar.uns(used);
        if (!ar.saving() && ar.ok())
            lim->setState(cur, used);
    }
    ar.u64(s_.fetchLine);
    ar.u64(s_.fetchLineReady);
    ar.u64(s_.fetchResume);
    ar.u64(s_.lastRetire);
    ar.u64(s_.serializeBarrier);
    ar.u64(s_.insts);
    ar.u64(instMark_);
    ar.u64(tickMark_);
    ar.u64(malformedRecords_);
    bp_.ckpt(ar);
    stats_.ckpt(ar);
}

} // namespace ebcp
