#include "trace/synthetic_workload.hh"

#include <algorithm>

#include "ckpt/containers.hh"
#include "util/logging.hh"

namespace ebcp
{

SyntheticWorkload::SyntheticWorkload(const WorkloadConfig &cfg)
    : cfg_(cfg), map_(cfg), rng_(cfg.seed),
      keys_(cfg.numChains, cfg.zipfSkew)
{
    fatal_if(cfg.txnTypes == 0, "workload needs transaction types");
    buildTypes();
    // Pre-size the record ring to an upper bound on one transaction's
    // record count (the high-water mark: generateTransaction() fills a
    // whole transaction whenever the buffer runs dry). Sized from the
    // config's worst-case op shape so the measured phase performs zero
    // ring growths -- perfbench reports grows as trace.ring_grows,
    // and the steady-state allocation test asserts grows == 0.
    const unsigned len_max =
        std::max({cfg.chaseLenMax, cfg.btreeLevels + 1,
                  cfg.scanLinesMax, 6u});
    const unsigned fill_max = std::max(cfg.fillerInstsMax, 10u);
    const std::size_t per_op =
        static_cast<std::size_t>(len_max) * (fill_max + 2) + 32;
    const std::size_t jitter_op =
        2 * (static_cast<std::size_t>(fill_max) + 2) + 32;
    buf_.reserve(cfg.opsPerTxnMax * (per_op + jitter_op) + 16);
    reset();
}

void
SyntheticWorkload::buildTypes()
{
    // Type construction uses its own RNG stream so that runtime
    // draws do not perturb the static shape.
    Pcg32 shape(cfg_.seed, 0x7ea7);
    types_.clear();
    types_.resize(cfg_.txnTypes);

    const double wsum = cfg_.mix.chase + cfg_.mix.btree + cfg_.mix.scan +
                        cfg_.mix.hot;
    fatal_if(wsum <= 0.0, "operation mix has zero weight");

    for (TxnType &t : types_) {
        const unsigned nops =
            shape.range(cfg_.opsPerTxnMin, cfg_.opsPerTxnMax);
        for (unsigned i = 0; i < nops; ++i) {
            OpDef op;
            const double w = shape.uniform() * wsum;
            if (w < cfg_.mix.chase) {
                op.kind = OpDef::Kind::Chase;
                op.len = shape.range(cfg_.chaseLenMin, cfg_.chaseLenMax);
                op.depBranch = shape.chance(cfg_.depBranchProb);
                op.fillerMin = cfg_.fillerInstsMin;
                op.fillerMax = cfg_.fillerInstsMax;
            } else if (w < cfg_.mix.chase + cfg_.mix.btree) {
                op.kind = OpDef::Kind::BTree;
                op.len = cfg_.btreeLevels;
                op.fillerMin = cfg_.fillerInstsMin;
                op.fillerMax = cfg_.fillerInstsMax;
            } else if (w < cfg_.mix.chase + cfg_.mix.btree +
                               cfg_.mix.scan) {
                op.kind = OpDef::Kind::Scan;
                op.len = shape.range(cfg_.scanLinesMin, cfg_.scanLinesMax);
                // Scans are tight loops: little code between loads,
                // so the independent misses overlap in the window.
                op.fillerMin = 4;
                op.fillerMax = 10;
            } else {
                op.kind = OpDef::Kind::Hot;
                op.len = shape.range(2, 6);
                op.fillerMin = cfg_.fillerInstsMin;
                op.fillerMax = cfg_.fillerInstsMax;
            }
            op.store = shape.chance(cfg_.storeFraction);
            // Static binding to a hot function; whether an instance
            // actually runs hot or cold code is decided per entity in
            // emitOp (so the choice recurs with the key).
            op.fn = shape.below(
                std::min(cfg_.hotFunctions, cfg_.numFunctions));
            t.ops.push_back(op);
        }
    }
}

void
SyntheticWorkload::reset()
{
    rng_.reseed(cfg_.seed);
    buf_.clear();
    dispatcherPc_ = map_.dispatcherBase();
    curPc_ = 0;
    fnBase_ = fnEnd_ = 0;
    blockLeft_ = 0;
    aluIdx_ = aluPhase_ = loadIdx_ = 0;
    sinceSerialize_ = 0;
    oneShot_ = 0;
}

std::size_t
SyntheticWorkload::peekSpan(const TraceRecord **out, std::size_t max)
{
    while (buf_.empty())
        generateTransaction();
    const std::size_t len = buf_.frontSpan(out);
    return len < max ? len : max;
}

void
SyntheticWorkload::consumeSpan(std::size_t n)
{
    buf_.popN(n);
}

namespace
{

/** The serializer injected after the record at @p pc. */
TraceRecord
serializerAfter(Addr pc)
{
    return TraceRecord{.pc = pc + 4, .op = OpClass::Serialize};
}

} // namespace

void
SyntheticWorkload::finishRecord(Addr pc)
{
    if (++sinceSerialize_ >= cfg_.serializeEvery) {
        sinceSerialize_ = 0;
        buf_.pushSlot() = serializerAfter(pc);
    }
}

void
SyntheticWorkload::emitAluRun(unsigned n)
{
    // One ring reservation for the whole run, with the pc, register
    // rotation and serializer countdown held in locals. Each record
    // counts toward the next serializer as finishRecord() counts it,
    // so the run reserves its own count plus the serializers it will
    // inject -- no more than per-record pushes would grow the ring by.
    // (serializeEvery 0 behaves as 1, and a countdown already past due
    // fires on the first record, both as in finishRecord().)
    const std::uint64_t every =
        std::max<std::uint64_t>(cfg_.serializeEvery, 1);
    std::uint64_t since = std::min(sinceSerialize_, every - 1);
    const std::uint64_t due = every - since; // records to the next one
    const std::size_t total =
        n < due ? n : n + 1 + (n - due) / every;
    const auto slot = buf_.reserveBack(total);
    Addr pc = curPc_;
    unsigned idx = aluIdx_;
    unsigned phase = aluPhase_;
    std::size_t k = 0;
    for (unsigned i = 0; i < n; ++i) {
        // Filler is mostly a dependent chain: commercial codes run at
        // CPI_perf around 1.2 (Table 1), not at peak superscalar IPC.
        const std::uint8_t dst = RegAlu0 + idx;
        const std::uint8_t src0 =
            phase == 3 ? NoReg : RegAlu0 + aluWrap(idx + 23);
        const std::uint8_t src1 = RegAlu0 + aluWrap(idx + 11);
        slot[k++] = TraceRecord{.pc = pc,
                                .op = OpClass::IntAlu,
                                .dstReg = dst,
                                .srcReg0 = src0,
                                .srcReg1 = src1};
        if (++since >= every) {
            since = 0;
            slot[k++] = serializerAfter(pc);
        }
        pc += 4;
        idx = aluWrap(idx + 1);
        phase = (phase + 1) & 3;
    }
    buf_.commit(k);
    curPc_ = pc;
    aluIdx_ = idx;
    aluPhase_ = phase;
    sinceSerialize_ = since;
}

void
SyntheticWorkload::emitBranch(Addr target, bool noisy)
{
    TraceRecord &r = beginRecord();
    const Addr pc = curPc_;
    r.pc = pc;
    r.op = OpClass::Branch;
    r.taken = noisy ? (rng_.next() & 1) : true;
    r.target = target;
    r.srcReg0 = RegAlu0 + aluPlus(23);
    finishRecord(pc);
    // Taken or not, the next instruction in the trace is at `target`
    // for block-end branches (target == fall-through block start).
    curPc_ = target;
}

void
SyntheticWorkload::emitCode(unsigned n)
{
    while (n > 0) {
        if (blockLeft_ == 0) {
            // End of a basic block: branch to the next one (wrapping
            // inside the function to bound its footprint).
            Addr next = curPc_ + 4;
            if (next + cfg_.blockInsts * 4 >= fnEnd_)
                next = fnBase_;
            emitBranch(next, rng_.chance(cfg_.branchNoise));
            blockLeft_ = cfg_.blockInsts - 1;
            --n;
        } else {
            // The rest of the block (or of the request) is ALU filler.
            const unsigned run = std::min(n, blockLeft_);
            emitAluRun(run);
            blockLeft_ -= run;
            n -= run;
        }
    }
}

void
SyntheticWorkload::emitDispatcherStep()
{
    // A few hot dispatcher instructions between transactions/ops.
    curPc_ = dispatcherPc_;
    blockLeft_ = 1000; // the dispatcher has no block-end branches
    emitCode(3);
    dispatcherPc_ = curPc_;
    // Wrap within the dispatcher region, branching back to its start.
    if (dispatcherPc_ + 64 >=
        map_.dispatcherBase() + map_.dispatcherBytes()) {
        emitBranch(map_.dispatcherBase(), false);
        dispatcherPc_ = map_.dispatcherBase();
        curPc_ = dispatcherPc_;
    }
}

void
SyntheticWorkload::emitCall(Addr fn_base)
{
    TraceRecord &r = beginRecord();
    const Addr pc = dispatcherPc_;
    r.pc = pc;
    r.op = OpClass::Call;
    r.taken = true;
    r.target = fn_base;
    finishRecord(pc);
    dispatcherPc_ = pc + 4; // the RAS return point is call PC + 4

    fnBase_ = fn_base;
    fnEnd_ = fn_base + cfg_.funcBytes;
    curPc_ = fn_base;
    blockLeft_ = cfg_.blockInsts - 1;
}

void
SyntheticWorkload::emitReturn()
{
    TraceRecord &r = beginRecord();
    const Addr pc = curPc_;
    r.pc = pc;
    r.op = OpClass::Return;
    r.taken = true;
    r.target = dispatcherPc_; // matches the pushed call PC + 4
    finishRecord(pc);
    curPc_ = dispatcherPc_;
}

void
SyntheticWorkload::emitLoad(Addr addr, std::uint8_t dst, std::uint8_t src)
{
    TraceRecord &r = beginRecord();
    const Addr pc = curPc_;
    r.pc = pc;
    curPc_ = pc + 4;
    r.op = OpClass::Load;
    r.addr = addr;
    r.dstReg = dst;
    r.srcReg0 = src;
    finishRecord(pc);
    if (blockLeft_ > 0)
        --blockLeft_;
}

void
SyntheticWorkload::emitStore(Addr addr, std::uint8_t src)
{
    TraceRecord &r = beginRecord();
    const Addr pc = curPc_;
    r.pc = pc;
    curPc_ = pc + 4;
    r.op = OpClass::Store;
    r.addr = addr;
    r.srcReg0 = src;
    r.srcReg1 = RegAlu0 + aluPlus(5);
    finishRecord(pc);
    if (blockLeft_ > 0)
        --blockLeft_;
}

void
SyntheticWorkload::emitOp(const OpDef &op, std::uint32_t key,
                          unsigned op_idx, bool force_cold)
{
    // Derive this op's identity from the transaction key and a small
    // per-op group -- *not* the transaction type. Like rows in an
    // OLTP database, the same entity's objects are shared by every
    // transaction type that touches the entity, so any recurrence of
    // the key replays recurring addresses. A configurable fraction of
    // ops instead uses a one-shot key (transaction-local data),
    // bounding coverage.
    std::uint32_t id;
    if (force_cold ||
        (op.kind != OpDef::Kind::Hot &&
         rng_.chance(cfg_.coldKeyFraction))) {
        id = static_cast<std::uint32_t>(
            mix64(0xc01dULL << 32 | ++oneShot_));
    } else {
        id = static_cast<std::uint32_t>(
            mix64(static_cast<std::uint64_t>(key) * 8 + (op_idx & 7)) &
            0x7fffffff);
    }

    // Hot entities run hot (mostly resident) code; a deterministic
    // per-entity fraction walks a key-derived cold function instead,
    // so instruction-miss sequences recur with the key and the
    // instruction footprint scales with numFunctions.
    const std::uint64_t fnh = mix64(0xf00dULL << 32 | id);
    const bool hot_fn =
        (fnh % 10000) <
        static_cast<std::uint64_t>(cfg_.codeHotFraction * 10000.0);
    const std::uint32_t fn =
        hot_fn ? op.fn
               : static_cast<std::uint32_t>(fnh % cfg_.numFunctions);

    emitDispatcherStep();
    emitCall(map_.functionBase(fn));

    // Address-generation ALU feeding the base register.
    {
        TraceRecord &r = beginRecord();
        const Addr pc = curPc_;
        r.pc = pc;
        curPc_ = pc + 4;
        r.op = OpClass::IntAlu;
        r.dstReg = RegBase;
        // The previous op's chased value feeds this op's address
        // computation (an OLTP transaction's serial spine); scans
        // then fan out in parallel underneath it.
        r.srcReg0 = RegChase;
        finishRecord(pc);
    }

    // Filler lengths are deterministic per (op slot, access index):
    // a static instruction sequence has fixed load PCs, which
    // PC-localized prefetchers (GHB PC/DC, SMS) legitimately exploit.
    unsigned fill_n = 0;
    auto filler = [&]() {
        const std::uint64_t h =
            mix64((static_cast<std::uint64_t>(op.fn) << 24) ^
                  (static_cast<std::uint64_t>(op_idx) << 8) ^ fill_n++);
        return op.fillerMin +
               static_cast<unsigned>(h % (op.fillerMax - op.fillerMin + 1));
    };

    Addr last_line = 0;
    switch (op.kind) {
      case OpDef::Kind::Chase: {
        const std::uint32_t chain = id;
        // A pointer-chase loop: every hop executes the same body, so
        // the chasing load has one fixed PC (as `while (p) p =
        // p->next` does) -- the stream PC-localized prefetchers key
        // on.
        const unsigned body = filler();
        const Addr loop_head = curPc_;
        for (unsigned h = 0; h < op.len; ++h) {
            curPc_ = loop_head;
            blockLeft_ = body + 2; // no block-end branch inside
            emitCode(body);
            last_line = map_.chainNode(chain, h);
            emitLoad(last_line, RegChase,
                     h == 0 ? RegBase : RegChase);
            // Loop back-branch: taken until the final hop.
            TraceRecord &br = beginRecord();
            const Addr pc = curPc_;
            const bool taken = (h + 1 < op.len);
            br.pc = pc;
            br.op = OpClass::Branch;
            br.taken = taken;
            br.target = loop_head;
            br.srcReg0 = RegChase;
            finishRecord(pc);
            curPc_ = taken ? loop_head : pc + 4;
        }
        blockLeft_ = cfg_.blockInsts - 1;
        if (op.depBranch) {
            emitCode(2);
            // A branch consuming the chased value: if the chase
            // missed off-chip and this mispredicts, the window
            // terminates on it (Section 2.1).
            TraceRecord &r = beginRecord();
            const Addr pc = curPc_;
            const Addr target = pc + 4 + 4;
            r.pc = pc;
            r.op = OpClass::Branch;
            r.taken = rng_.chance(0.7);
            r.target = target;
            r.srcReg0 = RegChase;
            finishRecord(pc);
            curPc_ = target;
        }
        break;
      }
      case OpDef::Kind::BTree: {
        const std::uint32_t k = id;
        // Root: hot, then one dependent node per level; the walk
        // extends the serial spine.
        emitCode(filler());
        emitLoad(map_.btreeNode(0, k), RegChase, RegBase);
        for (unsigned l = 1; l <= cfg_.btreeLevels; ++l) {
            emitCode(filler());
            last_line = map_.btreeNode(l, k);
            emitLoad(last_line, RegChase, RegChase);
        }
        break;
      }
      case OpDef::Kind::Scan: {
        const Addr page = map_.recordPage(id);
        std::uint8_t last_dst = RegBase;
        // A record-scan loop: one load PC striding through the page's
        // lines (what stream prefetchers and SMS legitimately see).
        const unsigned body = filler();
        const Addr loop_head = curPc_;
        for (unsigned l = 0; l < op.len; ++l) {
            curPc_ = loop_head;
            blockLeft_ = body + 2;
            emitCode(body);
            last_line = page + static_cast<Addr>(l) * 64;
            last_dst = RegLoad0 + loadIdx_;
            if (++loadIdx_ == 12)
                loadIdx_ = 0;
            emitLoad(last_line, last_dst, RegBase);
            TraceRecord &br = beginRecord();
            const Addr pc = curPc_;
            const bool taken = (l + 1 < op.len);
            br.pc = pc;
            br.op = OpClass::Branch;
            br.taken = taken;
            br.target = loop_head;
            br.srcReg0 = last_dst;
            finishRecord(pc);
            curPc_ = taken ? loop_head : pc + 4;
        }
        blockLeft_ = cfg_.blockInsts - 1;
        // The scan's aggregate extends the serial spine, so the next
        // op's first access cannot overlap this scan (stable epoch
        // partitioning, like a query result feeding the next step).
        {
            TraceRecord &r = beginRecord();
            const Addr pc = curPc_;
            r.pc = pc;
            curPc_ = pc + 4;
            r.op = OpClass::IntAlu;
            r.dstReg = RegChase;
            r.srcReg0 = last_dst;
            finishRecord(pc);
        }
        break;
      }
      case OpDef::Kind::Hot: {
        for (unsigned l = 0; l < op.len; ++l) {
            emitCode(filler());
            last_line = map_.hotLine(
                static_cast<std::uint32_t>(mix64(id + l)));
            emitLoad(last_line, RegLoad0 + loadIdx_, RegBase);
            if (++loadIdx_ == 12)
                loadIdx_ = 0;
        }
        break;
      }
    }

    if (op.store && last_line) {
        emitCode(3);
        emitStore(last_line, RegBase);
    }

    emitCode(rng_.range(4, 10));
    emitReturn();
}

void
SyntheticWorkload::generateTransaction()
{
    // Entity-type affinity: an entity is always processed by the same
    // transaction type (a customer replays the same interaction), so
    // a recurring key replays the *whole* miss sequence, not just the
    // addresses. Per-instance variability still comes from cold
    // (one-shot) ops, branch noise and cache state.
    const std::uint32_t key = keys_.sample(rng_);
    const unsigned type = static_cast<unsigned>(
        mix64(0x7e57ULL << 32 | key) % cfg_.txnTypes);

    // Interrupt/jitter op: a short one-shot access injected at a
    // random position. This models the positional noise real systems
    // exhibit (interrupts, lock retries, buffer-pool misses): exact
    // successor *distances* are unstable even when the sequence
    // itself recurs, which distinguishes positional (depth-keyed)
    // predictors from windowed ones.
    OpDef jitter;
    jitter.kind = OpDef::Kind::Chase;
    jitter.len = 1 + (rng_.next() & 1);
    jitter.fn = 0;
    jitter.fillerMin = cfg_.fillerInstsMin;
    jitter.fillerMax = cfg_.fillerInstsMax;

    for (unsigned i = 0; i < types_[type].ops.size(); ++i) {
        if (rng_.chance(cfg_.jitterProb))
            emitOp(jitter, key, (type << 4) | 15, true);
        emitOp(types_[type].ops[i], key, (type << 4) | i);
    }
}

void
SyntheticWorkload::ckpt(ckpt::Archiver &ar)
{
    ckpt::ckptPcg32(ar, rng_);
    std::uint64_t pending = buf_.size();
    ar.u64(pending);
    if (ar.saving()) {
        for (std::uint64_t i = 0; i < pending; ++i) {
            TraceRecord rec = buf_.at(i);
            ckptRecord(ar, rec);
        }
    } else {
        buf_.clear();
        for (std::uint64_t i = 0; i < pending && ar.ok(); ++i) {
            TraceRecord rec;
            ckptRecord(ar, rec);
            if (ar.ok())
                buf_.pushSlot() = rec;
        }
    }
    ar.u64(curPc_);
    ar.u64(fnBase_);
    ar.u64(fnEnd_);
    ar.u64(dispatcherPc_);
    ar.uns(blockLeft_);
    ar.uns(aluIdx_);
    ar.uns(aluPhase_);
    ar.uns(loadIdx_);
    ar.u64(sinceSerialize_);
    ar.u64(oneShot_);
}

} // namespace ebcp
