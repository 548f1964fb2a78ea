/**
 * @file
 * The dynamic instruction record consumed by the timing model.
 *
 * The paper's simulator is trace-driven with register/memory values;
 * ours is trace-driven with explicit register dependences, which is
 * the part of that information the timing model actually needs:
 * dependences determine which off-chip accesses can overlap and hence
 * where epoch boundaries fall.
 */

#ifndef EBCP_CPU_TRACE_HH
#define EBCP_CPU_TRACE_HH

#include <cstddef>
#include <cstdint>

#include "cpu/op_class.hh"
#include "util/types.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

/** Architectural register count visible to the trace format. */
constexpr unsigned NumArchRegs = 64;

/** "No register" marker for src/dst fields. */
constexpr std::uint8_t NoReg = 0xff;

/** One dynamic instruction. */
struct TraceRecord
{
    Addr pc = 0;               //!< virtual==physical PC (Sec. 3.4.1)
    Addr addr = 0;             //!< effective address for loads/stores
    OpClass op = OpClass::Nop;
    std::uint8_t dstReg = NoReg;
    std::uint8_t srcReg0 = NoReg;
    std::uint8_t srcReg1 = NoReg;
    bool taken = false;        //!< branch outcome (control classes)
    Addr target = 0;           //!< branch target (control classes)
};

/**
 * Clamp out-of-range fields of a record from an untrusted source
 * (corrupt trace file, fault injection): an unknown op class becomes a
 * Nop and an out-of-range register id becomes NoReg, so a flipped bit
 * can at worst mistime an instruction, never index out of bounds.
 *
 * @return true if anything was clamped.
 */
inline bool
sanitizeRecord(TraceRecord &r)
{
    bool touched = false;
    if (static_cast<unsigned char>(r.op) >
        static_cast<unsigned char>(OpClass::Nop)) {
        r.op = OpClass::Nop;
        touched = true;
    }
    const auto clampReg = [&touched](std::uint8_t &reg) {
        if (reg >= NumArchRegs && reg != NoReg) {
            reg = NoReg;
            touched = true;
        }
    };
    clampReg(r.dstReg);
    clampReg(r.srcReg0);
    clampReg(r.srcReg1);
    return touched;
}

/**
 * Well-formedness check used by the audit layer. Every legitimate
 * source in this repo (synthetic workloads, and trace files written
 * from them) constructs records from defaults, so a non-control
 * record never carries branch state and a non-memory record never
 * carries an effective address. Either one signals corruption --
 * e.g. a bit flipped into taken/target/addr -- that sanitizeRecord()
 * cannot see because the field values are individually plausible.
 *
 * @return a short description of the defect, or nullptr when clean.
 */
inline const char *
recordAuditError(const TraceRecord &r)
{
    if (!isControl(r.op) && (r.taken || r.target != 0))
        return "non-control record carries branch state";
    if (!isMem(r.op) && r.addr != 0)
        return "non-memory record carries an effective address";
    return nullptr;
}

/**
 * Pull-model trace source. The core pulls records one way only: it
 * borrows a span of the source's own decoded records with peekSpan(),
 * times them in place, and retires them with consumeSpan().
 *
 * Whatever a source reads ahead of its consumer -- a generated
 * transaction in a ring, a decoded file chunk, a buffer of faulted
 * records -- is part of its checkpointed cursor, so ckpt() taken
 * between any two pulls resumes on exactly the next unconsumed record.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Lend the next records in place: *out points at up to @p max
     * (>= 1) contiguous records, valid until the matching
     * consumeSpan(). Nothing is consumed until then.
     *
     * @return the span length; 0 only at exhaustion (synthetic
     *         sources never are).
     */
    virtual std::size_t peekSpan(const TraceRecord **out,
                                 std::size_t max) = 0;

    /** Retire the first @p n records of the last peeked span
     * (@p n at most its length). */
    virtual void consumeSpan(std::size_t n) = 0;

    /** Restart the source deterministically. */
    virtual void reset() = 0;

    /**
     * Serialize or restore the source's read cursor (checkpointing).
     * The default fails the archive: a source without an override has
     * no resumable cursor and a checkpoint taken over it would replay
     * records from the wrong position on restore.
     */
    virtual void ckpt(ckpt::Archiver &ar);

    /**
     * Copy out one record through the span interface (capture, tools
     * and tests; the core pulls whole spans).
     * @return false at exhaustion.
     */
    bool
    next(TraceRecord &rec)
    {
        const TraceRecord *span = nullptr;
        if (peekSpan(&span, 1) == 0)
            return false;
        rec = *span;
        consumeSpan(1);
        return true;
    }
};

/** Serialize or restore one trace record field-by-field. */
void ckptRecord(ckpt::Archiver &ar, TraceRecord &rec);

} // namespace ebcp

#endif // EBCP_CPU_TRACE_HH
