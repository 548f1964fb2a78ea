/**
 * @file
 * A TraceSource wrapper that injects deterministic faults into the
 * record stream, for proving the simulator degrades instead of dying
 * on damaged input (the robustness analogue of the paper's best-effort
 * correlation-table reads: a lost record, like a lost table read, must
 * cost accuracy, not correctness).
 *
 * Faults (armed via FaultPlan, all seeded):
 *  - bit-flip: one random bit of a delivered record's payload fields
 *    flips, as an undetected media/conversion error would;
 *  - truncate: the source ends permanently after a configured number
 *    of records, as a truncated file would;
 *  - short-read: a small run of records vanishes, as a short read
 *    dropped on the floor would.
 *
 * Every delivered record is sanitized (see sanitizeRecord), so a flip
 * in an op/register field degrades to a Nop/NoReg rather than feeding
 * the timing model out-of-range indices.
 */

#ifndef EBCP_TRACE_FAULT_INJECTION_HH
#define EBCP_TRACE_FAULT_INJECTION_HH

#include <memory>
#include <vector>

#include "cpu/trace.hh"
#include "stats/group.hh"
#include "util/fault.hh"
#include "util/random.hh"

namespace ebcp
{

/**
 * Ways a checkpoint file can plausibly be damaged at rest or in
 * flight; used to build the corrupted-checkpoint test corpus. Every
 * kind must surface on restore as a coded StatusCode::Corruption (or
 * InvalidArgument for version/fingerprint skew), never as a crash.
 */
enum class CkptFaultKind
{
    HeaderBitflip,   //!< one bit of the container header flips
    SectionTruncate, //!< the file ends inside the section area
    CrcFlip,         //!< one bit of a section (name/len/CRC/payload)
    ShortWrite,      //!< the final bytes were never written
};

/** All kinds, for corpus loops. */
constexpr CkptFaultKind kCkptFaultKinds[] = {
    CkptFaultKind::HeaderBitflip,
    CkptFaultKind::SectionTruncate,
    CkptFaultKind::CrcFlip,
    CkptFaultKind::ShortWrite,
};

/** @return printable kind name. */
const char *ckptFaultKindName(CkptFaultKind kind);

/**
 * Damage a serialized checkpoint in place, deterministically from
 * @p seed (stream FaultStream::Checkpoint). The damage is always
 * material: the buffer afterwards differs from the input.
 */
void injectCkptFault(std::string &buffer, CkptFaultKind kind,
                     std::uint64_t seed);

/** Read @p path, damage it, and write it back. */
Status injectCkptFaultFile(const std::string &path, CkptFaultKind kind,
                           std::uint64_t seed);

/** Wraps another TraceSource and injects the plan's trace faults. */
class FaultInjectingTraceSource : public TraceSource
{
  public:
    /** @p inner must outlive this wrapper. */
    FaultInjectingTraceSource(TraceSource &inner, const FaultPlan &plan);

    /**
     * Lend the next faulted records. When the buffer is drained it is
     * refilled with at most @p max (and at most kMaxBuffered) records
     * walked from the inner source's spans, each with the per-record
     * draws in a fixed order: truncate, short read, then bit flip plus
     * sanitize. The inner source is consumed only as far as those
     * records reach, so a pull never runs past the consumer's budget.
     */
    std::size_t peekSpan(const TraceRecord **out,
                         std::size_t max) override;
    void consumeSpan(std::size_t n) override;

    /** Restart both the wrapper's fault stream and the inner source,
     * reproducing the exact same fault sequence. */
    void reset() override;

    /** Serialize or restore the fault cursor -- including faulted
     * records not yet consumed -- together with the inner source's
     * cursor, so a restored run replays the identical remainder of the
     * fault sequence. */
    void ckpt(ckpt::Archiver &ar) override;

    std::uint64_t bitflipsInjected() const { return bitflips_.value(); }
    std::uint64_t truncationsInjected() const
    {
        return truncations_.value();
    }
    std::uint64_t shortReadsInjected() const
    {
        return shortReads_.value();
    }
    std::uint64_t recordsDropped() const
    {
        return recordsDropped_.value();
    }

    StatGroup &stats() { return stats_; }

  private:
    /** Records faulted per refill at most: bounds the buffer however
     * large the consumer's budget. */
    static constexpr std::size_t kMaxBuffered = 1024;

    /** Fault up to @p max records into the drained buffer. */
    void refill(std::size_t max);

    void flipOneBit(TraceRecord &rec);

    TraceSource &inner_;
    FaultPlan plan_;
    Pcg32 rng_;
    std::uint64_t delivered_ = 0; //!< records faulted into buf_ so far
    bool truncated_ = false;
    std::vector<TraceRecord> buf_; //!< faulted, not yet consumed
    std::size_t bufPos_ = 0;

    StatGroup stats_{"fault_injection"};
    Scalar bitflips_{"bitflips", "record bit-flip faults injected"};
    Scalar truncations_{"truncations", "trace truncation faults fired"};
    Scalar shortReads_{"short_reads", "short-read faults injected"};
    Scalar recordsDropped_{"records_dropped",
                           "records lost to short-read faults"};
};

/**
 * Route each of @p sources (one per core) through its own
 * FaultInjectingTraceSource when @p plan arms a trace fault: every
 * entry is repointed at its wrapper, and the wrappers are returned
 * for the caller to keep alive and report from. Nothing is wrapped,
 * and the result is empty, when no trace fault is armed.
 */
std::vector<std::unique_ptr<FaultInjectingTraceSource>>
wrapTraceFaults(std::vector<TraceSource *> &sources, const FaultPlan &plan);

} // namespace ebcp

#endif // EBCP_TRACE_FAULT_INJECTION_HH
