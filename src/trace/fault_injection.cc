#include "trace/fault_injection.hh"

#include <algorithm>

#include "ckpt/checkpoint.hh"
#include "ckpt/containers.hh"

namespace ebcp
{

namespace
{

// Container header bytes: magic 8 + version 4 + fingerprint 8 +
// section count 4 + header CRC 4 (see ckpt/checkpoint.hh).
constexpr std::size_t kCkptHeaderBytes = 28;

void
flipBitAt(std::string &buffer, std::size_t lo, std::size_t hi,
          Pcg32 &rng)
{
    const std::size_t span = hi - lo;
    const std::size_t byte =
        lo + rng.below(static_cast<std::uint32_t>(span));
    buffer[byte] = static_cast<char>(
        static_cast<unsigned char>(buffer[byte]) ^ (1u << rng.below(8)));
}

} // namespace

const char *
ckptFaultKindName(CkptFaultKind kind)
{
    switch (kind) {
      case CkptFaultKind::HeaderBitflip: return "header-bitflip";
      case CkptFaultKind::SectionTruncate: return "section-truncate";
      case CkptFaultKind::CrcFlip: return "crc-flip";
      case CkptFaultKind::ShortWrite: return "short-write";
    }
    return "unknown";
}

void
injectCkptFault(std::string &buffer, CkptFaultKind kind,
                std::uint64_t seed)
{
    Pcg32 rng(seed, static_cast<std::uint64_t>(FaultStream::Checkpoint));
    if (buffer.empty()) {
        buffer.push_back('\0'); // still material damage to "nothing"
        return;
    }
    const std::size_t header = std::min(kCkptHeaderBytes, buffer.size());
    switch (kind) {
      case CkptFaultKind::HeaderBitflip:
        flipBitAt(buffer, 0, header, rng);
        break;
      case CkptFaultKind::SectionTruncate:
        // Keep the header intact; the file ends somewhere inside the
        // section area, as a partially copied file would.
        if (buffer.size() > kCkptHeaderBytes) {
            const std::size_t keep =
                kCkptHeaderBytes +
                rng.below(static_cast<std::uint32_t>(buffer.size() -
                                                     kCkptHeaderBytes));
            buffer.resize(keep);
        } else {
            buffer.resize(buffer.size() / 2);
        }
        break;
      case CkptFaultKind::CrcFlip:
        // Land the flip past the header: a section name, length,
        // stored CRC or payload byte. Whichever it hits, the eager
        // CRC validation must catch it.
        if (buffer.size() > kCkptHeaderBytes)
            flipBitAt(buffer, kCkptHeaderBytes, buffer.size(), rng);
        else
            flipBitAt(buffer, 0, buffer.size(), rng);
        break;
      case CkptFaultKind::ShortWrite: {
        // The tail never hit the disk: lose 1..64 final bytes.
        const std::size_t cap = std::min<std::size_t>(
            64, buffer.size() > 1 ? buffer.size() - 1 : 1);
        const std::size_t lost =
            1 + rng.below(static_cast<std::uint32_t>(cap));
        // erase(), not resize(): a shrink-only call gives the
        // optimizer no grow path to warn about once it is inlined.
        buffer.erase(buffer.size() - std::min(lost, buffer.size()));
        break;
      }
    }
}

Status
injectCkptFaultFile(const std::string &path, CkptFaultKind kind,
                    std::uint64_t seed)
{
    StatusOr<std::string> data = ckpt::readFile(path);
    if (!data.ok())
        return data.status();
    std::string buffer = data.take();
    injectCkptFault(buffer, kind, seed);
    return ckpt::atomicWriteFile(path, buffer);
}

FaultInjectingTraceSource::FaultInjectingTraceSource(
    TraceSource &inner, const FaultPlan &plan)
    : inner_(inner), plan_(plan),
      rng_(plan.seed,
           static_cast<std::uint64_t>(FaultStream::TraceSource))
{
    stats_.add(bitflips_);
    stats_.add(truncations_);
    stats_.add(shortReads_);
    stats_.add(recordsDropped_);
}

void
FaultInjectingTraceSource::flipOneBit(TraceRecord &rec)
{
    // Flip within the fields a real on-disk corruption could reach.
    // Address-like fields get the full 64-bit range; control fields
    // get their own width. Sanitization below keeps the result safe.
    switch (rng_.below(7)) {
      case 0: rec.pc ^= 1ULL << rng_.below(64); break;
      case 1: rec.addr ^= 1ULL << rng_.below(64); break;
      case 2: rec.target ^= 1ULL << rng_.below(64); break;
      case 3:
        rec.op = static_cast<OpClass>(static_cast<std::uint8_t>(rec.op) ^
                                      (1u << rng_.below(8)));
        break;
      case 4: rec.dstReg ^= 1u << rng_.below(8); break;
      case 5: rec.srcReg0 ^= 1u << rng_.below(8); break;
      case 6: rec.srcReg1 ^= 1u << rng_.below(8); break;
    }
    ++bitflips_;
}

std::size_t
FaultInjectingTraceSource::peekSpan(const TraceRecord **out,
                                    std::size_t max)
{
    if (bufPos_ == buf_.size())
        refill(std::min(max, kMaxBuffered));
    *out = buf_.data() + bufPos_;
    return std::min(max, buf_.size() - bufPos_);
}

void
FaultInjectingTraceSource::consumeSpan(std::size_t n)
{
    bufPos_ += n;
}

void
FaultInjectingTraceSource::refill(std::size_t max)
{
    buf_.clear();
    bufPos_ = 0;

    // A cursor into the inner source's current span. Records are taken
    // from it one at a time and handed back with one consumeSpan() per
    // span, so the inner source advances by exactly what was taken.
    const TraceRecord *span = nullptr;
    std::size_t len = 0;
    std::size_t used = 0;
    const auto take = [&]() -> const TraceRecord * {
        if (used == len) {
            inner_.consumeSpan(used);
            used = 0;
            len = inner_.peekSpan(&span, max - buf_.size());
            if (len == 0)
                return nullptr;
        }
        return &span[used++];
    };

    while (buf_.size() < max && !truncated_) {
        if (plan_.traceTruncate && delivered_ >= plan_.truncateAfter) {
            truncated_ = true;
            ++truncations_;
            break;
        }

        if (plan_.traceShortRead && rng_.chance(plan_.rate)) {
            // A short read loses a small run of consecutive records.
            const std::uint32_t n = 1 + rng_.below(16);
            std::uint32_t lost = 0;
            while (lost < n && take()) {
                ++lost;
                ++recordsDropped_;
            }
            if (lost < n)
                break; // the inner source ran dry
            ++shortReads_;
        }

        const TraceRecord *rec = take();
        if (!rec)
            break;
        TraceRecord &out = buf_.emplace_back(*rec);
        if (plan_.traceBitflip && rng_.chance(plan_.rate)) {
            flipOneBit(out);
            sanitizeRecord(out);
        }
        ++delivered_;
    }
    inner_.consumeSpan(used);
}

void
FaultInjectingTraceSource::reset()
{
    inner_.reset();
    rng_.reseed(plan_.seed,
                static_cast<std::uint64_t>(FaultStream::TraceSource));
    delivered_ = 0;
    truncated_ = false;
    buf_.clear();
    bufPos_ = 0;
}

void
FaultInjectingTraceSource::ckpt(ckpt::Archiver &ar)
{
    inner_.ckpt(ar);
    ckpt::ckptPcg32(ar, rng_);
    ar.u64(delivered_);
    ar.boolean(truncated_);
    ar.vec(buf_, ckptRecord);
    ar.sz(bufPos_);
    if (!ar.saving() && ar.ok() && bufPos_ > buf_.size()) {
        ar.fail(corruptionError("fault cursor points past the buffered "
                                "records (", bufPos_, " > ", buf_.size(),
                                ")"));
        return;
    }
    stats_.ckpt(ar);
}

std::vector<std::unique_ptr<FaultInjectingTraceSource>>
wrapTraceFaults(std::vector<TraceSource *> &sources, const FaultPlan &plan)
{
    std::vector<std::unique_ptr<FaultInjectingTraceSource>> wrappers;
    if (!plan.traceBitflip && !plan.traceTruncate && !plan.traceShortRead)
        return wrappers;
    for (TraceSource *&src : sources) {
        wrappers.push_back(
            std::make_unique<FaultInjectingTraceSource>(*src, plan));
        src = wrappers.back().get();
    }
    return wrappers;
}

} // namespace ebcp
