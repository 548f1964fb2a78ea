/**
 * @file
 * Structure-aware fuzz target: mutate a *valid* checkpoint, repair
 * its CRCs, then restore and audit.
 *
 * The container's CRC discipline means blind byte flips almost always
 * die in CheckpointReader::fromBuffer() -- which exercises the
 * container parser but never the per-component restore logic or the
 * invariant auditor. This harness goes deeper:
 *
 *  1. a pristine checkpoint is built once, in-process, from a short
 *     warm run (so it is always format-current and its fingerprint
 *     always matches);
 *  2. the fuzz input is decoded as a list of (offset, byte) patches
 *     applied to the pristine image;
 *  3. the container is re-walked and every payload CRC plus the
 *     header CRC is recomputed -- the corruption is now *exactly what
 *     a CRC cannot catch* (a flipped bit after the checksum was
 *     taken, a logic bug in a writer);
 *  4. the result is restored into a fresh Simulator. Either the
 *     restore fails with a coded Status (Archiver bounds checks,
 *     section layout checks), or it succeeds and a short audited
 *     measurement window runs, giving every component's audit() and
 *     the cross-component conservation checks a chance to flag state
 *     the parser had no way to reject.
 *
 * A crash, sanitizer report, or panic anywhere in that pipeline is a
 * bug; audit violations are a *success* (they are the detection).
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fuzz/sim_fixture.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/crc32.hh"
#include "util/status.hh"
#include "verify/audit.hh"

using namespace ebcp;
using ebcp_fuzz::fuzzConfig;
using ebcp_fuzz::fuzzPrefetcher;

namespace
{

/** Build the pristine warm checkpoint once per process. */
const std::string &
pristineCheckpoint()
{
    static const std::string blob = [] {
        Simulator sim(fuzzConfig(), fuzzPrefetcher());
        auto src = makeWorkload("database");
        if (!sim.runWarm(*src, ebcp_fuzz::kFixtureWarmInsts).ok())
            std::abort();
        StatusOr<std::string> b = sim.serializeCheckpoint(*src);
        if (!b.ok())
            std::abort();
        return b.take();
    }();
    return blob;
}

std::uint32_t
readU32(const std::string &b, std::size_t at)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= std::uint32_t{static_cast<unsigned char>(b[at + i])}
             << (8 * i);
    return v;
}

std::uint64_t
readU64(const std::string &b, std::size_t at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t{static_cast<unsigned char>(b[at + i])}
             << (8 * i);
    return v;
}

void
writeU32(std::string &b, std::size_t at, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        b[at + i] = static_cast<char>(v >> (8 * i));
}

/**
 * Recompute the header CRC and every section payload CRC in place,
 * walking the documented container layout. Returns false when the
 * mutated image no longer walks (structural damage) -- callers then
 * feed it through unchanged, which exercises the container parser's
 * own rejection paths instead.
 */
bool
fixCrcs(std::string &b)
{
    // magic(8) version(4) fingerprint(8) count(4) header_crc(4)
    constexpr std::size_t kHeader = 8 + 4 + 8 + 4;
    if (b.size() < kHeader + 4)
        return false;
    const std::uint32_t count = readU32(b, 8 + 4 + 8);
    writeU32(b, kHeader, crc32(b.data(), kHeader));
    std::size_t pos = kHeader + 4;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (pos + 4 > b.size())
            return false;
        const std::uint32_t name_len = readU32(b, pos);
        pos += 4;
        if (name_len > b.size() - pos)
            return false;
        pos += name_len;
        if (pos + 12 > b.size())
            return false;
        const std::uint64_t payload_len = readU64(b, pos);
        pos += 8;
        if (payload_len > b.size() - pos - 4)
            return false;
        writeU32(b, pos, crc32(b.data() + pos + 4,
                               static_cast<std::size_t>(payload_len)));
        pos += 4 + static_cast<std::size_t>(payload_len);
    }
    return pos == b.size();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    std::string blob = pristineCheckpoint();

    // Decode the input as 5-byte (u32 offset, u8 value) patches. The
    // offset wraps over the image so every corpus byte is meaningful.
    constexpr std::size_t kMaxPatches = 256;
    std::size_t patches = 0;
    for (std::size_t i = 0; i + 5 <= size && patches < kMaxPatches;
         i += 5, ++patches) {
        std::uint32_t off = 0;
        std::memcpy(&off, data + i, 4);
        blob[off % blob.size()] = static_cast<char>(data[i + 4]);
    }
    fixCrcs(blob);

    Simulator sim(fuzzConfig(), fuzzPrefetcher());
    auto src = makeWorkload("database");
    const Status s = sim.restoreCheckpoint(blob, *src);
    if (!s.ok()) {
        if (s.message().empty())
            std::abort();
        return 0;
    }

    // Restore accepted the mutated state: hunt for invariant damage
    // with a densely audited measurement window.
    AuditOptions audit;
    audit.cadence = AuditCadence::EveryN;
    audit.everyTicks = 200;
    audit.policy = AuditPolicy::Collect;
    if (!sim.configureAudit(audit).ok())
        std::abort();

    StatusOr<SimResults> r = sim.runMeasure(*src, 2000);
    if (!r.ok() && r.status().message().empty())
        std::abort();
    return 0;
}
