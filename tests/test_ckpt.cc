/**
 * @file
 * Tests for the checkpoint subsystem: archiver primitives, bit-exact
 * simulator save/restore (in memory and through the atomic file
 * path), version/fingerprint skew rejection, the corrupted-checkpoint
 * corpus (every CkptFaultKind must surface as a coded Status, never a
 * crash), and the warm fingerprint that keys sweep warm reuse.
 *
 * CkptRoundtrip.* and CkptCorpus.* are also registered as dedicated
 * ctest entries (ckpt_roundtrip, ckpt_corruption_corpus) which
 * check.sh's ckpt stage runs under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/archiver.hh"
#include "ckpt/checkpoint.hh"
#include "harness/sweep.hh"
#include "sim/simulator.hh"
#include "trace/fault_injection.hh"
#include "trace/trace_file.hh"
#include "trace/workloads.hh"
#include "util/crc32.hh"

#include "results_print.hh"
#include "temp_path.hh"

using namespace ebcp;
using namespace ebcp::harness;
using ebcp_test::tempPath;

namespace
{

constexpr std::uint64_t kWarm = 60'000;
constexpr std::uint64_t kMeasure = 120'000;

/** A warmed simulator's serialized state plus its cold results. */
struct WarmRun
{
    std::string blob;
    SimResults coldResults;
};

/** Two database instances, seeded as a 2-core run seeds its cores. */
struct TwoCoreSources
{
    std::unique_ptr<SyntheticWorkload> a =
        makeWorkload("database", coreSeed(0, 0, 2));
    std::unique_ptr<SyntheticWorkload> b =
        makeWorkload("database", coreSeed(0, 1, 2));
    std::vector<TraceSource *> list{a.get(), b.get()};
};

WarmRun
warmAndMeasure(const SimConfig &cfg, const PrefetcherParams &pf,
               const std::string &workload)
{
    WarmRun out;
    Simulator sim(cfg, pf);
    auto src = makeWorkload(workload);
    EXPECT_TRUE(sim.runWarm(*src, kWarm).ok());
    StatusOr<std::string> blob = sim.serializeCheckpoint(*src);
    EXPECT_TRUE(blob.ok()) << blob.status().toString();
    out.blob = blob.ok() ? blob.take() : std::string();
    StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    if (r.ok())
        out.coldResults = r.take();
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Archiver primitives.
// ---------------------------------------------------------------------

TEST(CkptRoundtrip, ArchiverPrimitivesAreBitExact)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint8_t a = 0xab;
        std::uint32_t b = 0xdeadbeef;
        std::uint64_t c = 0x0123456789abcdefULL;
        std::int64_t d = -42;
        double e = -0.0;
        double f = std::nan("");
        bool g = true;
        std::string h = "section";
        std::vector<std::uint64_t> v{1, 2, 3};
        ar.u8(a);
        ar.u32(b);
        ar.u64(c);
        ar.i64(d);
        ar.f64(e);
        ar.f64(f);
        ar.boolean(g);
        ar.str(h);
        ar.vecU64(v);
        ASSERT_TRUE(ar.ok());
    }
    {
        ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                                   bytes.size());
        std::uint8_t a = 0;
        std::uint32_t b = 0;
        std::uint64_t c = 0;
        std::int64_t d = 0;
        double e = 1.0, f = 1.0;
        bool g = false;
        std::string h;
        std::vector<std::uint64_t> v;
        ar.u8(a);
        ar.u32(b);
        ar.u64(c);
        ar.i64(d);
        ar.f64(e);
        ar.f64(f);
        ar.boolean(g);
        ar.str(h);
        ar.vecU64(v);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
        EXPECT_EQ(ar.remaining(), 0u);
        EXPECT_EQ(a, 0xab);
        EXPECT_EQ(b, 0xdeadbeefu);
        EXPECT_EQ(c, 0x0123456789abcdefULL);
        EXPECT_EQ(d, -42);
        EXPECT_TRUE(std::signbit(e));
        EXPECT_TRUE(std::isnan(f));
        EXPECT_TRUE(g);
        EXPECT_EQ(h, "section");
        EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
    }
}

TEST(CkptRoundtrip, TruncatedPayloadIsCodedNotUb)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint64_t v = 7;
        ar.u64(v);
    }
    // Load more than was written: sticky Corruption, not a wild read.
    ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(), 4);
    std::uint64_t v = 0;
    ar.u64(v);
    ASSERT_FALSE(ar.ok());
    EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
    // Sticky: later calls stay failed without touching outputs.
    std::uint64_t w = 99;
    ar.u64(w);
    EXPECT_EQ(w, 99u);
}

// Originally found by fuzz_ckpt_restore (the minimized inputs live in
// fuzz/corpus/regressions/ckpt_restore/): a corrupt vector count used
// to drive an n * sizeof(T) resize before any bounds check, so a
// 16-byte payload could demand terabytes of host memory. The count
// must now be rejected against the remaining payload *before* the
// allocation, scaled by the smallest possible element size.
TEST(CkptRoundtrip, CorruptVectorCountIsClampedBeforeAllocation)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint64_t huge = std::uint64_t{1} << 40;
        ar.u64(huge); // forged count with no elements behind it
    }
    ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                               bytes.size());
    std::vector<std::uint64_t> v;
    ar.vecU64(v);
    ASSERT_FALSE(ar.ok());
    EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
    EXPECT_TRUE(v.empty()); // the resize never happened
}

TEST(CkptRoundtrip, CorruptStringLengthIsClampedBeforeAllocation)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint32_t huge = 0xffffffffu;
        ar.u32(huge); // forged string length, no bytes behind it
    }
    ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                               bytes.size());
    std::string s;
    ar.str(s);
    ASSERT_FALSE(ar.ok());
    EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
    EXPECT_TRUE(s.empty());
}

// Container-level cousins of the same bug class, also fuzz findings:
// a section count or section name length the buffer cannot possibly
// hold must be corruption detected up front, not a loop that
// allocates its way toward the truncation.
TEST(CkptCorpus, ImplausibleSectionFramingIsCodedUpFront)
{
    auto packU32 = [](std::string &out, std::uint32_t v) {
        for (unsigned i = 0; i < 4; ++i)
            out.push_back(static_cast<char>(v >> (8 * i)));
    };
    auto packU64 = [](std::string &out, std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i)
            out.push_back(static_cast<char>(v >> (8 * i)));
    };
    auto header = [&](std::uint32_t count) {
        std::string out;
        out.append(ckpt::kCkptMagic, sizeof ckpt::kCkptMagic);
        packU32(out, ckpt::kCkptFormatVersion);
        packU64(out, 0); // fingerprint (tests pass expect=0)
        packU32(out, count);
        packU32(out, crc32(out.data(), out.size()));
        return out;
    };

    {
        // 4 billion sections "stored" in a 16-byte body.
        std::string buf = header(0xffffffffu);
        buf.append(16, '\0');
        auto r = ckpt::CheckpointReader::fromBuffer(buf, 0);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::Corruption);
        EXPECT_NE(r.status().message().find("sections"),
                  std::string::npos);
    }
    {
        // One section whose name claims 64 KiB in a body that holds
        // it -- length-plausible, but no real section name is that
        // long, so the cap must reject it as corruption.
        std::string buf = header(1);
        packU32(buf, 1u << 16);
        buf.append(1u << 16, 'x');
        packU64(buf, 0);
        packU32(buf, crc32("", 0));
        auto r = ckpt::CheckpointReader::fromBuffer(buf, 0);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::Corruption);
        EXPECT_NE(r.status().message().find("name length"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Container API: policy names, writer error latching, file round trip.
// ---------------------------------------------------------------------

TEST(CkptContainer, PolicyNamesRoundTrip)
{
    auto strict = ckpt::ckptPolicyFromName("strict");
    ASSERT_TRUE(strict.ok());
    EXPECT_EQ(strict.value(), ckpt::CkptPolicy::Strict);
    auto rebuild = ckpt::ckptPolicyFromName("rebuild");
    ASSERT_TRUE(rebuild.ok());
    EXPECT_EQ(rebuild.value(), ckpt::CkptPolicy::Rebuild);
    EXPECT_STREQ(ckpt::ckptPolicyName(ckpt::CkptPolicy::Strict),
                 "strict");
    EXPECT_STREQ(ckpt::ckptPolicyName(ckpt::CkptPolicy::Rebuild),
                 "rebuild");

    auto bogus = ckpt::ckptPolicyFromName("lenient");
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.status().code(), StatusCode::InvalidArgument);
}

TEST(CkptContainer, WriterRejectsDuplicateSectionAndStaysLatched)
{
    ckpt::CheckpointWriter w(0);
    ASSERT_TRUE(w.section("a", [](ckpt::Archiver &ar) {
        std::uint64_t v = 1;
        ar.u64(v);
    }).ok());

    Status dup = w.section("a", [](ckpt::Archiver &ar) {
        std::uint64_t v = 2;
        ar.u64(v);
    });
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.code(), StatusCode::InvalidArgument);
    EXPECT_NE(dup.message().find("duplicate"), std::string::npos);

    // First failure latches the writer: later sections and
    // serialize() refuse rather than emit a half-built container.
    EXPECT_FALSE(w.section("b", [](ckpt::Archiver &) {}).ok());
    EXPECT_FALSE(w.serialize().ok());
    EXPECT_FALSE(w.writeAtomic(tempPath("never_written.ckpt")).ok());
}

TEST(CkptContainer, FailingFillIsContextWrappedAndSectionDropped)
{
    ckpt::CheckpointWriter w(0);
    Status s = w.section("core", [](ckpt::Archiver &ar) {
        ar.fail(corruptionError("fill exploded"));
    });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("checkpoint section 'core'"),
              std::string::npos)
        << s.message();
}

TEST(CkptContainer, FileRoundTripAndMissingFileAreCoded)
{
    const std::string path = tempPath("ckpt_container_api.ckpt");
    ckpt::CheckpointWriter w(0xabcdef);
    ASSERT_TRUE(w.section("numbers", [](ckpt::Archiver &ar) {
        std::uint64_t a = 7, b = 9;
        ar.u64(a);
        ar.u64(b);
    }).ok());
    ASSERT_TRUE(w.writeAtomic(path).ok());

    auto r = ckpt::CheckpointReader::fromFile(path, 0xabcdef);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().fingerprint(), 0xabcdefu);
    EXPECT_TRUE(r.value().hasSection("numbers"));
    EXPECT_FALSE(r.value().hasSection("absent"));

    std::uint64_t a = 0, b = 0;
    ASSERT_TRUE(r.value().section("numbers", [&](ckpt::Archiver &ar) {
        ar.u64(a);
        ar.u64(b);
    }).ok());
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 9u);

    // Consuming only part of a section is layout skew, not success.
    Status skew = r.value().section("numbers", [&](ckpt::Archiver &ar) {
        ar.u64(a);
    });
    ASSERT_FALSE(skew.ok());
    EXPECT_EQ(skew.code(), StatusCode::Corruption);
    EXPECT_NE(skew.message().find("unconsumed"), std::string::npos);

    Status missing = r.value().section("absent",
                                       [](ckpt::Archiver &) {});
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), StatusCode::Corruption);
    EXPECT_NE(missing.message().find("missing section"),
              std::string::npos);

    std::remove(path.c_str());
    auto gone = ckpt::CheckpointReader::fromFile(path, 0xabcdef);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.status().code(), StatusCode::NotFound);
}

TEST(CkptContainer, TrailingBytesAndTruncatedHeaderAreCoded)
{
    ckpt::CheckpointWriter w(0);
    ASSERT_TRUE(w.section("s", [](ckpt::Archiver &ar) {
        std::uint8_t v = 1;
        ar.u8(v);
    }).ok());
    StatusOr<std::string> data = w.serialize();
    ASSERT_TRUE(data.ok());

    const std::string trailing = data.value() + std::string(3, '\0');
    auto r = ckpt::CheckpointReader::fromBuffer(trailing, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Corruption);
    EXPECT_NE(r.status().message().find("trailing"), std::string::npos);

    const std::string stub = data.value().substr(0, 10);
    auto t = ckpt::CheckpointReader::fromBuffer(stub, 0);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::Corruption);
}

// ---------------------------------------------------------------------
// Whole-simulator save/restore.
// ---------------------------------------------------------------------

TEST(CkptRoundtrip, RestoredRunIsBitIdenticalToUninterrupted)
{
    for (const char *pf_name : {"null", "ebcp", "stream"}) {
        SCOPED_TRACE(pf_name);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = pf_name;
        const WarmRun warm = warmAndMeasure(cfg, pf, "database");
        ASSERT_FALSE(warm.blob.empty());

        Simulator sim(cfg, pf);
        auto src = makeWorkload("database");
        ASSERT_TRUE(sim.restoreCheckpoint(warm.blob, *src).ok());
        StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value(), warm.coldResults) << pf_name;
    }

    // The same round trip on a 2-core system: per-core sections, the
    // shared side and the interleave RNG must all come back.
    for (const char *pf_name : {"null", "ebcp"}) {
        SCOPED_TRACE(std::string("2-core ") + pf_name);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = pf_name;
        pf.ebcp.numCoreStates = 2;

        std::string blob;
        SimResults cold;
        {
            Simulator sim(cfg, pf, 2);
            TwoCoreSources src;
            ASSERT_TRUE(sim.runWarm(src.list, kWarm).ok());
            StatusOr<std::string> b = sim.serializeCheckpoint(src.list);
            ASSERT_TRUE(b.ok()) << b.status().toString();
            blob = b.take();
            StatusOr<SimResults> r = sim.runMeasure(src.list, kMeasure);
            ASSERT_TRUE(r.ok()) << r.status().toString();
            cold = r.take();
        }
        Simulator sim(cfg, pf, 2);
        TwoCoreSources src;
        ASSERT_TRUE(sim.restoreCheckpoint(blob, src.list).ok());
        StatusOr<SimResults> r = sim.runMeasure(src.list, kMeasure);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value(), cold) << pf_name;

        // The core count is part of the configuration identity.
        Simulator one(cfg, pf);
        auto one_src = makeWorkload("database");
        EXPECT_EQ(one.restoreCheckpoint(blob, *one_src).code(),
                  StatusCode::InvalidArgument);
    }
}

TEST(CkptRoundtrip, FileRoundTripThroughAtomicWrite)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    const std::string path = tempPath("ckpt_file_roundtrip.ckpt");

    SimResults cold;
    {
        Simulator sim(cfg, pf);
        auto src = makeWorkload("tpcw");
        ASSERT_TRUE(sim.runWarm(*src, kWarm).ok());
        ASSERT_TRUE(sim.saveCheckpoint(path, *src).ok());
        StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(r.ok());
        cold = r.take();
    }
    {
        Simulator sim(cfg, pf);
        auto src = makeWorkload("tpcw");
        ASSERT_TRUE(sim.restoreCheckpointFile(path, *src).ok());
        StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value(), cold) << "file roundtrip";
    }
    std::remove(path.c_str());
}

TEST(CkptRoundtrip, ConfigFingerprintMismatchIsCoded)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    const WarmRun warm = warmAndMeasure(cfg, pf, "database");

    // A different table size is a different machine: restoring the
    // checkpoint against it must be rejected up front.
    PrefetcherParams other = pf;
    other.ebcp.tableEntries = pf.ebcp.tableEntries * 2;
    Simulator sim(cfg, other);
    auto src = makeWorkload("database");
    Status s = sim.restoreCheckpoint(warm.blob, *src);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("fingerprint"), std::string::npos)
        << s.message();
}

TEST(CkptRoundtrip, FormatVersionSkewIsCoded)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    WarmRun warm = warmAndMeasure(cfg, pf, "database");
    ASSERT_GT(warm.blob.size(), 28u);

    // Bump the stored format version (offset 8) and re-seal the
    // header CRC (offset 24, over the first 24 bytes) so the version
    // check itself -- not the CRC -- rejects the file.
    warm.blob[8] = static_cast<char>(warm.blob[8] + 1);
    const std::uint32_t fixed = crc32(warm.blob.data(), 24);
    for (int i = 0; i < 4; ++i)
        warm.blob[24 + i] = static_cast<char>(fixed >> (8 * i));

    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    Status s = sim.restoreCheckpoint(warm.blob, *src);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("format version"), std::string::npos)
        << s.message();
}

TEST(CkptRoundtrip, TraceCursorResumesMidStream)
{
    // Drain part of a workload, checkpoint the cursor, and require a
    // restored instance to continue with the identical records.
    auto a = makeWorkload("specjbb");
    TraceRecord rec;
    for (int i = 0; i < 10'000; ++i)
        ASSERT_TRUE(a->next(rec));

    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        a->ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
    }
    auto b = makeWorkload("specjbb");
    {
        ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                                   bytes.size());
        b->ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
        EXPECT_EQ(ar.remaining(), 0u);
    }
    for (int i = 0; i < 5'000; ++i) {
        TraceRecord ra, rb;
        ASSERT_TRUE(a->next(ra));
        ASSERT_TRUE(b->next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
    }
}

namespace
{

/**
 * Warm a fresh simulator over the source @p make builds, checkpoint it
 * and measure on; then restore the checkpoint into a second fresh
 * simulator and source and measure again. The two measured windows
 * must be bit-identical, which holds only if the source's checkpointed
 * cursor covers everything it had read ahead of the core.
 */
template <typename MakeSource>
void
expectSourceRoundTrip(const PrefetcherParams &pf, MakeSource make,
                      const std::string &what)
{
    SimConfig cfg;
    std::string blob;
    SimResults uninterrupted;
    {
        Simulator sim(cfg, pf);
        auto owner = make();
        TraceSource &src = *owner;
        ASSERT_TRUE(sim.runWarm(src, kWarm).ok());
        StatusOr<std::string> b = sim.serializeCheckpoint(src);
        ASSERT_TRUE(b.ok()) << b.status().toString();
        blob = b.take();
        StatusOr<SimResults> r = sim.runMeasure(src, kMeasure);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        uninterrupted = r.take();
    }
    Simulator sim(cfg, pf);
    auto owner = make();
    TraceSource &src = *owner;
    ASSERT_TRUE(sim.restoreCheckpoint(blob, src).ok());
    StatusOr<SimResults> r = sim.runMeasure(src, kMeasure);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value(), uninterrupted) << what;
}

/** The trace-fault plan of the robustness tests. */
FaultPlan
traceFaultPlan()
{
    FaultPlan plan;
    plan.traceBitflip = true;
    plan.traceShortRead = true;
    plan.seed = 7;
    plan.rate = 2e-3;
    return plan;
}

/** A synthetic source wrapped in the fault injector, owning both. */
struct FaultySource
{
    std::unique_ptr<SyntheticWorkload> inner =
        makeWorkload("database", 42);
    FaultInjectingTraceSource faulty{*inner, traceFaultPlan()};

    operator TraceSource &() { return faulty; }
    FaultInjectingTraceSource *operator->() { return &faulty; }
};

} // namespace

TEST(CkptRoundtrip, FileTraceReplayRestoresBitIdentical)
{
    // The warm window ends mid-chunk, so the checkpoint must carry the
    // decoded chunk the core was lending from.
    const std::string v2 = tempPath("ckpt_replay_v2.trc");
    const std::string v1 = tempPath("ckpt_replay_v1.trc");
    {
        auto gen = makeWorkload("database");
        auto w = TraceFileWriter::open(v2);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        ASSERT_TRUE(w.value()->capture(*gen, kWarm + kMeasure).ok());
        ASSERT_TRUE(w.value()->close().ok());
    }
    {
        // The same records as a v1 file: the v2 header's magic,
        // version and record size, then every chunk's payload with its
        // 8-byte chunk header dropped.
        StatusOr<std::string> bytes = ckpt::readFile(v2);
        ASSERT_TRUE(bytes.ok());
        const std::string &b = bytes.value();
        std::string out = b.substr(0, 16);
        out[7] = '1';
        out[8] = 1;
        for (std::size_t at = 24; at + 8 <= b.size();) {
            std::uint32_t count = 0;
            std::memcpy(&count, b.data() + at, 4);
            out += b.substr(at + 8, std::size_t{count} * 32);
            at += 8 + std::size_t{count} * 32;
        }
        ASSERT_EQ(out.size(), 16 + (kWarm + kMeasure) * 32);
        ASSERT_TRUE(ckpt::atomicWriteFile(v1, out).ok());
    }

    PrefetcherParams pf;
    pf.name = "ebcp";
    for (const std::string &path : {v2, v1}) {
        SCOPED_TRACE(path);
        unsigned version = 0;
        expectSourceRoundTrip(
            pf,
            [&path, &version] {
                auto src = FileTraceSource::open(path, false);
                EXPECT_TRUE(src.ok()) << src.status().toString();
                version = src.value()->formatVersion();
                return src.take();
            },
            path);
        EXPECT_EQ(version, path == v2 ? 2u : 1u);
    }
    std::remove(v2.c_str());
    std::remove(v1.c_str());
}

TEST(CkptRoundtrip, FaultInjectedRunRestoresBitIdentical)
{
    PrefetcherParams pf;
    pf.name = "ebcp";
    expectSourceRoundTrip(
        pf, [] { return std::make_unique<FaultySource>(); },
        "fault-injected database");
}

TEST(CkptRoundtrip, FaultCursorKeepsUnconsumedRecords)
{
    // Faulted records lent but not yet consumed are part of the
    // cursor: a restored injector hands out exactly those records
    // next, then continues the fault sequence where it left off.
    FaultySource a;
    TraceRecord rec;
    for (int i = 0; i < 5'000; ++i)
        ASSERT_TRUE(a->next(rec));
    const TraceRecord *span = nullptr;
    ASSERT_EQ(a->peekSpan(&span, 500), 500u);
    a->consumeSpan(100);

    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        a->ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
    }
    FaultySource b;
    {
        ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                                   bytes.size());
        b->ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
        EXPECT_EQ(ar.remaining(), 0u);
    }
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord ra, rb;
        ASSERT_TRUE(a->next(ra));
        ASSERT_TRUE(b->next(rb));
        ASSERT_EQ(ra.pc, rb.pc) << i;
        ASSERT_EQ(ra.addr, rb.addr) << i;
        ASSERT_EQ(ra.target, rb.target) << i;
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op)) << i;
        ASSERT_EQ(ra.dstReg, rb.dstReg) << i;
        ASSERT_EQ(ra.srcReg0, rb.srcReg0) << i;
        ASSERT_EQ(ra.srcReg1, rb.srcReg1) << i;
    }
    EXPECT_EQ(a->bitflipsInjected(), b->bitflipsInjected());
    EXPECT_EQ(a->recordsDropped(), b->recordsDropped());
    EXPECT_GT(a->bitflipsInjected(), 0u);
}

// ---------------------------------------------------------------------
// Corrupted-checkpoint corpus.
// ---------------------------------------------------------------------

TEST(CkptCorpus, ForgedRobCursorIsCodedCorruption)
{
    // A ring cursor indexes its ring on the very next instruction, so
    // one at or past the ring size must fail the load, not read wild.
    // Forge it in a real core payload: the ROB cursor follows the
    // register scoreboard and the four fixed-size rings (each a u64
    // count plus one u64 per entry).
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    ASSERT_TRUE(sim.runWarm(*src, 10'000).ok());
    std::string payload;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(payload);
        sim.core().ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
    }

    const CoreConfig &cc = cfg.core;
    std::size_t at = 8 * std::size_t{NumArchRegs};
    for (unsigned n : {cc.robEntries, cc.issueQueueEntries,
                       cc.storeBufferEntries, cc.loadBufferEntries})
        at += 8 + 8 * std::size_t{n};
    ASSERT_LE(at + 8, payload.size());
    auto cursorAt = [&] {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = v << 8 | static_cast<unsigned char>(payload[at + i]);
        return v;
    };
    ASSERT_LT(cursorAt(), cc.robEntries) << "not the ROB cursor";

    for (std::uint64_t forged :
         {std::uint64_t{cc.robEntries}, std::uint64_t{1} << 62}) {
        for (int i = 0; i < 8; ++i)
            payload[at + i] = static_cast<char>(forged >> (8 * i));
        Simulator fresh(cfg, pf);
        ckpt::Archiver ar =
            ckpt::Archiver::loader(payload.data(), payload.size());
        fresh.core().ckpt(ar);
        ASSERT_FALSE(ar.ok()) << forged;
        EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
        EXPECT_NE(ar.status().message().find("ROB cursor"),
                  std::string::npos)
            << ar.status().message();
    }
}

TEST(CkptCorpus, EveryFaultKindYieldsCodedStatus)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    const WarmRun warm = warmAndMeasure(cfg, pf, "database");
    ASSERT_FALSE(warm.blob.empty());

    for (CkptFaultKind kind : kCkptFaultKinds) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(std::string(ckptFaultKindName(kind)) +
                         " seed " + std::to_string(seed));
            std::string damaged = warm.blob;
            injectCkptFault(damaged, kind, seed);
            ASSERT_NE(damaged, warm.blob)
                << "fault injection was not material";

            Simulator sim(cfg, pf);
            auto src = makeWorkload("database");
            Status s = sim.restoreCheckpoint(damaged, *src);
            ASSERT_FALSE(s.ok());
            EXPECT_TRUE(s.code() == StatusCode::Corruption ||
                        s.code() == StatusCode::InvalidArgument)
                << s.toString();
        }
    }
}

TEST(CkptCorpus, FileFaultInjectionRoundTrip)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    const std::string path = tempPath("ckpt_corpus_file.ckpt");

    Simulator sim(cfg, pf);
    auto src = makeWorkload("specjas");
    ASSERT_TRUE(sim.runWarm(*src, kWarm).ok());
    ASSERT_TRUE(sim.saveCheckpoint(path, *src).ok());

    ASSERT_TRUE(
        injectCkptFaultFile(path, CkptFaultKind::CrcFlip, 3).ok());

    Simulator fresh(cfg, pf);
    auto src2 = makeWorkload("specjas");
    Status s = fresh.restoreCheckpointFile(path, *src2);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.code() == StatusCode::Corruption ||
                s.code() == StatusCode::InvalidArgument)
        << s.toString();
    std::remove(path.c_str());
}

TEST(CkptCorpus, DamagedBufferNeverPanicsAcrossWideSeedRange)
{
    // Broader fuzz: many seeds per kind against a small checkpoint.
    // The assertion is simply "coded status, no crash".
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    ASSERT_TRUE(sim.runWarm(*src, 10'000).ok());
    StatusOr<std::string> blob = sim.serializeCheckpoint(*src);
    ASSERT_TRUE(blob.ok());

    for (CkptFaultKind kind : kCkptFaultKinds) {
        for (std::uint64_t seed = 1; seed <= 25; ++seed) {
            std::string damaged = blob.value();
            injectCkptFault(damaged, kind, seed);
            Simulator victim(cfg, pf);
            auto vsrc = makeWorkload("database");
            Status s = victim.restoreCheckpoint(damaged, *vsrc);
            EXPECT_FALSE(s.ok())
                << ckptFaultKindName(kind) << " seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------
// Descriptor fingerprints.
// ---------------------------------------------------------------------

TEST(CkptFingerprint, TracksResultShapingFieldsOnly)
{
    RunDesc d;
    d.workload = "database";
    d.pf.name = "ebcp";

    RunDesc same = d;
    same.label = "display-only"; // labels must not split the key
    EXPECT_EQ(warmFingerprint(d), warmFingerprint(same));

    // The warm state is shared when only measure differs.
    RunDesc other = d;
    other.scale.measure *= 2;
    EXPECT_EQ(warmFingerprint(d), warmFingerprint(other));

    RunDesc warm_differs = d;
    warm_differs.scale.warm *= 2;
    EXPECT_NE(warmFingerprint(d), warmFingerprint(warm_differs));

    RunDesc cfg_differs = d;
    cfg_differs.pf.ebcp.prefetchDegree += 1;
    EXPECT_NE(warmFingerprint(d), warmFingerprint(cfg_differs));
}
