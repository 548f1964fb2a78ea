/**
 * @file
 * Tests for trace record/replay: round-trip fidelity, looping, reset,
 * header validation, and the corrupted-trace corpus -- damaged files
 * must produce a clean error or a counted skip per policy, never a
 * crash or a hang.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/trace_file.hh"
#include "trace/workloads.hh"
#include "util/crc32.hh"

#include "temp_path.hh"

using namespace ebcp;

namespace
{

/** Temp file path unique to this test process. */
std::string
tmpPath(const std::string &tag)
{
    return ebcp_test::tempPath("trace_" + tag + ".trc");
}

/** Open a writer, asserting success. */
std::unique_ptr<TraceFileWriter>
openWriter(const std::string &path, unsigned chunk_records = 1024)
{
    auto w = TraceFileWriter::open(path, chunk_records);
    EXPECT_TRUE(w.ok()) << w.status().toString();
    return w.take();
}

/** Open a reader, asserting success. */
std::unique_ptr<FileTraceSource>
openSource(const std::string &path, bool loop,
           TraceReadPolicy policy = TraceReadPolicy::Strict)
{
    auto s = FileTraceSource::open(path, loop, policy);
    EXPECT_TRUE(s.ok()) << s.status().toString();
    return s.take();
}

/** Write a valid trace of @p records database records. */
void
writeTrace(const std::string &path, std::uint64_t records,
           unsigned chunk_records = 1024)
{
    auto w = makeWorkload("database");
    auto writer = openWriter(path, chunk_records);
    ASSERT_TRUE(writer->capture(*w, records).ok());
    ASSERT_TRUE(writer->close().ok());
}

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Count records until the source ends (bounded to catch hangs). */
std::uint64_t
drain(FileTraceSource &src, std::uint64_t bound = 10'000'000)
{
    TraceRecord rec;
    std::uint64_t n = 0;
    while (n < bound && src.next(rec))
        ++n;
    EXPECT_LT(n, bound) << "source never ended (hang)";
    return n;
}

} // namespace

TEST(TraceFileTest, RoundTripsRecords)
{
    const std::string path = tmpPath("roundtrip");
    auto w = makeWorkload("database");

    std::vector<TraceRecord> golden;
    {
        auto writer = openWriter(path);
        TraceRecord rec;
        for (int i = 0; i < 1000; ++i) {
            w->next(rec);
            golden.push_back(rec);
            ASSERT_TRUE(writer->write(rec).ok());
        }
        ASSERT_TRUE(writer->close().ok());
    }

    auto src = openSource(path, false);
    TraceRecord rec;
    for (const TraceRecord &g : golden) {
        ASSERT_TRUE(src->next(rec));
        EXPECT_EQ(rec.pc, g.pc);
        EXPECT_EQ(rec.addr, g.addr);
        EXPECT_EQ(rec.target, g.target);
        EXPECT_EQ(static_cast<int>(rec.op), static_cast<int>(g.op));
        EXPECT_EQ(rec.dstReg, g.dstReg);
        EXPECT_EQ(rec.srcReg0, g.srcReg0);
        EXPECT_EQ(rec.srcReg1, g.srcReg1);
        EXPECT_EQ(rec.taken, g.taken);
    }
    EXPECT_FALSE(src->next(rec));
    EXPECT_TRUE(src->status().ok());
    EXPECT_EQ(src->formatVersion(), 2u);
    std::remove(path.c_str());
}

TEST(TraceFileTest, CaptureHelper)
{
    const std::string path = tmpPath("capture");
    writeTrace(path, 500);
    auto src = openSource(path, false);
    EXPECT_EQ(drain(*src), 500u);
    std::remove(path.c_str());
}

TEST(TraceFileTest, LoopingWrapsAround)
{
    const std::string path = tmpPath("loop");
    auto w = makeWorkload("specjbb");
    TraceRecord first;
    {
        auto writer = openWriter(path);
        TraceRecord rec;
        w->next(rec);
        first = rec;
        ASSERT_TRUE(writer->write(rec).ok());
        for (int i = 0; i < 9; ++i) {
            w->next(rec);
            ASSERT_TRUE(writer->write(rec).ok());
        }
        ASSERT_TRUE(writer->close().ok());
    }
    auto src = openSource(path, true);
    TraceRecord rec;
    for (int i = 0; i < 25; ++i)
        ASSERT_TRUE(src->next(rec));
    // Read 25 of 10: wrapped twice; record 21 == record 1.
    EXPECT_EQ(src->recordsRead(), 25u);
    src->reset();
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, first.pc);
    std::remove(path.c_str());
}

TEST(TraceFileTest, ResetRestarts)
{
    const std::string path = tmpPath("reset");
    writeTrace(path, 100);
    auto src = openSource(path, false);
    TraceRecord a, b;
    src->next(a);
    src->next(b);
    src->reset();
    TraceRecord c;
    src->next(c);
    EXPECT_EQ(c.pc, a.pc);
    EXPECT_EQ(src->recordsRead(), 1u);
    std::remove(path.c_str());
}

TEST(TraceFileTest, ReplayDrivesSimulatorDeterministically)
{
    const std::string path = tmpPath("sim");
    writeTrace(path, 200000);

    SimConfig cfg;
    PrefetcherParams p;
    p.name = "null";

    auto s1 = openSource(path, true);
    SimResults a = runOnce(cfg, p, *s1, 50000, 100000);
    auto s2 = openSource(path, true);
    SimResults b = runOnce(cfg, p, *s2, 50000, 100000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GT(a.cpi, 0.5);
    std::remove(path.c_str());
}

TEST(TraceFileTest, ReplayMatchesLiveGeneration)
{
    // A captured trace replayed through the simulator must produce
    // exactly the timing of the live generator.
    const std::string path = tmpPath("match");
    {
        auto w = makeWorkload("tpcw");
        auto writer = openWriter(path);
        ASSERT_TRUE(writer->capture(*w, 300000).ok());
        ASSERT_TRUE(writer->close().ok());
    }

    SimConfig cfg;
    PrefetcherParams p;
    p.name = "null";

    auto replay = openSource(path, false);
    SimResults from_file = runOnce(cfg, p, *replay, 100000, 150000);

    auto live = makeWorkload("tpcw");
    SimResults from_gen = runOnce(cfg, p, *live, 100000, 150000);

    EXPECT_EQ(from_file.cycles, from_gen.cycles);
    EXPECT_EQ(from_file.epochs, from_gen.epochs);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Corrupted-trace corpus: every damaged file yields a clean error or a
// counted skip, never a crash or an endless loop.
// ---------------------------------------------------------------------

TEST(TraceCorruptionTest, MissingFileIsIoError)
{
    auto s = FileTraceSource::open(tmpPath("does_not_exist"), false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::IoError);
}

TEST(TraceCorruptionTest, ZeroLengthFileIsCorruption)
{
    const std::string path = tmpPath("empty");
    writeAll(path, {});
    auto s = FileTraceSource::open(path, false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::Corruption);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, BadMagicIsCorruption)
{
    const std::string path = tmpPath("badmagic");
    writeTrace(path, 100);
    auto bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    auto s = FileTraceSource::open(path, false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::Corruption);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, TruncatedHeaderIsCorruption)
{
    const std::string path = tmpPath("shorthdr");
    writeTrace(path, 100);
    auto bytes = readAll(path);
    bytes.resize(12); // magic + half the fixed fields
    writeAll(path, bytes);
    auto s = FileTraceSource::open(path, false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::Corruption);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, WrongRecordSizeIsCorruption)
{
    const std::string path = tmpPath("recsize");
    writeTrace(path, 100);
    auto bytes = readAll(path);
    const std::uint32_t bad = 48;
    std::memcpy(bytes.data() + 12, &bad, 4);
    // Recompute the header CRC so only the record size is wrong.
    const std::uint32_t hcrc = crc32(bytes.data(), 20);
    std::memcpy(bytes.data() + 20, &hcrc, 4);
    writeAll(path, bytes);
    auto s = FileTraceSource::open(path, false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::Corruption);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, HeaderCrcMismatchIsCorruption)
{
    const std::string path = tmpPath("hdrcrc");
    writeTrace(path, 100);
    auto bytes = readAll(path);
    bytes[16] ^= 0x01; // chunk_records field; CRC now stale
    writeAll(path, bytes);
    auto s = FileTraceSource::open(path, false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::Corruption);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, PayloadBitFlipPerPolicy)
{
    // 3 chunks of 100; flip a bit in the middle chunk's payload.
    const std::string path = tmpPath("payload");
    writeTrace(path, 300, 100);
    auto bytes = readAll(path);
    const std::size_t chunk = 8 + 100 * 32; // header + payload
    const std::size_t mid_payload = 24 + chunk + 8 + 40;
    ASSERT_LT(mid_payload, bytes.size());
    bytes[mid_payload] ^= 0x10;
    writeAll(path, bytes);

    {
        auto src = openSource(path, false, TraceReadPolicy::Strict);
        EXPECT_EQ(drain(*src), 100u); // first chunk only
        EXPECT_FALSE(src->status().ok());
        EXPECT_EQ(src->status().code(), StatusCode::Corruption);
        EXPECT_EQ(src->corruptChunks(), 1u);
    }
    {
        auto src = openSource(path, false, TraceReadPolicy::SkipCorrupt);
        EXPECT_EQ(drain(*src), 200u); // middle chunk skipped
        EXPECT_TRUE(src->status().ok());
        EXPECT_EQ(src->corruptChunks(), 1u);
        EXPECT_EQ(src->recordsSkipped(), 100u);
    }
    {
        auto src =
            openSource(path, false, TraceReadPolicy::StopAtCorrupt);
        EXPECT_EQ(drain(*src), 100u); // clean stop at the bad chunk
        EXPECT_TRUE(src->status().ok());
        EXPECT_EQ(src->corruptChunks(), 1u);
    }
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, SkipCorruptLoopingDoesNotHang)
{
    // A looping source over a trace whose *only* chunk is corrupt must
    // terminate next() rather than spin forever looking for data.
    const std::string path = tmpPath("allbad");
    writeTrace(path, 100, 100);
    auto bytes = readAll(path);
    bytes[24 + 8 + 3] ^= 0x40; // sole chunk's payload
    writeAll(path, bytes);

    auto src = openSource(path, true, TraceReadPolicy::SkipCorrupt);
    TraceRecord rec;
    EXPECT_FALSE(src->next(rec));
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, TruncatedTailPerPolicy)
{
    // Chop the file mid-way through the final chunk's payload.
    const std::string path = tmpPath("tail");
    writeTrace(path, 250, 100); // chunks of 100/100/50
    auto bytes = readAll(path);
    bytes.resize(bytes.size() - 700);
    writeAll(path, bytes);

    {
        auto src = openSource(path, false, TraceReadPolicy::Strict);
        EXPECT_EQ(drain(*src), 200u);
        EXPECT_FALSE(src->status().ok());
        EXPECT_EQ(src->truncatedTails(), 1u);
    }
    {
        auto src = openSource(path, false, TraceReadPolicy::SkipCorrupt);
        EXPECT_EQ(drain(*src), 200u); // tail dropped, no error
        EXPECT_TRUE(src->status().ok());
        EXPECT_EQ(src->truncatedTails(), 1u);
    }
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, ImplausibleChunkCountEndsStream)
{
    // A corrupt chunk *header* is unskippable (no trustworthy next
    // boundary): the stream must end under every policy.
    const std::string path = tmpPath("count");
    writeTrace(path, 200, 100);
    auto bytes = readAll(path);
    const std::uint32_t huge = 0xffffffff;
    std::memcpy(bytes.data() + 24 + 8 + 100 * 32, &huge, 4);
    writeAll(path, bytes);

    auto src = openSource(path, false, TraceReadPolicy::SkipCorrupt);
    EXPECT_EQ(drain(*src), 100u);
    EXPECT_EQ(src->corruptChunks(), 1u);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, CorruptRecordsAreSanitized)
{
    // Force out-of-range op/register fields through a chunk whose CRC
    // is recomputed (an "undetectable" corruption): the reader clamps
    // them so the timing model never sees a wild index.
    const std::string path = tmpPath("sanitize");
    writeTrace(path, 100, 100);
    auto bytes = readAll(path);
    const std::size_t payload = 24 + 8;
    bytes[payload + 24] = 0xee; // op
    bytes[payload + 25] = 0xc8; // dstReg = 200 (>= NumArchRegs)
    const std::uint32_t crc = crc32(bytes.data() + payload, 100 * 32);
    std::memcpy(bytes.data() + 24 + 4, &crc, 4);
    writeAll(path, bytes);

    auto src = openSource(path, false, TraceReadPolicy::Strict);
    TraceRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_LE(static_cast<unsigned>(rec.op),
              static_cast<unsigned>(OpClass::Nop));
    EXPECT_TRUE(rec.dstReg < NumArchRegs || rec.dstReg == NoReg);
    EXPECT_GE(src->recordsSanitized(), 1u);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, V1FilesRemainReadable)
{
    // Hand-build a v1 file: magic + version + rec_size, raw records.
    const std::string path = tmpPath("v1");
    std::vector<unsigned char> bytes;
    const char magic[8] = {'E', 'B', 'C', 'P', 'T', 'R', 'C', '1'};
    bytes.insert(bytes.end(), magic, magic + 8);
    const std::uint32_t version = 1, rec_size = 32;
    bytes.resize(16);
    std::memcpy(bytes.data() + 8, &version, 4);
    std::memcpy(bytes.data() + 12, &rec_size, 4);
    for (int i = 0; i < 3; ++i) {
        unsigned char rec[32] = {};
        const std::uint64_t pc = 0x1000 + 4u * i;
        std::memcpy(rec, &pc, 8);
        rec[24] = 0; // op = IntAlu
        rec[25] = rec[26] = rec[27] = 0xff; // NoReg
        bytes.insert(bytes.end(), rec, rec + 32);
    }
    writeAll(path, bytes);

    auto src = openSource(path, false);
    EXPECT_EQ(src->formatVersion(), 1u);
    TraceRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x1000u);
    EXPECT_EQ(drain(*src), 2u);
    EXPECT_TRUE(src->status().ok());
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, V1TruncatedRecordDetected)
{
    const std::string path = tmpPath("v1tail");
    std::vector<unsigned char> bytes(16 + 32 + 10, 0);
    const char magic[8] = {'E', 'B', 'C', 'P', 'T', 'R', 'C', '1'};
    std::memcpy(bytes.data(), magic, 8);
    const std::uint32_t version = 1, rec_size = 32;
    std::memcpy(bytes.data() + 8, &version, 4);
    std::memcpy(bytes.data() + 12, &rec_size, 4);
    bytes[24 + 1] = 0xff;
    writeAll(path, bytes);

    auto src = openSource(path, false, TraceReadPolicy::Strict);
    EXPECT_EQ(drain(*src), 1u);
    EXPECT_FALSE(src->status().ok());
    EXPECT_EQ(src->truncatedTails(), 1u);
    std::remove(path.c_str());
}

TEST(TraceCorruptionTest, WriterRejectsBadChunkSize)
{
    auto w = TraceFileWriter::open(tmpPath("chunk0"), 0);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), StatusCode::InvalidArgument);
}

TEST(TraceCorruptionTest, PolicyNamesParse)
{
    EXPECT_TRUE(traceReadPolicyFromName("strict").ok());
    EXPECT_TRUE(traceReadPolicyFromName("skip-corrupt").ok());
    EXPECT_TRUE(traceReadPolicyFromName("stop-at-corrupt").ok());
    auto bad = traceReadPolicyFromName("lenient");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);
}
