#include "trace/trace_file.hh"

#include <cstring>

#include "ckpt/archiver.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace ebcp
{

namespace
{

constexpr char MagicV1[8] = {'E', 'B', 'C', 'P', 'T', 'R', 'C', '1'};
constexpr char MagicV2[8] = {'E', 'B', 'C', 'P', 'T', 'R', 'C', '2'};

/** On-disk record layout (little-endian, fixed 32 bytes). */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint64_t target;
    std::uint8_t op;
    std::uint8_t dstReg;
    std::uint8_t srcReg0;
    std::uint8_t srcReg1;
    std::uint8_t taken;
    std::uint8_t pad[3];
};

static_assert(sizeof(DiskRecord) == 32, "trace record layout");

/** Per-chunk prefix: record count + CRC-32 of the packed records. */
struct ChunkHeader
{
    std::uint32_t count;
    std::uint32_t crc;
};

static_assert(sizeof(ChunkHeader) == 8, "chunk header layout");

/** Sanity bound on chunk_records: a chunk stays well under 32MB. */
constexpr unsigned MaxChunkRecords = 1u << 20;

/** Records decoded per refill of a v1 (chunkless) stream. */
constexpr std::size_t kV1BlockRecords = 1024;

DiskRecord
pack(const TraceRecord &r)
{
    DiskRecord d{};
    d.pc = r.pc;
    d.addr = r.addr;
    d.target = r.target;
    d.op = static_cast<std::uint8_t>(r.op);
    d.dstReg = r.dstReg;
    d.srcReg0 = r.srcReg0;
    d.srcReg1 = r.srcReg1;
    d.taken = r.taken ? 1 : 0;
    return d;
}

TraceRecord
unpack(const DiskRecord &d)
{
    TraceRecord r;
    r.pc = d.pc;
    r.addr = d.addr;
    r.target = d.target;
    r.op = static_cast<OpClass>(d.op);
    r.dstReg = d.dstReg;
    r.srcReg0 = d.srcReg0;
    r.srcReg1 = d.srcReg1;
    r.taken = d.taken != 0;
    return r;
}

} // namespace

StatusOr<TraceReadPolicy>
traceReadPolicyFromName(const std::string &name)
{
    if (name == "strict")
        return TraceReadPolicy::Strict;
    if (name == "skip-corrupt")
        return TraceReadPolicy::SkipCorrupt;
    if (name == "stop-at-corrupt")
        return TraceReadPolicy::StopAtCorrupt;
    return invalidArgError("unknown trace read policy '", name,
                           "' (expected strict/skip-corrupt/"
                           "stop-at-corrupt)");
}

// ---------------------------------------------------------------------
// TraceFileWriter
// ---------------------------------------------------------------------

StatusOr<std::unique_ptr<TraceFileWriter>>
TraceFileWriter::open(const std::string &path, unsigned chunk_records)
{
    if (chunk_records == 0 || chunk_records > MaxChunkRecords)
        return invalidArgError("trace chunk size ", chunk_records,
                               " out of range [1, ", MaxChunkRecords,
                               "]");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return ioError("cannot open trace file '", path,
                       "' for writing: ", errnoString());

    unsigned char header[24];
    std::memcpy(header, MagicV2, 8);
    const std::uint32_t version = 2;
    const std::uint32_t rec_size = sizeof(DiskRecord);
    const std::uint32_t chunk32 = chunk_records;
    std::memcpy(header + 8, &version, 4);
    std::memcpy(header + 12, &rec_size, 4);
    std::memcpy(header + 16, &chunk32, 4);
    const std::uint32_t hcrc = crc32(header, 20);
    std::memcpy(header + 20, &hcrc, 4);
    if (std::fwrite(header, sizeof(header), 1, f) != 1) {
        Status err = ioError("cannot write trace header to '", path,
                             "': ", errnoString());
        std::fclose(f);
        return err;
    }

    return std::unique_ptr<TraceFileWriter>(
        new TraceFileWriter(f, path, chunk_records));
}

TraceFileWriter::~TraceFileWriter()
{
    Status s = close();
    if (!s.ok())
        warn("closing trace file: ", s.toString());
}

Status
TraceFileWriter::flushChunk()
{
    if (chunk_.empty())
        return Status();
    ChunkHeader h;
    h.count =
        static_cast<std::uint32_t>(chunk_.size() / sizeof(DiskRecord));
    h.crc = crc32(chunk_.data(), chunk_.size());
    if (std::fwrite(&h, sizeof(h), 1, file_) != 1 ||
        std::fwrite(chunk_.data(), chunk_.size(), 1, file_) != 1)
        return ioError("short write to trace file '", path_,
                       "': ", errnoString());
    chunk_.clear();
    return Status();
}

Status
TraceFileWriter::write(const TraceRecord &rec)
{
    if (!file_)
        return ioError("write to a closed trace file '", path_, "'");
    const DiskRecord d = pack(rec);
    const auto *bytes = reinterpret_cast<const unsigned char *>(&d);
    chunk_.insert(chunk_.end(), bytes, bytes + sizeof(d));
    ++written_;
    if (chunk_.size() >= chunkRecords_ * sizeof(DiskRecord))
        return flushChunk();
    return Status();
}

Status
TraceFileWriter::capture(TraceSource &src, std::uint64_t count)
{
    TraceRecord rec;
    for (std::uint64_t i = 0; i < count && src.next(rec); ++i) {
        Status s = write(rec);
        if (!s.ok())
            return s;
    }
    return Status();
}

Status
TraceFileWriter::close()
{
    if (!file_)
        return Status();
    Status s = flushChunk();
    if (s.ok() && std::fflush(file_) != 0)
        s = ioError("cannot flush trace file '", path_,
                    "': ", errnoString());
    if (std::fclose(file_) != 0 && s.ok())
        s = ioError("cannot close trace file '", path_,
                    "': ", errnoString());
    file_ = nullptr;
    return s;
}

// ---------------------------------------------------------------------
// FileTraceSource
// ---------------------------------------------------------------------

StatusOr<std::unique_ptr<FileTraceSource>>
FileTraceSource::open(const std::string &path, bool loop,
                      TraceReadPolicy policy)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return ioError("cannot open trace file '", path,
                       "': ", errnoString());
    std::unique_ptr<FileTraceSource> src(
        new FileTraceSource(f, path, loop, policy));
    Status s = src->readHeader();
    if (!s.ok())
        return s.withContext("trace file '" + path + "'");
    return src;
}

Status
FileTraceSource::readHeader()
{
    char magic[8];
    if (std::fread(magic, sizeof(magic), 1, file_) != 1)
        return corruptionError("truncated header (not a trace file?)");
    if (std::memcmp(magic, MagicV2, sizeof(MagicV2)) == 0)
        version_ = 2;
    else if (std::memcmp(magic, MagicV1, sizeof(MagicV1)) == 0)
        version_ = 1;
    else
        return corruptionError("bad magic (not an EBCP trace file)");

    std::uint32_t version = 0;
    std::uint32_t rec_size = 0;
    if (std::fread(&version, sizeof(version), 1, file_) != 1 ||
        std::fread(&rec_size, sizeof(rec_size), 1, file_) != 1)
        return corruptionError("truncated header");
    if (version != version_)
        return corruptionError("header version field ", version,
                               " contradicts magic (v", version_, ")");
    if (rec_size != sizeof(DiskRecord))
        return corruptionError("record size ", rec_size,
                               " (expected ", sizeof(DiskRecord), ")");

    if (version_ == 2) {
        std::uint32_t chunk32 = 0;
        std::uint32_t hcrc = 0;
        if (std::fread(&chunk32, sizeof(chunk32), 1, file_) != 1 ||
            std::fread(&hcrc, sizeof(hcrc), 1, file_) != 1)
            return corruptionError("truncated header");
        unsigned char header[20];
        std::memcpy(header, MagicV2, 8);
        std::memcpy(header + 8, &version, 4);
        std::memcpy(header + 12, &rec_size, 4);
        std::memcpy(header + 16, &chunk32, 4);
        if (crc32(header, sizeof(header)) != hcrc)
            return corruptionError("header CRC mismatch");
        if (chunk32 == 0 || chunk32 > MaxChunkRecords)
            return corruptionError("chunk size ", chunk32,
                                   " out of range");
        chunkRecords_ = chunk32;
    }

    dataStart_ = std::ftell(file_);
    return Status();
}

FileTraceSource::~FileTraceSource()
{
    if (file_)
        std::fclose(file_);
}

bool
FileTraceSource::onCorrupt(const std::string &what)
{
    ++corruptChunks_;
    switch (policy_) {
      case TraceReadPolicy::Strict:
        status_ = corruptionError("trace file '", path_, "': ", what);
        ended_ = true;
        return false;
      case TraceReadPolicy::SkipCorrupt:
        return true;
      case TraceReadPolicy::StopAtCorrupt:
        ended_ = true;
        return false;
    }
    return false;
}

bool
FileTraceSource::fillFromChunk()
{
    // Scan chunks until one passes its integrity check (or the policy
    // says stop). A corrupt chunk *header* cannot be skipped -- without
    // a trustworthy count there is no next-chunk boundary -- so it
    // ends the stream under every policy (an error under Strict).
    while (true) {
        ChunkHeader h;
        const std::size_t got =
            std::fread(&h, 1, sizeof(h), file_);
        if (got == 0)
            return false; // clean end of data
        if (got < sizeof(h)) {
            ++truncatedTails_;
            if (policy_ == TraceReadPolicy::Strict) {
                status_ = corruptionError("trace file '", path_,
                                          "': truncated chunk header");
                ended_ = true;
            }
            return false;
        }
        if (h.count == 0 || h.count > chunkRecords_) {
            // Unskippable even under SkipCorrupt: without a
            // trustworthy count there is no next-chunk boundary to
            // resync to, so the stream ends here under every policy.
            onCorrupt(logFormat("implausible chunk count ", h.count));
            ended_ = true;
            return false;
        }

        payload_.resize(static_cast<std::size_t>(h.count) *
                        sizeof(DiskRecord));
        if (std::fread(payload_.data(), 1, payload_.size(), file_) !=
            payload_.size()) {
            ++truncatedTails_;
            if (policy_ == TraceReadPolicy::Strict) {
                status_ = corruptionError("trace file '", path_,
                                          "': truncated chunk payload");
                ended_ = true;
            }
            return false;
        }
        if (crc32(payload_.data(), payload_.size()) != h.crc) {
            if (!onCorrupt("chunk CRC mismatch"))
                return false;
            recordsSkipped_ += h.count;
            continue; // SkipCorrupt: try the next chunk
        }

        ++chunksRead_;
        decodePayload(h.count);
        return true;
    }
}

bool
FileTraceSource::fillV1()
{
    // v1 has no chunks: read a block of whole records. A partial
    // record at EOF is the only detectable damage; it is left unread
    // behind the whole records before it, so it is reported once
    // they have been consumed.
    payload_.resize(kV1BlockRecords * sizeof(DiskRecord));
    const std::size_t got =
        std::fread(payload_.data(), 1, payload_.size(), file_);
    const std::size_t whole = got / sizeof(DiskRecord);
    const std::size_t tail = got % sizeof(DiskRecord);
    if (whole == 0) {
        if (tail != 0) {
            ++truncatedTails_;
            if (policy_ == TraceReadPolicy::Strict) {
                status_ = corruptionError("trace file '", path_,
                                          "': truncated record");
                ended_ = true;
            }
        }
        return false;
    }
    if (tail != 0)
        std::fseek(file_, -static_cast<long>(tail), SEEK_CUR);
    decodePayload(whole);
    return true;
}

void
FileTraceSource::decodePayload(std::size_t count)
{
    buffer_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        DiskRecord d;
        std::memcpy(&d, payload_.data() + i * sizeof(DiskRecord),
                    sizeof(d));
        buffer_[i] = unpack(d);
        if (sanitizeRecord(buffer_[i]))
            ++recordsSanitized_;
    }
    bufferPos_ = 0;
}

bool
FileTraceSource::refill()
{
    if (ended_)
        return false;

    for (int pass = 0; pass < 2; ++pass) {
        if (version_ == 1 ? fillV1() : fillFromChunk())
            return true;
        if (ended_ || !loop_)
            return false;
        // End of data: wrap to the first record, as the generator
        // sources effectively do.
        std::fseek(file_, dataStart_, SEEK_SET);
        buffer_.clear();
        bufferPos_ = 0;
        ++loops_;
    }
    return false; // empty (or fully corrupt) trace: nothing to loop
}

std::size_t
FileTraceSource::peekSpan(const TraceRecord **out, std::size_t max)
{
    if (bufferPos_ == buffer_.size() && !refill())
        return 0;
    *out = buffer_.data() + bufferPos_;
    const std::size_t avail = buffer_.size() - bufferPos_;
    return avail < max ? avail : max;
}

void
FileTraceSource::consumeSpan(std::size_t n)
{
    bufferPos_ += n;
    read_ += n;
}

void
FileTraceSource::ckpt(ckpt::Archiver &ar)
{
    if (!status_.ok()) {
        ar.fail(status_.withContext("trace source is unhealthy; its "
                                    "cursor cannot be checkpointed"));
        return;
    }
    std::uint64_t offset =
        ar.saving() ? static_cast<std::uint64_t>(std::ftell(file_)) : 0;
    ar.u64(offset);
    if (!ar.saving() && ar.ok() &&
        std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
        ar.fail(ioError("trace file '", path_, "': seek to checkpointed "
                        "offset ", offset, " failed"));
        return;
    }
    ar.u64(read_);
    ar.boolean(ended_);
    ar.vec(buffer_, ckptRecord);
    ar.sz(bufferPos_);
    if (!ar.saving() && ar.ok() && bufferPos_ > buffer_.size()) {
        ar.fail(corruptionError("trace cursor points past the buffered "
                                "chunk (", bufferPos_, " > ",
                                buffer_.size(), ")"));
        return;
    }
    stats_.ckpt(ar);
}

void
FileTraceSource::reset()
{
    std::fseek(file_, dataStart_, SEEK_SET);
    buffer_.clear();
    bufferPos_ = 0;
    read_ = 0;
    if (policy_ != TraceReadPolicy::Strict || status_.ok())
        ended_ = false;
}

} // namespace ebcp
