/**
 * @file
 * Binary trace record/replay with integrity checking.
 *
 * The paper's methodology is trace-driven; this pair of classes lets
 * users capture a synthetic workload (or convert an external trace,
 * e.g. from a ChampSim-style tracer) into this simulator's format and
 * replay it deterministically.
 *
 * Format v2 (written by TraceFileWriter):
 *
 *     [ 8B magic "EBCPTRC2" ][u32 version][u32 rec_size]
 *     [u32 chunk_records][u32 header_crc]
 *     chunk*: [u32 count][u32 payload_crc][count * rec_size bytes]
 *
 * header_crc covers the 20 bytes before it; payload_crc covers the
 * chunk's records. Fixed-size little-endian records. The final chunk
 * may hold fewer than chunk_records records.
 *
 * Format v1 ("EBCPTRC1" + version + record size, then raw records) is
 * still readable; it simply has no integrity data, so only truncated
 * tails are detectable.
 *
 * Since trace files are user input (possibly converted from untrusted
 * sources), every open/read/write path reports failures as Status
 * instead of exiting, and the reader's handling of corrupt chunks is
 * selectable via TraceReadPolicy.
 */

#ifndef EBCP_TRACE_TRACE_FILE_HH
#define EBCP_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "stats/group.hh"
#include "util/status.hh"

namespace ebcp
{

/** How FileTraceSource reacts to a failed chunk integrity check. */
enum class TraceReadPolicy
{
    Strict,        //!< corruption is an error; reading stops, the
                   //!< source's status() turns non-ok
    SkipCorrupt,   //!< count and skip the bad chunk, keep reading
    StopAtCorrupt, //!< count it and treat it as end-of-trace
};

/** Parse "strict" / "skip-corrupt" / "stop-at-corrupt". */
StatusOr<TraceReadPolicy> traceReadPolicyFromName(const std::string &name);

/** Writes TraceRecords to a v2 trace file. */
class TraceFileWriter
{
  public:
    /**
     * Open @p path for writing and emit the v2 header.
     * @param chunk_records records per CRC-protected chunk
     */
    static StatusOr<std::unique_ptr<TraceFileWriter>>
    open(const std::string &path, unsigned chunk_records = 1024);

    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record (buffered until a chunk fills). */
    Status write(const TraceRecord &rec);

    /** Capture @p count records from @p src. */
    Status capture(TraceSource &src, std::uint64_t count);

    std::uint64_t recordsWritten() const { return written_; }

    /**
     * Flush the partial chunk and close, verifying every byte reached
     * the OS (a short write on a full disk must not pass silently).
     * Also invoked by the destructor, which warns on error.
     */
    Status close();

  private:
    TraceFileWriter(std::FILE *file, std::string path,
                    unsigned chunk_records)
        : file_(file), path_(std::move(path)),
          chunkRecords_(chunk_records)
    {}

    Status flushChunk();

    std::FILE *file_ = nullptr;
    std::string path_;
    unsigned chunkRecords_;
    std::vector<unsigned char> chunk_; //!< packed records of the
                                       //!< chunk being built
    std::uint64_t written_ = 0;
};

/** Replays a trace file as a TraceSource. */
class FileTraceSource : public TraceSource
{
  public:
    /**
     * Open and validate @p path (magic, version, record size, header
     * CRC for v2).
     *
     * @param loop restart from the beginning at end-of-file (so the
     *        file can feed arbitrarily long runs, as the generator
     *        sources do)
     * @param policy reaction to corrupt chunks while reading
     */
    static StatusOr<std::unique_ptr<FileTraceSource>>
    open(const std::string &path, bool loop = true,
         TraceReadPolicy policy = TraceReadPolicy::Strict);

    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    /** Lend the decoded records of the current chunk (v2) or block
     * of records (v1) in place. */
    std::size_t peekSpan(const TraceRecord **out,
                         std::size_t max) override;
    void consumeSpan(std::size_t n) override;
    void reset() override;

    /**
     * Serialize or restore the replay cursor: the file offset, the
     * decoded records of the current chunk, and the read counters.
     * Fails (instead of saving a lie) if the source has already gone
     * unhealthy -- a corrupt stream has no trustworthy position.
     */
    void ckpt(ckpt::Archiver &ar) override;

    /**
     * Ok while reading is healthy. Under the Strict policy this turns
     * into a Corruption/IoError status when reading hits a bad chunk
     * (peekSpan() then returns 0); callers at the boundary check it
     * after the run.
     */
    const Status &status() const { return status_; }

    std::uint64_t recordsRead() const { return read_; }

    /** Corruption / recovery counters (also in the stats group). */
    std::uint64_t corruptChunks() const
    {
        return corruptChunks_.value();
    }
    std::uint64_t truncatedTails() const
    {
        return truncatedTails_.value();
    }
    std::uint64_t recordsSkipped() const
    {
        return recordsSkipped_.value();
    }
    std::uint64_t recordsSanitized() const
    {
        return recordsSanitized_.value();
    }

    unsigned formatVersion() const { return version_; }

    StatGroup &stats() { return stats_; }

  private:
    FileTraceSource(std::FILE *file, std::string path, bool loop,
                    TraceReadPolicy policy)
        : file_(file), path_(std::move(path)), loop_(loop),
          policy_(policy)
    {
        stats_.add(chunksRead_);
        stats_.add(corruptChunks_);
        stats_.add(truncatedTails_);
        stats_.add(recordsSkipped_);
        stats_.add(recordsSanitized_);
        stats_.add(loops_);
    }

    Status readHeader();

    /** Refill buffer_ from the next chunk, wrapping at end-of-data
     * when looping; false when no records remain. */
    bool refill();

    /** Refill buffer_ from the next v2 chunk; false at end-of-data. */
    bool fillFromChunk();

    /** Refill buffer_ from the next block of v1 records; false at
     * end-of-data. */
    bool fillV1();

    /** Unpack @p count packed records from payload_ into buffer_. */
    void decodePayload(std::size_t count);

    /** React to a bad chunk per policy_. @return true to keep reading. */
    bool onCorrupt(const std::string &what);

    std::FILE *file_ = nullptr;
    std::string path_;
    bool loop_;
    TraceReadPolicy policy_;
    unsigned version_ = 2;
    unsigned chunkRecords_ = 0;
    std::uint64_t read_ = 0;
    long dataStart_ = 0;
    bool ended_ = false; //!< reached a terminal condition (error /
                         //!< stop-at-corrupt / unrecoverable header)
    Status status_;

    std::vector<TraceRecord> buffer_; //!< records of the current chunk
    std::size_t bufferPos_ = 0;
    //! Packed bytes of the chunk being read; sized by the first chunk
    //! and reused for every later one.
    std::vector<unsigned char> payload_;

    StatGroup stats_{"trace_source"};
    Scalar chunksRead_{"chunks_read", "CRC-verified chunks delivered"};
    Scalar corruptChunks_{"corrupt_chunks",
                          "chunks failing the CRC / header check"};
    Scalar truncatedTails_{"truncated_tails",
                           "incomplete chunks or records at EOF"};
    Scalar recordsSkipped_{"records_skipped",
                           "records lost to skipped corrupt chunks"};
    Scalar recordsSanitized_{"records_sanitized",
                             "records with out-of-range fields clamped"};
    Scalar loops_{"loops", "times the source wrapped to the start"};
};

} // namespace ebcp

#endif // EBCP_TRACE_TRACE_FILE_HH
