/**
 * @file
 * Versioned, section-tagged checkpoint container.
 *
 * On-disk layout (all integers little-endian), mirroring the trace v2
 * file format's header + CRC discipline:
 *
 *   magic          8 bytes  "EBCPCKPT"
 *   version        u32      kCkptFormatVersion
 *   fingerprint    u64      configuration identity hash; a checkpoint
 *                           restored against a different SimConfig or
 *                           prefetcher setup is a coded error, not UB
 *   section count  u32
 *   header CRC     u32      CRC-32 of the fields above
 *   per section:
 *     name length  u32
 *     name         bytes
 *     payload len  u64
 *     payload CRC  u32      CRC-32 of the payload bytes
 *     payload      bytes
 *
 * All CRCs are verified eagerly when a checkpoint is opened, so a
 * flipped bit anywhere surfaces as StatusCode::Corruption before any
 * component state is touched. Writing goes through a temp file +
 * fsync + rename so a crash mid-save never leaves a torn file behind.
 */

#ifndef EBCP_CKPT_CHECKPOINT_HH
#define EBCP_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "ckpt/archiver.hh"
#include "util/status.hh"

namespace ebcp::ckpt
{

/** Bump whenever the serialized layout of any section changes; the
 * ckpt_lint CI stage enforces this. */
constexpr std::uint32_t kCkptFormatVersion = 7;

/** 8-byte file magic. */
constexpr char kCkptMagic[8] = {'E', 'B', 'C', 'P', 'C', 'K', 'P', 'T'};

/** What to do when a checkpoint fails validation during a sweep. */
enum class CkptPolicy
{
    Strict,  //!< propagate the coded error; the run fails
    Rebuild, //!< log a structured warning and fall back to a cold
             //!< warm-up; the sweep continues
};

/** Parse "strict" / "rebuild". */
StatusOr<CkptPolicy> ckptPolicyFromName(const std::string &name);

/** @return printable policy name. */
const char *ckptPolicyName(CkptPolicy policy);

/**
 * Assembles named sections and serializes them into the container
 * format. Sections are written in the order they are added; the order
 * is part of the format only in that readers look sections up by name.
 */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(std::uint64_t fingerprint)
        : fingerprint_(fingerprint)
    {}

    /**
     * Add a section: @p fill receives a save-mode Archiver bound to
     * the section payload. Returns the archiver's status (a failing
     * fill marks the whole writer failed).
     */
    Status section(const std::string &name,
                   const std::function<void(Archiver &)> &fill);

    /** Serialize every section into the container format. */
    StatusOr<std::string> serialize() const;

    /** Serialize and write to @p path atomically (temp file + fsync +
     * rename). */
    Status writeAtomic(const std::string &path) const;

  private:
    struct Section
    {
        std::string name;
        std::string payload;
    };

    std::uint64_t fingerprint_;
    std::deque<Section> sections_;
    Status status_;
};

/**
 * Parses and validates a serialized checkpoint, then hands out
 * load-mode Archivers per section. All header and payload CRCs are
 * verified up front by fromBuffer()/fromFile().
 */
class CheckpointReader
{
  public:
    /**
     * Parse @p buffer. @p expect_fingerprint must match the stored
     * fingerprint (InvalidArgument on mismatch -- the checkpoint was
     * taken under a different configuration).
     */
    static StatusOr<CheckpointReader>
    fromBuffer(const std::string &buffer, std::uint64_t expect_fingerprint);

    /** Read @p path fully and parse it. */
    static StatusOr<CheckpointReader>
    fromFile(const std::string &path, std::uint64_t expect_fingerprint);

    bool hasSection(const std::string &name) const;

    /**
     * Run @p load with a load-mode Archiver over section @p name.
     * Fails with Corruption when the section is missing, when @p load
     * latches an error, or when it leaves bytes unconsumed (a layout
     * skew the version check should have caught).
     */
    Status section(const std::string &name,
                   const std::function<void(Archiver &)> &load) const;

    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    struct Section
    {
        std::string name;
        std::string payload;
    };

    CheckpointReader() = default;

    std::uint64_t fingerprint_ = 0;
    std::deque<Section> sections_;
};

/** Write @p data to @p path via temp file + fsync + rename. */
Status atomicWriteFile(const std::string &path, const std::string &data);

/** Read a whole file into a string. */
StatusOr<std::string> readFile(const std::string &path);

} // namespace ebcp::ckpt

#endif // EBCP_CKPT_CHECKPOINT_HH
