/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for the
 * integrity checks of trace files, checkpoints and telemetry lines.
 *
 * Slicing-by-8: eight tables let each step fold eight input bytes
 * into the CRC with eight independent table reads, where the classic
 * byte-at-a-time loop makes eight dependent ones. Same reflected
 * polynomial, same values. Trace replay checks every chunk payload,
 * so this loop sets most of the file decode cost.
 */

#ifndef EBCP_UTIL_CRC32_HH
#define EBCP_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace ebcp
{

/**
 * Update a running CRC-32 with @p len bytes at @p data.
 *
 * Start from crc32Init(), feed chunks in order, finish with
 * crc32Final(); or use crc32() for one-shot buffers.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t len);

inline std::uint32_t crc32Init() { return 0xffffffffu; }
inline std::uint32_t crc32Final(std::uint32_t crc)
{
    return crc ^ 0xffffffffu;
}

/** One-shot CRC-32 of a buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Final(crc32Update(crc32Init(), data, len));
}

} // namespace ebcp

#endif // EBCP_UTIL_CRC32_HH
