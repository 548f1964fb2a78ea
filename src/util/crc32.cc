#include "util/crc32.hh"

#include <array>

namespace ebcp
{

namespace
{

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * The slicing-by-8 tables for the reflected polynomial: t[0] is the
 * classic byte table, and t[k][b] is the CRC of byte b followed by k
 * zero bytes, so eight table reads advance the CRC by eight bytes.
 */
constexpr Tables
buildTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr Tables kTables = buildTables();

/** Little-endian 32-bit load, independent of host byte order. */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const Tables &t = kTables;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ crc;
        const std::uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc;
}

} // namespace ebcp
