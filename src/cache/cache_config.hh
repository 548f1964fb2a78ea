/**
 * @file
 * Cache geometry and latency configuration.
 */

#ifndef EBCP_CACHE_CACHE_CONFIG_HH
#define EBCP_CACHE_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace ebcp
{

/** Geometry/latency of one cache level (LRU replacement). */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * KiB;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    Tick hitLatency = 3;

    unsigned
    sets() const
    {
        return static_cast<unsigned>(sizeBytes / (ways * lineBytes));
    }

    /** Validate that the geometry is realizable. */
    void
    check() const
    {
        fatal_if(sizeBytes == 0 || ways == 0 || lineBytes == 0,
                 "cache ", name, ": zero-sized parameter");
        fatal_if(sizeBytes % (ways * std::uint64_t{lineBytes}) != 0,
                 "cache ", name, ": size not divisible by ways*line");
        fatal_if(!isPowerOf2(lineBytes),
                 "cache ", name, ": line size must be a power of two");
        fatal_if(!isPowerOf2(sets()),
                 "cache ", name, ": set count must be a power of two");
    }
};

} // namespace ebcp

#endif // EBCP_CACHE_CACHE_CONFIG_HH
