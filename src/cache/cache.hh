/**
 * @file
 * A functional cache level with statistics.
 *
 * Timing (hit latency, miss handling) lives in the core timing model
 * and the hierarchy; this class answers "hit or miss" and maintains
 * content under LRU replacement.
 */

#ifndef EBCP_CACHE_CACHE_HH
#define EBCP_CACHE_CACHE_HH

#include "cache/cache_config.hh"
#include "cache/tag_array.hh"
#include "stats/group.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

/** One cache level (L1I, L1D or L2). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the cache; on a miss the line is *not* inserted (the
     * caller fills it when the data returns, via fill()).
     *
     * @return true on hit.
     */
    bool access(Addr addr, bool write);

    /** Probe without updating recency or stats. */
    bool contains(Addr addr) const { return tags_.contains(addr); }

    /** Install the line containing @p addr. @return displaced victim. */
    Eviction fill(Addr addr, bool dirty = false);

    /** Invalidate the line containing @p addr if present. */
    bool invalidate(Addr addr) { return tags_.invalidate(addr); }

    /** Drop all contents (used between experiments). */
    void flush() { tags_.reset(); }

    const CacheConfig &config() const { return cfg_; }
    Tick hitLatency() const { return cfg_.hitLatency; }
    Addr lineAddr(Addr a) const { return tags_.lineAddr(a); }
    unsigned lineBytes() const { return cfg_.lineBytes; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    StatGroup &stats() { return stats_; }

    /** Visit every valid line address (audit cross-checks). */
    template <typename Fn>
    void
    forEachValidLine(Fn &&fn) const
    {
        tags_.forEachValidLine(std::forward<Fn>(fn));
    }

    /** Re-derive the tag array's structural invariants. */
    void audit(AuditContext &ctx) const { tags_.audit(ctx); }

    /** Test-only: corrupt the tag array so audit() trips. */
    void corruptForTest() { tags_.corruptForTest(); }

    /** Serialize or restore all mutable state (checkpointing). */
    void ckpt(ckpt::Archiver &ar);

  private:
    CacheConfig cfg_;
    TagArray tags_;

    StatGroup stats_;
    Scalar hits_{"hits", "accesses that hit"};
    Scalar misses_{"misses", "accesses that missed"};
    Scalar fills_{"fills", "lines installed"};
    Scalar evictions_{"evictions", "valid lines displaced"};
    Scalar writebacks_{"writebacks", "dirty lines displaced"};
};

} // namespace ebcp

#endif // EBCP_CACHE_CACHE_HH
