/**
 * @file
 * Generic set-associative tag array with pluggable replacement.
 *
 * The tag array is purely functional (no timing); it is the shared
 * substrate for the instruction/data/L2 caches and for table-like
 * structures (e.g. the SMS pattern history table) that need realistic
 * set-conflict behaviour.
 */

#ifndef EBCP_CACHE_TAG_ARRAY_HH
#define EBCP_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "util/bitfield.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

class AuditContext;

/** Result of inserting a line: what (if anything) was evicted. */
struct Eviction
{
    bool valid = false;  //!< true if a valid line was displaced
    bool dirty = false;  //!< displaced line was dirty
    Addr lineAddr = InvalidAddr; //!< line address of the victim
};

/**
 * A set-associative array of address tags plus LRU/dirty metadata,
 * stored as parallel arrays indexed set * ways + way: a lookup scans
 * one set's contiguous tags and touches nothing else. An empty way
 * holds kInvalidTag, which no line maps to, so no valid bit is needed.
 */
class TagArray
{
  public:
    TagArray(unsigned sets, unsigned ways, unsigned line_bytes,
             ReplPolicy repl = ReplPolicy::Lru);

    /** @return true if the line containing @p addr is present. */
    bool contains(Addr addr) const;

    /**
     * Look up @p addr; on a hit updates recency and (for writes) the
     * dirty bit.
     *
     * @return true on hit.
     */
    bool access(Addr addr, bool write);

    /**
     * Insert the line containing @p addr, evicting a victim if the set
     * is full. Inserting an already-present line just refreshes it.
     *
     * @return description of the displaced victim (if any).
     */
    Eviction insert(Addr addr, bool dirty = false);

    /** Remove the line containing @p addr if present. @return true if
     * it was present. */
    bool invalidate(Addr addr);

    /** Drop every line. */
    void reset();

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    unsigned lineBytes() const { return lineBytes_; }

    /** Line-aligned address of @p addr. */
    Addr lineAddr(Addr addr) const { return alignDown(addr, lineBytes_); }

    /** Set index of @p addr. */
    unsigned
    setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> lineShift_) & (sets_ - 1));
    }

    /** Count of valid lines (testing / occupancy checks). */
    std::size_t validCount() const;

    /** Visit every valid line address. */
    template <typename Fn>
    void
    forEachValidLine(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slots_; ++i)
            if (tags()[i] != kInvalidTag)
                fn(tags()[i] << lineShift_);
    }

    /** Re-derive structural invariants: within each set no two valid
     * ways share a tag, and no recency stamp is from the future. */
    void audit(AuditContext &ctx) const;

    /** Test-only: duplicate a tag within a set so audit() trips. */
    void corruptForTest();

    /** Serialize or restore all mutable state (checkpointing). */
    void ckpt(ckpt::Archiver &ar);

  private:
    /** Tag of an empty way. Lines are at least two bytes, so a real
     * tag drops at least one address bit and never reaches it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** @return way index of @p tag within @p set, or -1. */
    int
    findWay(unsigned set, Addr tag) const
    {
        const Addr *t = tags() + slot(set, 0);
        for (unsigned w = 0; w < ways_; ++w)
            if (t[w] == tag)
                return static_cast<int>(w);
        return -1;
    }

    /** Choose the victim way in @p set per the replacement policy. */
    unsigned victimWay(unsigned set);

    Addr tagOf(Addr addr) const { return addr >> lineShift_; }

    std::size_t
    slot(unsigned set, unsigned w) const
    {
        return std::size_t{set} * ways_ + w;
    }

    // Tags (kInvalidTag when empty), LRU stamps and dirty flags, one
    // word per way each.
    Addr *tags() { return words_.data(); }
    const Addr *tags() const { return words_.data(); }
    std::uint64_t *stamps() { return words_.data() + slots_; }
    const std::uint64_t *stamps() const { return words_.data() + slots_; }
    std::uint64_t *dirtyFlags() { return words_.data() + 2 * slots_; }
    const std::uint64_t *
    dirtyFlags() const
    {
        return words_.data() + 2 * slots_;
    }

    unsigned sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned lineShift_;
    ReplPolicy repl_;
    std::size_t slots_; //!< sets * ways
    // The three arrays share one allocation, and a flag takes a whole
    // word, so a 2 MiB L2 keeps a single 768 KiB block. glibc derives
    // its heap trim threshold from the largest block freed; with byte
    // flags or separate arrays the threshold drops low enough that
    // every Simulator teardown hands the pages back and the next
    // set-up faults them in again (about 230 faults per set-up).
    std::vector<std::uint64_t> words_;
    std::uint64_t stampCounter_ = 0;
    Pcg32 rng_{12345};
};

} // namespace ebcp

#endif // EBCP_CACHE_TAG_ARRAY_HH
