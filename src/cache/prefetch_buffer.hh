/**
 * @file
 * The prefetch buffer (Section 5.2, "prefetched lines are stored in a
 * prefetch buffer ... searched in parallel with the L2 cache").
 *
 * Prefetched lines land here rather than polluting the L2; a demand
 * access that finds its line here promotes it to the regular cache.
 * Each entry also remembers which correlation-table entry produced it
 * so a hit can refresh that entry's LRU state (Section 3.4.3).
 */

#ifndef EBCP_CACHE_PREFETCH_BUFFER_HH
#define EBCP_CACHE_PREFETCH_BUFFER_HH

#include <cstdint>
#include <vector>

#include "util/bitfield.hh"
#include "util/types.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

class AuditContext;

/** Result of probing the prefetch buffer. */
struct PrefBufHit
{
    bool hit = false;        //!< line present (possibly still in flight)
    Tick readyTime = 0;      //!< when the line's data is on chip
    std::uint64_t corrIndex = 0; //!< correlation-table entry that
                                 //!< generated the prefetch
    bool hasCorrIndex = false;
    std::uint8_t source = 0; //!< ledger source id of the issuer
};

/** Result of installing a line: the unused entry it displaced. */
struct PrefBufEvict
{
    Addr line = InvalidAddr; //!< evicted line, or InvalidAddr
    std::uint8_t source = 0; //!< ledger source id of its issuer
};

/** Set-associative buffer of prefetched lines. */
class PrefetchBuffer
{
  public:
    /**
     * @param entries total entry count (power of two)
     * @param ways associativity (4 in the paper)
     * @param line_bytes cache line size
     */
    PrefetchBuffer(unsigned entries, unsigned ways, unsigned line_bytes);

    /**
     * Probe for the line containing @p addr; on a hit the entry is
     * consumed (the line is promoted to the regular cache by the
     * caller, which records the outcome in its PrefetchLedger).
     */
    PrefBufHit lookup(Addr addr);

    /** Probe without consuming (used for filtering). */
    bool contains(Addr addr) const;

    /**
     * Install a prefetched line that becomes available at
     * @p ready_time, credited to ledger source @p source. Duplicate
     * inserts refresh the existing entry.
     *
     * @return the line address (and issuing source) of a valid,
     *         never-used entry this insert replaced, or InvalidAddr
     *         if none was displaced (the caller records the eviction
     *         in its lifecycle ledger/trace).
     */
    PrefBufEvict insert(Addr addr, Tick ready_time,
                        std::uint64_t corr_index, bool has_corr_index,
                        std::uint8_t source = 0);

    /** Drop all contents. */
    void flush();

    /** Valid (prefetched, not yet used) entries right now. */
    unsigned validCount() const;

    unsigned entries() const { return sets_ * ways_; }

    /** Visit every valid entry's (line address, ready time). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Entry &e : entries_)
            if (e.valid)
                fn(e.lineAddr, e.readyTime);
    }

    /** Re-derive structural invariants: occupancy within the entry
     * count, no line buffered twice, every valid entry indexed into
     * its home set, no recency stamp from the future. */
    void audit(AuditContext &ctx) const;

    /** Test-only: clone a buffered line into a foreign set (or
     * fabricate a misplaced entry) so audit() trips. */
    void corruptForTest();

    /** Serialize or restore all mutable state (checkpointing). */
    void ckpt(ckpt::Archiver &ar);

  private:
    struct Entry
    {
        Addr lineAddr = InvalidAddr;
        Tick readyTime = 0;
        std::uint64_t corrIndex = 0;
        bool hasCorrIndex = false;
        bool valid = false;
        std::uint64_t stamp = 0;
        std::uint8_t source = 0; //!< ledger source id of the issuer
    };

    Entry *find(Addr line_addr);
    const Entry *find(Addr line_addr) const;

    unsigned setOf(Addr line_addr) const
    {
        return static_cast<unsigned>(
            mix64(line_addr >> lineShift_) & (sets_ - 1));
    }

    unsigned sets_;
    unsigned ways_;
    unsigned lineShift_;
    std::vector<Entry> entries_;
    std::uint64_t stampCounter_ = 0;
};

} // namespace ebcp

#endif // EBCP_CACHE_PREFETCH_BUFFER_HH
