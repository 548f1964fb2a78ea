/**
 * @file
 * The main-memory correlation table (Section 3.4.2, Figure 3).
 *
 * Functionally the table is direct-mapped: index = hash(key) mod
 * entries, one tag per entry, N prefetch-address slots managed LRU.
 * Timing is *not* modelled here -- the prefetcher issues the
 * low-priority memory reads/writes through its PrefetchEngine; this
 * class answers what those accesses would find.
 *
 * The simulator-host storage is a lazily populated hash map, so the
 * idealized 8M-entry / 32-address configuration costs memory only for
 * entries actually touched.
 *
 * Host layout is SoA: the hash map's payload is a small POD record
 * (tag + arena block handle + live count) and every entry's successor
 * addresses live in a shared flat arena of plain Addrs, carved into
 * fixed addrsPerEntry-sized blocks that are allocated on first touch
 * and recycled in place on tag reallocation. Lookups therefore touch
 * one small map payload plus one contiguous block -- no per-entry
 * vector headers, no scattered heap nodes, and zero steady-state
 * allocation once the working set's blocks exist.
 *
 * Like the paper's entry (one LRU field beside the addresses), a
 * block keeps no per-slot recency. It is kept in MRU order instead:
 * every write and every refreshLru() hit moves its address to the
 * front, so block order is last-use order, a lookup is a plain copy
 * and the LRU slot is the last one. An update's own writes are
 * therefore always a prefix of the block, which makes "never evict a
 * slot this update wrote" a count of that prefix: the oldest slot the
 * update has not written is the last slot, unless the prefix covers
 * the whole block. Victims and lookup order are those of a per-slot
 * timestamp LRU; tests/test_correlation_table.cc checks them against
 * a naive list-based reference model.
 */

#ifndef EBCP_CORE_CORRELATION_TABLE_HH
#define EBCP_CORE_CORRELATION_TABLE_HH

#include <cstdint>
#include <vector>

#include "stats/group.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

class AuditContext;

/** Geometry of the main-memory correlation table. */
struct CorrTableConfig
{
    std::uint64_t entries = 1ULL << 20; //!< 1M entries (64MB) default
    unsigned addrsPerEntry = 8;         //!< prefetch-address slots
    unsigned transferBytes = 64;        //!< memory transfer unit

    /**
     * Bytes moved per table read/write: tag + LRU (8B) plus 6B per
     * compressed prefetch address (Section 3.4.2), rounded up to the
     * transfer unit.
     */
    unsigned entryTransferBytes() const;

    /** Total main-memory footprint in bytes. */
    std::uint64_t
    footprintBytes() const
    {
        return entries * entryTransferBytes();
    }
};

/** The correlation table proper. */
class CorrelationTable
{
  public:
    explicit CorrelationTable(const CorrTableConfig &cfg);

    /** Direct-mapped index of @p key. */
    std::uint64_t indexOf(Addr key) const;

    /**
     * Read the entry indexed by @p key.
     *
     * @param out on a tag match, filled with the entry's prefetch
     *            addresses, most recently used first
     * @param index_out the entry index (valid regardless of match)
     * @return true on a tag match
     */
    bool lookup(Addr key, std::vector<Addr> &out,
                std::uint64_t *index_out = nullptr);

    /**
     * Insert/update the entry for @p key with @p addrs (ordered
     * oldest-epoch-first, the paper's priority rule; the list should
     * already be deduplicated and truncated to addrsPerEntry).
     *
     * A tag mismatch reallocates the entry; a match refreshes present
     * addresses and LRU-replaces absent ones, never evicting a slot
     * written by this same update.
     */
    void update(Addr key, const std::vector<Addr> &addrs);

    /**
     * Make @p line_addr the most recently used slot of entry @p index
     * (prefetch-buffer hit feedback, Section 3.4.3).
     * @return true if the address was found in the entry.
     */
    bool refreshLru(std::uint64_t index, Addr line_addr);

    /** Drop all contents (allocation reclaimed / new run). */
    void clear();

    /** Distinct entries currently resident in host storage. */
    std::size_t populatedEntries() const { return entries_.size(); }

    const CorrTableConfig &config() const { return cfg_; }
    StatGroup &stats() { return stats_; }

    /** Host hash-map probe counters (perfbench). */
    const FlatMapStats &mapStats() const { return entries_.stats(); }

    /** Re-derive structural invariants: population within the
     * configured entry count, every resident entry keyed by the index
     * its own tag hashes to, successor slots within the per-entry cap
     * and free of duplicates, and every arena block owned by exactly
     * one entry. */
    void audit(AuditContext &ctx) const;

    /** Test-only: plant an entry whose tag indexes elsewhere so
     * audit() trips. */
    void corruptForTest();

    /** Serialize or restore all mutable state (checkpointing). */
    void ckpt(ckpt::Archiver &ar);

  private:
    /** Arena block handle of an entry that has no slots yet. */
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

    /**
     * Map payload: tag plus a handle into the shared slot arena. POD
     * and 16 bytes, so the host map's SoA value array stays dense.
     */
    struct Entry
    {
        Addr tag = InvalidAddr;
        std::uint32_t base = kNoBlock; //!< first slot in slotPool_
        std::uint32_t count = 0;       //!< live slots at base
    };

    /** Arena block of @p e, allocating one on first use. */
    Addr *slotsOf(Entry &e);
    const Addr *slotsOf(const Entry &e) const;

    CorrTableConfig cfg_;
    FlatMap<Entry> entries_;
    /** Shared successor-slot arena: fixed addrsPerEntry-sized blocks,
     * each in MRU order, never individually freed (clear() resets the
     * whole pool). */
    std::vector<Addr> slotPool_;

    StatGroup stats_;
    Scalar lookups_{"lookups", "table reads for prediction"};
    Scalar tagHits_{"tag_hits", "lookups that matched the tag"};
    Scalar updates_{"updates", "entry updates"};
    Scalar reallocs_{"reallocs", "entries reallocated on tag mismatch"};
    Scalar slotReplacements_{"slot_replacements",
                             "prefetch-address slots LRU-replaced"};
    Scalar lruRefreshes_{"lru_refreshes",
                         "slots refreshed on prefetch-buffer hits"};
};

} // namespace ebcp

#endif // EBCP_CORE_CORRELATION_TABLE_HH
