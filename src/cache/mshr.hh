/**
 * @file
 * Miss Status Holding Register file.
 *
 * Used by the timing model to bound the number of outstanding misses
 * (32 L2 MSHRs in the default configuration) and to merge requests to
 * a line that is already in flight. Entries whose completion time has
 * passed are retired lazily as simulated time advances.
 */

#ifndef EBCP_CACHE_MSHR_HH
#define EBCP_CACHE_MSHR_HH

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

/** A bounded set of in-flight line misses with completion times. */
class MshrFile
{
  public:
    MshrFile(const std::string &name, unsigned entries);

    /**
     * Retire entries that have completed by @p now.
     * Must be called with non-decreasing @p now (the one-pass timing
     * model guarantees issue times are presented in near order; the
     * file tolerates small regressions by simply not retiring).
     */
    void advance(Tick now);

    /**
     * @return the completion time of an in-flight request for
     *         @p line_addr, or MaxTick if none.
     */
    Tick inFlightCompletion(Addr line_addr) const;

    /**
     * Earliest time a new entry can be allocated at or after @p now
     * (now itself if a register is free, otherwise when the oldest
     * in-flight miss completes).
     */
    Tick whenCanAllocate(Tick now) const;

    /** Record a new in-flight miss completing at @p complete. */
    void allocate(Addr line_addr, Tick complete);

    std::size_t occupancy() const { return inflight_.size(); }
    unsigned capacity() const { return entries_; }

    /** Drop all tracked entries. */
    void clear();

    /** One-line-per-entry snapshot of the in-flight misses (watchdog
     * diagnostics); at most @p max_entries lines. */
    void dump(std::ostream &os, std::size_t max_entries = 8) const;

    StatGroup &stats() { return stats_; }

    /** Host hash-map probe counters (perfbench). */
    const FlatMapStats &mapStats() const { return inflight_.stats(); }

    /**
     * Re-derive the file's structural invariants: occupancy within
     * the register count, the completion heap well-formed and
     * covering every tracked miss, and the hash map internally
     * intact. Stale heap entries for re-missed lines are expected
     * (advance() filters them), so the heap may be larger than the
     * map but never smaller.
     */
    void audit(AuditContext &ctx) const;

    /** Test-only: track more misses than the file has registers,
     * bypassing the completion heap, so audit() trips. */
    void corruptForTest();

    /** Serialize or restore all mutable state (checkpointing). */
    void ckpt(ckpt::Archiver &ar);

  private:
    unsigned entries_;
    // Reserved at construction so in-flight tracking never rehashes:
    // the miss path is allocation-free in steady state.
    FlatMap<Tick> inflight_;

    struct HeapEntry
    {
        Tick complete;
        Addr lineAddr;
        bool operator>(const HeapEntry &o) const
        {
            return complete > o.complete;
        }
    };
    // Min-heap over completion times, managed with std::push_heap /
    // std::pop_heap so clear() keeps the storage.
    std::vector<HeapEntry> heap_;

    StatGroup stats_;
    Scalar allocations_{"allocations", "misses tracked"};
    // Counted from const query paths; bookkeeping only.
    mutable Scalar merges_{"merges",
                           "requests merged into in-flight misses"};
    mutable Scalar fullStalls_{"full_stalls",
                               "allocations delayed by a full file"};
};

} // namespace ebcp

#endif // EBCP_CACHE_MSHR_HH
