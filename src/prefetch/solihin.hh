/**
 * @file
 * Solihin et al's memory-side correlation prefetcher [24] -- the
 * comparison point conceptually closest to EBCP (Sections 3.3.1 and
 * 5.3), since it too keeps its correlation table in main memory.
 *
 * The table maps each individual miss address to its successor misses
 * organized in levels: level k holds the k-th misses after the key,
 * with `width` most-recent candidates per level. On a miss, the entry
 * for that address supplies up to depth*width prefetch addresses.
 *
 * Key contrasts with EBCP, all modelled here:
 *  - keys are individual misses, not epoch triggers, so entries spend
 *    slots on same-epoch and next-epoch misses whose prefetches can
 *    never be timely (the table read costs a memory round trip);
 *  - the engine lives at the memory side, so its table reads do not
 *    cross the processor's buses (no read-bus occupancy) but still
 *    pay DRAM access latency before prefetches can issue.
 *
 * Configurations per the paper: Solihin 3,2 (depth 3, width 2) and
 * Solihin 6,1 (depth 6, width 1), both with 1M-entry tables.
 */

#ifndef EBCP_PREFETCH_SOLIHIN_HH
#define EBCP_PREFETCH_SOLIHIN_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "util/status.hh"
#include "util/circular_buffer.hh"
#include "util/flat_map.hh"

namespace ebcp
{

/** Solihin prefetcher configuration. */
struct SolihinConfig
{
    std::uint64_t tableEntries = 1ULL << 20;
    unsigned depth = 3; //!< NumLevels
    unsigned width = 2; //!< NumSucc per level
    Tick tableAccessLatency = 500; //!< DRAM-side table read latency

    /** Coded rejection of nonsense values (factory gate). */
    Status validate() const;

    static SolihinConfig
    depth3width2()
    {
        return {};
    }

    static SolihinConfig
    depth6width1()
    {
        SolihinConfig c;
        c.depth = 6;
        c.width = 1;
        return c;
    }
};

/** The memory-side correlation prefetcher. */
class SolihinPrefetcher : public Prefetcher
{
  public:
    explicit SolihinPrefetcher(const SolihinConfig &cfg,
                               std::string name = "solihin");

    void observeAccess(const L2AccessInfo &info) override;

    /** Serialize or restore all learned state (checkpointing). */
    void ckpt(ckpt::Archiver &ar) override;

  private:
    struct Level
    {
        std::vector<Addr> succ; //!< MRU-first successors
    };

    struct Entry
    {
        Addr tag = InvalidAddr;
        std::vector<Level> levels;
    };

    std::uint64_t indexOf(Addr key) const;
    void train(Addr new_miss);
    void predict(const L2AccessInfo &info);

    SolihinConfig cfg_;
    FlatMap<Entry> table_;
    CircularBuffer<Addr> recentMisses_;
    Tick lastMissTick_ = 0;

    Scalar trains_{"trains", "successor updates recorded"};
    Scalar matches_{"matches", "lookups that matched the tag"};
    Scalar issued_{"issued", "prefetches handed to the engine"};
};

} // namespace ebcp

#endif // EBCP_PREFETCH_SOLIHIN_HH
