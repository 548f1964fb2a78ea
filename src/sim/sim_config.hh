/**
 * @file
 * Aggregate simulation configuration; defaults are the paper's
 * Section 4.4 processor plus the Section 5 tuned prefetcher knobs.
 */

#ifndef EBCP_SIM_SIM_CONFIG_HH
#define EBCP_SIM_SIM_CONFIG_HH

#include "cache/cache_config.hh"
#include "cpu/core_config.hh"
#include "mem/mem_config.hh"
#include "util/fault.hh"
#include "util/types.hh"

namespace ebcp
{

/** Everything the simulator needs to build a system. */
struct SimConfig
{
    CoreConfig core;
    MemConfig mem;

    CacheConfig l1i{"l1i", 32 * KiB, 4, 64, 3};
    CacheConfig l1d{"l1d", 32 * KiB, 4, 64, 3};
    CacheConfig l2{"l2", 2 * MiB, 4, 64, 20};

    unsigned l2Mshrs = 32;

    unsigned prefetchBufferEntries = 64;
    unsigned prefetchBufferWays = 4;

    /**
     * Pretend the L2 never misses (measures CPI_perf for the epoch
     * model's decomposition, Section 2.1).
     */
    bool perfectL2 = false;

    /**
     * Forward-progress watchdog: maximum tolerated gap (in ticks)
     * between consecutive retirements before the run is declared
     * stalled and aborted with a diagnostic dump. 0 disables.
     */
    Tick watchdogTicks = 0;

    /**
     * The run's deterministic fault-injection plan (none armed by
     * default): the L2 side reads its demand-stall fault, the
     * prefetcher factory hands it to EBCP for table-read faults, and
     * wrapTraceFaults() applies its trace faults.
     */
    FaultPlan faults;
};

} // namespace ebcp

#endif // EBCP_SIM_SIM_CONFIG_HH
