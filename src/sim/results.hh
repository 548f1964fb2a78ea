/**
 * @file
 * Measured results of one simulation run, in the units the paper
 * reports (Table 1 / Figures 4-9).
 */

#ifndef EBCP_SIM_RESULTS_HH
#define EBCP_SIM_RESULTS_HH

#include <cstdint>

namespace ebcp
{

/** Metrics from a measurement window. */
struct SimResults
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t epochs = 0;

    double cpi = 0.0;
    double epochsPer1k = 0.0;      //!< Table 1's "epochs per 1000 insts"
    double l2InstMissPer1k = 0.0;  //!< off-chip inst misses / 1000 insts
    double l2LoadMissPer1k = 0.0;  //!< off-chip load misses / 1000 insts

    std::uint64_t usefulPrefetches = 0;
    std::uint64_t issuedPrefetches = 0;
    std::uint64_t droppedPrefetches = 0;

    // Lifecycle split of the useful prefetches (PrefetchLedger):
    // every issued prefetch ends as exactly one of timely hit, late
    // hit, evicted-unused, or still-resident-unused.
    std::uint64_t timelyPrefetches = 0; //!< used with data on chip
    std::uint64_t latePrefetches = 0;   //!< used while still in flight
    std::uint64_t earlyEvictedPrefetches = 0; //!< replaced before use

    /** Fraction of baseline misses averted by the prefetch buffer. */
    double coverage = 0.0;

    /** Fraction of issued prefetches that were used. */
    double accuracy = 0.0;

    /** Fraction of used prefetches whose data arrived in time. */
    double timeliness = 0.0;

    double readBusUtil = 0.0;  //!< busy fraction of the read bus
    double writeBusUtil = 0.0; //!< busy fraction of the write bus

    /** Field-by-field and exact, doubles included: the simulator
     * promises bit-identical results, not similar ones. */
    bool operator==(const SimResults &) const = default;
};

/** Percent improvement of @p pf over @p base (paper's primary metric:
 * overall performance relative to no prefetching). */
inline double
improvementPct(const SimResults &base, const SimResults &pf)
{
    if (pf.cpi <= 0.0)
        return 0.0;
    return (base.cpi / pf.cpi - 1.0) * 100.0;
}

/** Percent reduction of epochs-per-instruction. */
inline double
epiReductionPct(const SimResults &base, const SimResults &pf)
{
    if (base.epochsPer1k <= 0.0)
        return 0.0;
    return (1.0 - pf.epochsPer1k / base.epochsPer1k) * 100.0;
}

} // namespace ebcp

#endif // EBCP_SIM_RESULTS_HH
