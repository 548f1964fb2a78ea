/**
 * @file
 * Interval sampling of a StatGroup tree.
 *
 * End-of-run aggregates average away phase behaviour: a workload that
 * spends half its run missing constantly and half hitting looks
 * identical to one that misses at a uniform rate. The sampler
 * snapshots every Scalar and Average reachable from a root group at
 * exact N-instruction boundaries of the measurement window, producing
 * a time series that plots directly against the epoch timeline.
 *
 * The sampler never resets live statistics -- per-interval ("delta")
 * values are computed by subtraction from the previous boundary, so
 * attaching a sampler cannot perturb the simulation (the end-of-run
 * aggregates and goldens stay bit-exact).
 */

#ifndef EBCP_STATS_INTERVAL_HH
#define EBCP_STATS_INTERVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/group.hh"
#include "util/json.hh"

namespace ebcp
{

/** Snapshots a statistic tree every N instructions; each snapshot
 * holds the change since the previous boundary. */
class IntervalSampler
{
  public:
    /**
     * @param root group whose Scalars and Averages are sampled; the
     *        dotted paths are resolved once, here (never per sample)
     * @param interval instructions between snapshots (must be > 0)
     */
    IntervalSampler(const StatGroup &root, std::uint64_t interval);

    std::uint64_t interval() const { return interval_; }

    /**
     * Record a snapshot at instruction boundary @p insts (the
     * cumulative measured-instruction count). The driver calls this
     * at exact interval multiples plus the final, possibly partial,
     * boundary.
     */
    void sample(std::uint64_t insts);

    /** One recorded boundary. */
    struct Snapshot
    {
        std::uint64_t insts = 0;   //!< boundary (cumulative insts)
        std::vector<double> values; //!< parallel to paths()
    };

    /** Dotted path of each sampled statistic, root name included. */
    const std::vector<std::string> &paths() const { return paths_; }

    const std::vector<Snapshot> &snapshots() const { return snaps_; }

    /** Drop recorded snapshots (paths stay resolved). */
    void clear();

    /**
     * Emit {"interval", "mode", "paths": [...], "samples":
     * [{"insts", "values": [...]}, ...]} as one JSON object value.
     */
    void writeJson(JsonWriter &w) const;

  private:
    // A sampled statistic reduced to (sum, count): Scalars are
    // (value, 1); Averages keep their real sum and count so a
    // snapshot can hold a true per-interval mean.
    struct Probe
    {
        const StatBase *stat = nullptr;
        bool isAverage = false;
    };

    void collect(const StatGroup &g, const std::string &prefix);
    void read(std::vector<double> &sum, std::vector<double> &count) const;

    std::uint64_t interval_;
    std::vector<std::string> paths_;
    std::vector<Probe> probes_;
    std::vector<double> prevSum_;
    std::vector<double> prevCount_;
    std::vector<Snapshot> snaps_;
};

} // namespace ebcp

#endif // EBCP_STATS_INTERVAL_HH
