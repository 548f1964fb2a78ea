/**
 * @file
 * Hardware performance counters via perf_event_open (no external
 * dependencies).
 *
 * The perf-smoke gates (bench/throughput_bench) time their runs by a
 * sample's thread CPU time, and perfbench's host record reports
 * whether hardware counters were available and, if not, why. Counter
 * access is frequently unavailable -- containers, perf_event_paranoid,
 * non-Linux hosts -- so construction degrades gracefully: available()
 * turns false and the sample falls back to a CPU-time-based cycle
 * estimate (getrusage thread time x the nominal frequency from
 * /proc/cpuinfo) plus a structured reason string saying exactly why
 * the hardware path is closed (syscall errno and the
 * perf_event_paranoid setting), instead of a bare row of zeros.
 */

#ifndef EBCP_UTIL_PERF_COUNTERS_HH
#define EBCP_UTIL_PERF_COUNTERS_HH

#include <cstdint>
#include <string>

namespace ebcp
{

/** One stopped measurement interval's counter deltas. */
struct PerfSample
{
    bool available = false; //!< hardware counters backed this sample
    bool estimated = false; //!< cycles estimated from CPU time
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0; //!< 0 when estimated: CPU time
                                    //!< cannot honestly stand in for
                                    //!< an instruction count
    double cpuSeconds = 0.0; //!< thread CPU time of the interval
    std::string reason;      //!< why hardware counters are closed
                             //!< (empty when available)
    double nominalHz = 0.0;  //!< frequency behind a cycle estimate
                             //!< (0 when hardware-measured or unknown)
    std::string nominalSource; //!< where nominalHz came from:
                               //!< "hardware", "/proc/cpuinfo cpu MHz"
                               //!< or "unavailable"
};

/**
 * A group of hardware counters over the calling thread. Usage:
 * construct, start(), run the region, stop(), read sample().
 */
class PerfCounters
{
  public:
    PerfCounters();
    ~PerfCounters();

    PerfCounters(const PerfCounters &) = delete;
    PerfCounters &operator=(const PerfCounters &) = delete;

    /** True if at least the cycle and instruction counters opened. */
    bool available() const { return available_; }

    /** Reset and enable the counters. */
    void start();

    /** Disable the counters and latch the interval's readings. */
    void stop();

    /** Readings of the most recent start()/stop() interval. */
    const PerfSample &sample() const { return sample_; }

  private:
    // One fd per event; -1 where the event failed to open.
    int cyclesFd_ = -1;
    int instructionsFd_ = -1;
    bool available_ = false;
    std::string reason_;        //!< built once at construction
    double nominalHz_ = 0.0;    //!< /proc/cpuinfo MHz (fallback path)
    double startCpuSeconds_ = 0.0;
    PerfSample sample_;
};

} // namespace ebcp

#endif // EBCP_UTIL_PERF_COUNTERS_HH
