/**
 * @file
 * Parallel sweep engine: a fixed-size thread pool that executes a
 * list of RunDescs and returns per-run results in submission order.
 *
 * Guarantees (see tests/test_runner.cc):
 *
 *  - determinism: each run's SimResults are a pure function of its
 *    descriptor, so a sweep is bit-identical at jobs=1 and jobs=N;
 *  - isolation: each run builds its own Simulator and trace sources
 *    (one per core); a faulted run (watchdog stall, bad descriptor) yields a
 *    non-OK per-run Status without aborting or perturbing the rest of
 *    the sweep;
 *  - ordering: results[i] always corresponds to descs[i], regardless
 *    of which worker finished first. Workers start the runs
 *    costliest first (dispatchOrder()), which moves only the wall
 *    clock: results and the deterministic telemetry records keep
 *    submission order;
 *  - warm-state reuse (SweepOptions::warmReuse): descriptors that
 *    share a warm fingerprint (same workload/config/prefetcher/core
 *    count/warm window), single-core and CMP alike, build one warm
 *    checkpoint and fork every measurement from it; a descriptor no
 *    other one shares runs cold, with no save, restore or cached
 *    checkpoint. Forked results are bit-identical to cold runs
 *    (golden-pinned), and a corrupt or version-skewed warm checkpoint
 *    logs a structured warning and falls back to a cold warm-up.
 *
 * Every paper bench (Figures 4-9, Table 1, extensions) funnels its
 * (workload x config) grid through this engine; see bench_common.hh
 * for the bench-side convenience wrapper.
 */

#ifndef EBCP_HARNESS_SWEEP_HH
#define EBCP_HARNESS_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/run_desc.hh"
#include "sim/api.hh"
#include "trace/fault_injection.hh"
#include "util/status.hh"

namespace ebcp::harness
{

/** Outcome of one run: a Status plus, when OK, the results. */
struct RunResult
{
    Status status;
    SimResults results; //!< valid only when status.ok()

    bool warmForked = false;   //!< measured from a warm checkpoint
    bool coldFallback = false; //!< warm restore failed; ran cold

    bool ok() const { return status.ok(); }
};

/** Options for SweepRunner; the default is no warm reuse and no
 * telemetry. */
struct SweepOptions
{
    /** Build one warm checkpoint per warm fingerprint that two or
     * more runs of the sweep share, and fork each of their
     * measurements from it. Every other run goes cold: forking a checkpoint no
     * sibling reuses costs a save and a restore and saves nothing. */
    bool warmReuse = false;

    /** JSON-lines telemetry stream path; empty disables. See
     * harness/telemetry.hh for the record contract (deterministic
     * submission-order records plus live progress records). */
    std::string telemetryPath;

    /** Prometheus text-exposition snapshot path; empty disables. The
     * file is atomically rewritten on each heartbeat and once more,
     * with ebcp_sweep_done=1, at completion. */
    std::string metricsPath;

    /** Heartbeat cadence in seconds for live telemetry records and
     * metrics snapshots; <= 0 disables the heartbeat thread. */
    double heartbeatSeconds = 1.0;
};

/**
 * Identity hash of everything that shapes @p d's warm state:
 * workload, seed, core count, warm window, the full SimConfig and the
 * full prefetcher parameter set. The measurement window and the
 * display label are excluded, so two runs sharing it reach the
 * identical warm state and one checkpoint serves both.
 */
std::uint64_t warmFingerprint(const RunDesc &d);

/**
 * The order SweepRunner starts runs in, as indices into @p descs:
 * descending cores x (warm + measure), ties in submission order.
 * Starting the costliest runs first keeps a long run from being
 * claimed last and finishing alone while the other workers idle.
 */
std::vector<std::size_t> dispatchOrder(const std::vector<RunDesc> &descs);

/** Aggregate accounting of one sweep execution. */
struct SweepStats
{
    std::size_t launched = 0;  //!< descriptors submitted
    std::size_t completed = 0; //!< runs that returned OK
    std::size_t failed = 0;    //!< runs that returned a non-OK Status
    unsigned jobs = 1;         //!< workers, capped at the run count (min 1)
    double wallSeconds = 0.0;

    /** Instructions measured across successful runs (warm excluded). */
    std::uint64_t measuredInsts = 0;

    std::size_t warmBuilds = 0;    //!< warm checkpoints built
    std::size_t warmForks = 0;     //!< runs forked from a warm ckpt
    std::size_t coldFallbacks = 0; //!< warm restores degraded to cold

    /** Aggregate simulation throughput over the sweep's wall clock. */
    double instsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(measuredInsts) / wallSeconds
                   : 0.0;
    }
};

/**
 * Execute one descriptor in isolation. Bad workload / prefetcher
 * names, watchdog stalls and uncaught exceptions come back as the
 * Status; the simulation itself runs exactly as a serial
 * Simulator::tryRun() over the same per-core sources would.
 */
RunResult executeRun(const RunDesc &d);

/** The default worker count: hardware concurrency, at least 1. */
unsigned defaultJobs();

/** Fixed-size thread-pool executor for run descriptors. */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 selects defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0, SweepOptions opts = {});

    /**
     * Execute every descriptor and return results in submission
     * order. Never throws and never aborts on a failed run; inspect
     * each RunResult::status. Also refreshes stats().
     */
    std::vector<RunResult> run(const std::vector<RunDesc> &descs);

    /** Accounting for the most recent run(). */
    const SweepStats &stats() const { return stats_; }

    unsigned jobs() const { return jobs_; }
    const SweepOptions &options() const { return opts_; }

    /**
     * Test hook: damage every warm checkpoint right after it is
     * built, so forked runs exercise the cold fallback.
     */
    void
    corruptWarmCacheForTest(CkptFaultKind kind, std::uint64_t seed)
    {
        corruptWarm_ = true;
        corruptKind_ = kind;
        corruptSeed_ = seed;
    }

  private:
    unsigned jobs_;
    SweepOptions opts_;
    SweepStats stats_;

    bool corruptWarm_ = false;
    CkptFaultKind corruptKind_ = CkptFaultKind::CrcFlip;
    std::uint64_t corruptSeed_ = 1;
};

} // namespace ebcp::harness

#endif // EBCP_HARNESS_SWEEP_HH
