/**
 * @file
 * Shared machinery for the paper-reproduction benches: run scaling
 * and the parallel sweep wrapper.
 *
 * Every bench accepts "warm=N measure=N" command-line overrides, the
 * EBCP_BENCH_SCALE environment variable (e.g. 0.25 for a quick pass,
 * 4 for a long one), and "jobs=N" / EBCP_BENCH_JOBS to size the
 * parallel sweep engine (default: hardware concurrency). Defaults
 * reproduce the calibrated measurement windows in EXPERIMENTS.md.
 *
 * Benches are two-phase: enqueue every (workload x config) run on a
 * BenchSweep, execute() once, then assemble tables from the results.
 * Execution is deterministic -- the same tables come out at jobs=1
 * and jobs=N.
 *
 * Every BenchSweep-based bench also accepts "stats_json=PATH": after
 * execute(), the sweep's per-run SimResults are exported in the shared
 * "ebcp-stats-v1" schema (harness/stats_json.hh) and the artifact is
 * re-read and schema-validated before the bench continues.
 *
 * Likewise "telemetry_out=PATH" (per-run progress as CRC-tagged JSON
 * lines) and "metrics_out=PATH" (a Prometheus-style snapshot kept
 * fresh while the sweep runs) flow into the sweep engine's telemetry
 * layer; see harness/telemetry.hh for the record contract.
 */

#ifndef EBCP_BENCH_BENCH_COMMON_HH
#define EBCP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/options.hh"
#include "harness/sweep.hh"
#include "sim/api.hh"
#include "stats/table.hh"
#include "trace/workloads.hh"
#include "util/config.hh"

namespace ebcp::bench
{

using harness::RunDesc;
using harness::RunScale;

/**
 * Resolve the run scale from argv overrides and the environment;
 * malformed or non-positive values render a coded error and exit.
 */
RunScale resolveScale(int argc, char **argv);

/** Resolve the sweep worker count (jobs= / EBCP_BENCH_JOBS); exits on
 * malformed values. */
unsigned resolveJobs(int argc, char **argv);

/** Print the standard bench banner. */
void banner(const std::string &title, const std::string &paper_ref,
            const RunScale &scale);

/**
 * The bench-side face of the parallel sweep engine: collects run
 * descriptors (returning their indices), executes them all on a
 * SweepRunner, prints the sweep summary, and serves results back by
 * index. A failed run is fatal at first access with the run's label
 * and Status -- a paper table must not silently contain holes.
 */
class BenchSweep
{
  public:
    /** Resolves scale and jobs from @p argv and the environment. */
    BenchSweep(int argc, char **argv);

    const RunScale &scale() const { return scale_; }
    unsigned jobs() const { return jobs_; }

    /** Enqueue a single-core run at the bench scale. @return index */
    std::size_t add(const std::string &workload, const SimConfig &cfg,
                    const PrefetcherParams &pf);

    /** Enqueue a fully-specified descriptor. @return index */
    std::size_t add(RunDesc d);

    /** Enqueue (once per workload) the no-prefetching baseline.
     * @return index */
    std::size_t addBaseline(const std::string &workload);

    /** Execute every pending descriptor and print the sweep summary.
     * Honours "stats_json=PATH" from argv: exports and validates the
     * shared-schema report (a malformed artifact is fatal). */
    void execute();

    /**
     * Write every completed run to @p path in the "ebcp-stats-v1"
     * schema, then re-read and validate the artifact. Failed runs are
     * omitted (they are already reported on stderr by execute()).
     */
    Status exportStatsJson(const std::string &path,
                           const std::string &source = "bench_sweep") const;

    /** Result of run @p idx; fatal if that run failed. */
    const SimResults &result(std::size_t idx) const;

    /** Baseline results for @p workload (addBaseline required). */
    const SimResults &baseline(const std::string &workload) const;

    /** Percent improvement of run @p idx over its workload baseline. */
    double improvement(const std::string &workload,
                       std::size_t idx) const;

    /** improvement() across @p idxs, for table rows. */
    std::vector<double>
    improvementRow(const std::string &workload,
                   const std::vector<std::size_t> &idxs) const;

    const harness::SweepStats &stats() const { return runner_.stats(); }

  private:
    RunScale scale_;
    unsigned jobs_;
    std::string statsJsonPath_;
    harness::SweepRunner runner_;
    std::vector<RunDesc> pending_;
    std::vector<harness::RunResult> results_;
    std::map<std::string, std::size_t> baselines_;
    bool executed_ = false;
};

} // namespace ebcp::bench

#endif // EBCP_BENCH_BENCH_COMMON_HH
