#include "bench/bench_common.hh"

#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "harness/stats_json.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace ebcp::bench
{

RunScale
resolveScale(int argc, char **argv)
{
    ConfigStore cs = ConfigStore::fromArgs(argc, argv);
    StatusOr<RunScale> s = harness::tryResolveScaleFromEnv(cs);
    if (!s.ok()) {
        std::cerr << "error resolving run scale: "
                  << s.status().toString()
                  << "\n(usage: warm=N measure=N overrides, or "
                     "EBCP_BENCH_SCALE=<positive factor>)\n";
        std::exit(2);
    }
    return s.value();
}

unsigned
resolveJobs(int argc, char **argv)
{
    ConfigStore cs = ConfigStore::fromArgs(argc, argv);
    StatusOr<unsigned> jobs = harness::tryResolveJobsFromEnv(cs);
    if (!jobs.ok()) {
        std::cerr << "error resolving sweep jobs: "
                  << jobs.status().toString()
                  << "\n(usage: jobs=N override, or "
                     "EBCP_BENCH_JOBS=<positive integer>)\n";
        std::exit(2);
    }
    return jobs.value();
}

void
banner(const std::string &title, const std::string &paper_ref,
       const RunScale &scale)
{
    std::cout << "\n==================================================="
                 "=========================\n"
              << title << "\n"
              << "Reproduces: " << paper_ref << "\n"
              << "Windows: warm " << scale.warm << " insts, measure "
              << scale.measure << " insts"
              << "  (override: warm=N measure=N or EBCP_BENCH_SCALE)\n"
              << "====================================================="
                 "=======================\n";
}

SimResults
run(const std::string &workload, const SimConfig &cfg,
    const PrefetcherParams &pf, const RunScale &scale)
{
    auto src = makeWorkload(workload);
    return runOnce(cfg, pf, *src, scale.warm, scale.measure);
}

const SimResults &
baseline(const std::string &workload, const RunScale &scale)
{
    // Per-entry state so concurrent callers of *different* workloads
    // compute in parallel, while two callers of the same workload
    // compute it exactly once. unique_ptr gives the caller a stable
    // reference even as the map rehashes/rebalances around it.
    struct Entry
    {
        std::once_flag once;
        std::unique_ptr<SimResults> results;
    };
    static std::mutex map_mu;
    static std::map<std::string, Entry> cache;

    // Keying by scale as well closes a latent serial bug: two calls
    // with different windows used to alias one cache slot.
    const std::string key = workload + "@" + std::to_string(scale.warm) +
                            "+" + std::to_string(scale.measure);
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(map_mu);
        entry = &cache[key];
    }
    std::call_once(entry->once, [&]() {
        PrefetcherParams null_pf;
        null_pf.name = "null";
        SimConfig cfg;
        entry->results = std::make_unique<SimResults>(
            run(workload, cfg, null_pf, scale));
    });
    return *entry->results;
}

std::vector<double>
improvementRow(const std::string &workload,
               const std::vector<SimResults> &series,
               const RunScale &scale)
{
    std::vector<double> out;
    const SimResults &base = baseline(workload, scale);
    out.reserve(series.size());
    for (const SimResults &r : series)
        out.push_back(improvementPct(base, r));
    return out;
}

namespace
{

/** Sweep telemetry knobs shared by every BenchSweep bench:
 * "telemetry_out=PATH" streams per-run progress as CRC-tagged JSON
 * lines, "metrics_out=PATH" keeps a Prometheus-style snapshot fresh
 * while the sweep runs (see harness/telemetry.hh). */
harness::SweepOptions
sweepOptionsFromArgs(int argc, char **argv)
{
    ConfigStore cs = ConfigStore::fromArgs(argc, argv);
    harness::SweepOptions opts;
    opts.telemetryPath = cs.getString("telemetry_out", "");
    opts.metricsPath = cs.getString("metrics_out", "");
    return opts;
}

} // namespace

BenchSweep::BenchSweep(int argc, char **argv)
    : scale_(resolveScale(argc, argv)),
      jobs_(resolveJobs(argc, argv)),
      statsJsonPath_(
          ConfigStore::fromArgs(argc, argv).getString("stats_json", "")),
      runner_(jobs_, sweepOptionsFromArgs(argc, argv))
{
    // The largest paper sweep (fig9) enqueues ~50 descriptors; each
    // RunDesc embeds a SimConfig, so reallocation during add() copies
    // every queued config. One up-front reservation keeps enqueueing
    // copy-free; the descriptors themselves are the only per-run
    // SimConfig copies (SweepRunner takes the vector by const
    // reference).
    pending_.reserve(64);
}

std::size_t
BenchSweep::add(const std::string &workload, const SimConfig &cfg,
                const PrefetcherParams &pf)
{
    RunDesc d;
    d.workload = workload;
    d.cfg = cfg;
    d.pf = pf;
    d.scale = scale_;
    return add(std::move(d));
}

std::size_t
BenchSweep::add(RunDesc d)
{
    panic_if(executed_, "BenchSweep::add() after execute()");
    pending_.push_back(std::move(d));
    return pending_.size() - 1;
}

std::size_t
BenchSweep::addBaseline(const std::string &workload)
{
    auto it = baselines_.find(workload);
    if (it != baselines_.end())
        return it->second;
    RunDesc d;
    d.label = workload + "/baseline";
    d.workload = workload;
    d.pf.name = "null";
    d.scale = scale_;
    const std::size_t idx = add(std::move(d));
    baselines_.emplace(workload, idx);
    return idx;
}

void
BenchSweep::execute()
{
    panic_if(executed_, "BenchSweep::execute() called twice");
    executed_ = true;
    results_ = runner_.run(pending_);

    const harness::SweepStats &st = runner_.stats();
    std::cout << "sweep: " << st.launched << " runs (" << st.completed
              << " ok, " << st.failed << " failed) on " << st.jobs
              << (st.jobs == 1 ? " job" : " jobs") << " in "
              << fmtDouble(st.wallSeconds, 1) << "s, "
              << fmtDouble(st.instsPerSec() / 1e6, 2)
              << "M simulated insts/s\n";
    for (std::size_t i = 0; i < results_.size(); ++i)
        if (!results_[i].ok())
            std::cerr << "run " << harness::runLabel(pending_[i])
                      << " failed: " << results_[i].status.toString()
                      << "\n";

    if (!statsJsonPath_.empty()) {
        Status s = exportStatsJson(statsJsonPath_);
        fatal_if(!s.ok(), "stats_json export failed: ", s.toString());
        std::cout << "wrote " << statsJsonPath_ << " (schema "
                  << StatsJsonSchema << ", validated)\n";
    }
}

Status
BenchSweep::exportStatsJson(const std::string &path,
                            const std::string &source) const
{
    panic_if(!executed_, "BenchSweep::exportStatsJson() before execute()");

    std::ostringstream os;
    JsonWriter w(os);
    beginStatsJson(w, source);
    for (std::size_t i = 0; i < results_.size(); ++i) {
        const harness::RunResult &r = results_[i];
        if (!r.ok())
            continue;
        w.beginObject();
        w.kv("label", harness::runLabel(pending_[i]));
        w.key("results");
        writeSimResultsJson(w, r.results);
        w.endObject();
    }
    endStatsJson(w);

    std::ofstream out(path);
    if (!out)
        return ioError(logFormat("cannot open ", path, " for writing"));
    out << os.str();
    out.close();
    if (!out)
        return ioError(logFormat("short write to ", path));

    // Re-read and schema-check: the producer proves its own artifact.
    return validateStatsJsonFile(path);
}

const SimResults &
BenchSweep::result(std::size_t idx) const
{
    panic_if(!executed_, "BenchSweep::result() before execute()");
    panic_if(idx >= results_.size(), "BenchSweep run index out of range");
    const harness::RunResult &r = results_[idx];
    fatal_if(!r.ok(), "run ", harness::runLabel(pending_[idx]),
             " failed: ", r.status.toString());
    return r.results;
}

const SimResults &
BenchSweep::baseline(const std::string &workload) const
{
    auto it = baselines_.find(workload);
    panic_if(it == baselines_.end(), "no baseline enqueued for '",
             workload, "'");
    return result(it->second);
}

double
BenchSweep::improvement(const std::string &workload,
                        std::size_t idx) const
{
    return improvementPct(baseline(workload), result(idx));
}

std::vector<double>
BenchSweep::improvementRow(const std::string &workload,
                           const std::vector<std::size_t> &idxs) const
{
    std::vector<double> out;
    out.reserve(idxs.size());
    for (std::size_t idx : idxs)
        out.push_back(improvement(workload, idx));
    return out;
}

} // namespace ebcp::bench
