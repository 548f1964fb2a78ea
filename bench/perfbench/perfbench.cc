/**
 * @file
 * Host-cost benchmark of the simulator.
 *
 *   perfbench --workload db_ebcp|tpcw_ebcp|paper_sweep --seed N
 *             --seconds S --trace 0|1 [--workload-seed G] [--spans PATH]
 *
 * Every workload is driven from outside the simulator, through
 * sim/api.hh, harness::SweepRunner, the trace/workloads.hh generators
 * and the checkpoint and ebcp-stats-v1 entry points. --seed picks the
 * stretch of the calibrated trace a job measures (see windows());
 * --workload-seed, default 0 for the calibrated generators, picks the
 * synthetic application itself.
 *
 * --trace 0 repeats the untraced job for S seconds and reports the
 * end-to-end metrics as medians over the repetitions. --trace 1 runs
 * the job traced (spans recorded here, around each call into a layer)
 * beside the untraced job, plus a differential stack over the job's
 * trace that adds one layer per run -- trace generation, the core on a
 * perfect L2, the L2/MSHR/channel side, the prefetcher -- and reports
 * the per-layer metrics. Both modes check the simulated results; any
 * failed check fails the run.
 *
 * The human-readable report goes to stdout; its last line is one JSON
 * object (correct, attempted, failed, metrics, host). run.py beside
 * this file builds the program and wraps that line; README.md there
 * gives the method.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/ebcp.hh"
#include "harness/stats_json.hh"
#include "harness/sweep.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/perf_counters.hh"
#include "util/profiler.hh"
#include "util/str.hh"

using namespace ebcp;
using harness::RunDesc;
using harness::RunResult;

namespace
{

// --- clocks and order statistics -----------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU time over all threads (sweep workers included). */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Quantile @p q of @p v by the "exclusive" rule Python's
 * statistics.quantiles() uses, so spreads read the same here and in
 * any script that re-derives them. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() + 1) - 1.0;
    if (pos <= 0.0)
        return v.front();
    if (pos >= static_cast<double>(v.size() - 1))
        return v.back();
    const auto lo = static_cast<std::size_t>(pos);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
iqr(const std::vector<double> &v)
{
    return quantile(v, 0.75) - quantile(v, 0.25);
}

// --- spans ----------------------------------------------------------

struct Interval
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** In-memory span log of one traced run, written out at the end. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        long parent = -1;
        double wall0 = 0.0, wall1 = 0.0, cpu0 = 0.0, cpu1 = 0.0;
    };

    std::size_t
    open(std::string_view name, double wall, double cpu)
    {
        spans_.push_back({std::string(name), cur_, wall, wall, cpu, cpu});
        cur_ = static_cast<long>(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t i, double wall, double cpu)
    {
        spans_[i].wall1 = wall;
        spans_[i].cpu1 = cpu;
        cur_ = spans_[i].parent;
    }

    /** Spans with their self CPU time (duration minus the children's),
     * plus per-name totals. */
    void
    writeJson(JsonWriter &w) const
    {
        std::vector<double> child_cpu(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child_cpu[static_cast<std::size_t>(s.parent)] +=
                    s.cpu1 - s.cpu0;
        const double t0 = spans_.empty() ? 0.0 : spans_.front().wall0;
        std::map<std::string, Interval> self;
        w.beginObject();
        w.key("spans").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double self_cpu = s.cpu1 - s.cpu0 - child_cpu[i];
            self[s.name].cpu += self_cpu;
            self[s.name].wall += s.wall1 - s.wall0;
            w.beginObject();
            w.kv("id", static_cast<std::uint64_t>(i));
            w.kv("name", s.name);
            w.kv("parent", static_cast<std::int64_t>(s.parent));
            w.kv("start_s", s.wall0 - t0);
            w.kv("end_s", s.wall1 - t0);
            w.kv("cpu_s", s.cpu1 - s.cpu0);
            w.kv("self_cpu_s", self_cpu);
            w.endObject();
        }
        w.endArray();
        w.key("self_by_name").beginObject();
        for (const auto &[name, t] : self) {
            w.key(name).beginObject();
            w.kv("self_cpu_s", t.cpu);
            w.kv("wall_s", t.wall);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }

    bool empty() const { return spans_.empty(); }

  private:
    std::vector<Span> spans_;
    long cur_ = -1;
};

/** Times a region; with a tracer attached it also records the span. */
class Timed
{
  public:
    Timed(Tracer *t, std::string_view name)
        : t_(t), wall0_(wallNow()), cpu0_(cpuNow())
    {
        if (t_)
            idx_ = t_->open(name, wall0_, cpu0_);
    }
    ~Timed() { stop(); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** End the region (idempotent) and return its duration. */
    Interval
    stop()
    {
        if (!done_) {
            const double w = wallNow(), c = cpuNow();
            took_ = {w - wall0_, c - cpu0_};
            if (t_)
                t_->close(idx_, w, c);
            done_ = true;
        }
        return took_;
    }

  private:
    Tracer *t_;
    double wall0_, cpu0_;
    std::size_t idx_ = 0;
    bool done_ = false;
    Interval took_;
};

// --- output checks --------------------------------------------------

bool
identical(const SimResults &a, const SimResults &b)
{
    return a.insts == b.insts && a.cycles == b.cycles &&
           a.epochs == b.epochs && a.cpi == b.cpi &&
           a.epochsPer1k == b.epochsPer1k &&
           a.l2InstMissPer1k == b.l2InstMissPer1k &&
           a.l2LoadMissPer1k == b.l2LoadMissPer1k &&
           a.usefulPrefetches == b.usefulPrefetches &&
           a.issuedPrefetches == b.issuedPrefetches &&
           a.droppedPrefetches == b.droppedPrefetches &&
           a.timelyPrefetches == b.timelyPrefetches &&
           a.latePrefetches == b.latePrefetches &&
           a.earlyEvictedPrefetches == b.earlyEvictedPrefetches &&
           a.coverage == b.coverage && a.accuracy == b.accuracy &&
           a.timeliness == b.timeliness &&
           a.readBusUtil == b.readBusUtil &&
           a.writeBusUtil == b.writeBusUtil;
}

/** Counts the runs and checks attempted and the ones that failed. */
class Checker
{
  public:
    /**
     * Record one run of @p d, labelled "@p what workload/prefetcher":
     * @p s its status; @p r its results (ignored unless @p s is OK),
     * which must cover the measured window, conserve the prefetch
     * ledger, and equal @p expect when one is given.
     *
     * A CMP run's folded results carry the shared ledger's timely and
     * late counts but no per-core useful or issued counts (the CMP
     * path does not collect them), so only single-core runs are held
     * to timely + late <= useful.
     */
    void
    run(const std::string &what, const RunDesc &d, const Status &s,
        const SimResults &r, const SimResults *expect = nullptr)
    {
        const std::string label =
            (what.empty() ? "" : what + " ") + harness::runLabel(d);
        const std::uint64_t insts = d.scale.measure * d.cores;
        std::string why;
        if (!s.ok())
            why = s.toString();
        else if (r.insts != insts)
            why = logFormat("measured ", r.insts, " insts, window ", insts);
        else if ((d.cores == 1 && r.timelyPrefetches + r.latePrefetches >
                                      r.usefulPrefetches) ||
                 r.usefulPrefetches > r.issuedPrefetches)
            why = logFormat("prefetch ledger not conserved: timely ",
                            r.timelyPrefetches, " + late ",
                            r.latePrefetches, ", useful ",
                            r.usefulPrefetches, ", issued ",
                            r.issuedPrefetches);
        else if (expect && !identical(r, *expect))
            why = "results differ from the reference run of the same "
                  "descriptor";
        check(why.empty(), label, why);
    }

    /** Record any other check (a trace drain, an export, a probe). */
    void
    check(bool ok, const std::string &label, const std::string &why)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cout << "CHECK FAILED: " << label << ": " << why << "\n";
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- metrics --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        list_.push_back({name, value, unit});
    }

    void
    print() const
    {
        for (const Metric &m : list_)
            std::cout << "  " << m.name << " = " << fmtDouble(m.value, 6)
                      << " " << m.unit << "\n";
    }

    void
    writeJson(JsonWriter &w) const
    {
        w.beginObject();
        for (const Metric &m : list_) {
            w.key(m.name).beginObject();
            w.kv("value", m.value);
            w.kv("unit", m.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    std::vector<Metric> list_;
};

// --- workload definitions -------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t workloadSeed = 0; //!< 0: the calibrated defaults
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

/**
 * The job's windows for --seed: the measured window moves along the
 * trace by (seed mod 16) / 32 of the nominal warm-up, which grows by as
 * much as the measurement shrinks. Every seed so simulates the same
 * number of instructions of the same calibrated workload but measures
 * a different stretch of its trace; seed 0 is the nominal split. (A
 * different generator seed builds a different synthetic application,
 * whose host cost differs by up to 60%: --workload-seed selects that,
 * for checking the model on data held out from its tuning.)
 */
harness::RunScale
windows(std::uint64_t warm, std::uint64_t measure, const Options &o)
{
    const std::uint64_t shift = (o.seed % 16) * (warm / 32);
    return {warm + shift, measure - shift};
}

/** Figure 9 EBCP improvement (%) the paper reports per workload. */
double
paperGainPct(const std::string &workload)
{
    static const std::map<std::string, double> paper{
        {"database", 20.0}, {"tpcw", 12.0}, {"specjbb", 28.0},
        {"specjas", 24.0}};
    return paper.at(workload);
}

/** The engines the differential stack prices against null. */
const std::vector<std::string> kEngines{"ebcp-minus", "solihin-6-1", "amc",
                                        "composite"};

/** db_ebcp / tpcw_ebcp: the paper's headline configuration (default
 * SimConfig and EBCP parameters) over a long window. */
RunDesc
longRun(const Options &o)
{
    RunDesc d;
    d.workload = o.workload == "db_ebcp" ? "database" : "tpcw";
    d.pf.name = "ebcp";
    d.scale = windows(2'000'000, 16'000'000, o);
    d.seed = o.workloadSeed;
    return d;
}

/** Figure 9's parity parameters (scaled table, degree 6). */
PrefetcherParams
fig9Params(const std::string &name)
{
    PrefetcherParams p;
    p.name = name;
    p.ebcp.prefetchDegree = 6;
    p.ebcp.tableEntries = 1ULL << 16;
    p.solihin.tableEntries = 1ULL << 16;
    p.dcpt.degree = 6;
    p.amc.degree = 6;
    return p;
}

const std::vector<std::string> kSweepEngines{
    "null", "ebcp", "ebcp-minus", "solihin-6-1", "amc", "composite"};

/** paper_sweep: the four paper workloads x six engines at short
 * windows, plus 4-core database CMP points (which run cold: warm
 * reuse is single-core only). */
std::vector<RunDesc>
sweepGrid(const Options &o)
{
    std::vector<RunDesc> grid;
    for (const std::string &w : workloadNames())
        for (const std::string &e : kSweepEngines) {
            RunDesc d;
            d.workload = w;
            d.pf = fig9Params(e);
            d.scale = windows(500'000, 1'000'000, o);
            d.seed = o.workloadSeed;
            grid.push_back(d);
        }
    for (const char *e : {"null", "ebcp"}) {
        RunDesc d;
        d.workload = "database";
        d.pf = fig9Params(e);
        d.scale = windows(250'000, 500'000, o);
        d.seed = o.workloadSeed;
        d.cores = 4;
        grid.push_back(d);
    }
    return grid;
}

/** Index of @p workload / @p engine in sweepGrid(). */
std::size_t
gridIndex(const std::string &workload, const std::string &engine)
{
    const std::vector<std::string> ws = workloadNames();
    const auto wi = std::find(ws.begin(), ws.end(), workload) - ws.begin();
    const auto ei =
        std::find(kSweepEngines.begin(), kSweepEngines.end(), engine) -
        kSweepEngines.begin();
    return static_cast<std::size_t>(wi) * kSweepEngines.size() +
           static_cast<std::size_t>(ei);
}

// --- single-run jobs ------------------------------------------------

/** What one single-core run yields. */
struct SingleRun
{
    Status status;
    SimResults results;
    Interval job;   //!< set-up + warm + measure
    Interval run;   //!< warm + measure
    double setupWall = 0.0;

    // Per-layer work counters (filled when `deep`).
    prof::Report profile;
    FlatMapStats mshr;
    FlatMapStats corr;
    RingStats ring;
    std::size_t exportBytes = 0;
    double exportMs = 0.0;
    Status exportStatus;
};

/**
 * One single-core run of @p d, split at the layer calls the traced
 * run spans. With @p deep, also snapshot the self-profiler tree of
 * the run, read the hot-structure counters, and export the run as an
 * ebcp-stats-v1 document (validated).
 */
SingleRun
runSingle(const RunDesc &d, Tracer *t, bool deep = false)
{
    SingleRun out;
    Timed job(t, "job");
    Timed setup(t, "setup");
    std::unique_ptr<SyntheticWorkload> src;
    {
        Timed s(t, "trace.construct");
        StatusOr<std::unique_ptr<SyntheticWorkload>> made =
            tryMakeWorkload(d.workload, d.seed);
        if (!made.ok()) {
            out.status = made.status();
            return out;
        }
        src = made.take();
    }
    std::unique_ptr<Simulator> sim;
    {
        Timed s(t, "sim.construct");
        sim = std::make_unique<Simulator>(d.cfg, d.pf);
    }
    out.setupWall = setup.stop().wall;

    if (deep)
        prof::resetThisThread();
    Timed run(t, "sim.run");
    {
        Timed s(t, "sim.warm");
        out.status = sim->runWarm(*src, d.scale.warm);
    }
    if (out.status.ok()) {
        Timed s(t, "sim.measure");
        StatusOr<SimResults> r = sim->runMeasure(*src, d.scale.measure);
        out.status = r.status();
        if (r.ok())
            out.results = r.take();
    }
    out.run = run.stop();
    out.job = job.stop();
    if (!deep || !out.status.ok())
        return out;

    out.profile = prof::snapshotThisThread();
    out.mshr = sim->l2side().mshrs().mapStats();
    out.ring = src->ringStats();
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(&sim->prefetcher()))
        out.corr = e->table().mapStats();

    Timed ex(t, "stats.export");
    std::ostringstream os;
    JsonWriter w(os);
    beginStatsJson(w, "perfbench");
    w.beginObject();
    w.kv("label", harness::runLabel(d));
    w.key("results");
    writeSimResultsJson(w, out.results);
    w.key("stats");
    sim->dumpStatsJson(w);
    w.endObject();
    endStatsJson(w, {}, {}, prof::profileJsonString());
    const std::string doc = os.str();
    out.exportStatus = validateStatsJson(doc);
    out.exportBytes = doc.size();
    out.exportMs = ex.stop().wall * 1e3;
    return out;
}

/** The trace-only stage: construct the generator and drain the job's
 * window of records through the zero-copy span interface. */
struct DrainRun
{
    Status status;
    Interval run;
    RingStats ring;
};

DrainRun
drainTrace(const RunDesc &d, Tracer *t)
{
    DrainRun out;
    Timed job(t, "job");
    std::unique_ptr<SyntheticWorkload> src;
    {
        Timed s(t, "trace.construct");
        StatusOr<std::unique_ptr<SyntheticWorkload>> made =
            tryMakeWorkload(d.workload, d.seed);
        if (!made.ok()) {
            out.status = made.status();
            return out;
        }
        src = made.take();
    }
    Timed run(t, "trace.drain");
    std::uint64_t left = d.scale.warm + d.scale.measure;
    while (left > 0) {
        const TraceRecord *recs = nullptr;
        const std::size_t n = src->peekSpan(
            &recs, static_cast<std::size_t>(std::min<std::uint64_t>(
                       left, 4096)));
        if (n == 0) {
            out.status = Status(StatusCode::Corruption,
                                "generator ran dry before the window");
            break;
        }
        src->consumeSpan(n);
        left -= n;
    }
    out.run = run.stop();
    out.ring = src->ringStats();
    return out;
}

// --- the paper sweep job --------------------------------------------

struct SweepRun
{
    std::vector<RunResult> results;
    harness::SweepStats stats;
    Interval job;
    Status exportStatus;
    std::size_t exportBytes = 0;
    double exportMs = 0.0;
};

unsigned
sweepJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** One sweep of @p grid with warm reuse, ending with the
 * ebcp-stats-v1 export of every run (validated). */
SweepRun
runSweep(const std::vector<RunDesc> &grid, Tracer *t)
{
    SweepRun out;
    Timed job(t, "job");
    harness::SweepOptions opts;
    opts.warmReuse = true;
    opts.heartbeatSeconds = 0.0;
    harness::SweepRunner runner(sweepJobs(), opts);
    {
        Timed s(t, "sweep.run");
        out.results = runner.run(grid);
    }
    out.stats = runner.stats();
    {
        Timed s(t, "stats.export");
        std::ostringstream os;
        JsonWriter w(os);
        beginStatsJson(w, "perfbench");
        for (std::size_t i = 0; i < grid.size(); ++i) {
            if (!out.results[i].ok())
                continue;
            w.beginObject();
            w.kv("label", harness::runLabel(grid[i]));
            w.key("results");
            writeSimResultsJson(w, out.results[i].results);
            w.endObject();
        }
        endStatsJson(w);
        const std::string doc = os.str();
        out.exportStatus = validateStatsJson(doc);
        out.exportBytes = doc.size();
        out.exportMs = s.stop().wall * 1e3;
    }
    out.job = job.stop();
    return out;
}

/** Serially build every run's generators and system, as the sweep's
 * runs do before their first instruction; @return summed wall time. */
double
sweepSetupPass(const std::vector<RunDesc> &grid)
{
    double total = 0.0;
    for (const RunDesc &d : grid) {
        const double t0 = wallNow();
        std::vector<std::unique_ptr<SyntheticWorkload>> srcs;
        // Per-core seeds as the sweep derives them for CMP runs.
        for (unsigned c = 0; c < d.cores; ++c)
            srcs.push_back(makeWorkload(
                d.workload, d.cores > 1 ? (d.seed ? d.seed + c : 1000 + c)
                                        : d.seed));
        if (d.cores > 1) {
            CmpSystem sys(d.cfg, d.pf, d.cores);
        } else {
            Simulator sim(d.cfg, d.pf);
        }
        total += wallNow() - t0;
    }
    return total;
}

void
checkSweep(Checker &chk, const std::vector<RunDesc> &grid,
           const SweepRun &s, const SweepRun *first)
{
    for (std::size_t i = 0; i < grid.size(); ++i)
        chk.run("", grid[i], s.results[i].status, s.results[i].results,
                first ? &first->results[i].results : nullptr);
    chk.check(s.exportStatus.ok(), "ebcp-stats-v1 export",
              s.exportStatus.toString());
}

/** The exact simulated end-to-end results of one job. */
struct SimOutcome
{
    double cpi = 0.0;  //!< EBCP CPI (geomean over the sweep's workloads)
    double gain = 0.0; //!< EBCP over null on the same trace, %
    double gap = 0.0;  //!< |gain - paper Figure 9|, percentage points
};

SimOutcome
sweepOutcome(const SweepRun &s)
{
    SimOutcome out;
    const double n = static_cast<double>(workloadNames().size());
    double log_cpi = 0.0;
    for (const std::string &w : workloadNames()) {
        const SimResults &e = s.results[gridIndex(w, "ebcp")].results;
        const double g =
            improvementPct(s.results[gridIndex(w, "null")].results, e);
        log_cpi += std::log(e.cpi);
        out.gain += g / n;
        out.gap += std::fabs(g - paperGainPct(w)) / n;
    }
    out.cpi = std::exp(log_cpi / n);
    return out;
}

// --- probes (traced mode) -------------------------------------------

struct CkptProbe
{
    Status status;
    double saveMs = 0.0;
    double restoreMs = 0.0;
    std::size_t bytes = 0;
};

/** Warm @p d, serialize the warm state, and restore it into a fresh
 * simulator and generator -- what a sweep fork does. */
CkptProbe
probeCheckpoint(const RunDesc &d, Tracer *t)
{
    CkptProbe out;
    Timed probe(t, "probe.ckpt");
    std::unique_ptr<SyntheticWorkload> src = makeWorkload(d.workload, d.seed);
    Simulator sim(d.cfg, d.pf);
    out.status = sim.runWarm(*src, d.scale.warm);
    if (!out.status.ok())
        return out;
    std::string blob;
    {
        Timed s(t, "ckpt.save");
        StatusOr<std::string> b = sim.serializeCheckpoint(*src);
        out.saveMs = s.stop().wall * 1e3;
        if (!b.ok()) {
            out.status = b.status();
            return out;
        }
        blob = b.take();
    }
    out.bytes = blob.size();
    std::unique_ptr<SyntheticWorkload> src2 =
        makeWorkload(d.workload, d.seed);
    Simulator fork(d.cfg, d.pf);
    Timed s(t, "ckpt.restore");
    out.status = fork.restoreCheckpoint(blob, *src2);
    out.restoreMs = s.stop().wall * 1e3;
    return out;
}

/** Median construction times (ms) of the job's system and generator. */
std::pair<double, double>
probeConstruct(const RunDesc &d, Tracer *t, int reps = 5)
{
    std::vector<double> sim_ms, gen_ms;
    for (int i = 0; i < reps; ++i) {
        {
            Timed s(t, "sim.construct");
            Simulator sim(d.cfg, d.pf);
            sim_ms.push_back(s.stop().wall * 1e3);
        }
        Timed s(t, "trace.construct");
        std::unique_ptr<SyntheticWorkload> src =
            makeWorkload(d.workload, d.seed);
        gen_ms.push_back(s.stop().wall * 1e3);
    }
    return {median(sim_ms), median(gen_ms)};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- the differential stack -----------------------------------------

/** Per-round CPU ns per simulated instruction of each stack stage. */
struct StackSamples
{
    std::map<std::string, std::vector<double>> nsPerInst;
    std::map<std::string, SimResults> results; //!< round 0, per stage
    RingStats ring;
    SingleRun deepFull; //!< round 0's full run when asked for
};

/**
 * Run every stage of the stack once over @p d's trace, alternating the
 * order by round so slow drift cancels in the medians. With
 * @p deep_full, round 0's full run also records its counters,
 * profile and export.
 */
void
stackRound(const RunDesc &d, unsigned round, bool deep_full, Tracer *t,
           Checker &chk, StackSamples &out)
{
    // Stack order; the engines follow the full run.
    std::vector<std::string> order{"trace", "cpu", "cache", "full"};
    order.insert(order.end(), kEngines.begin(), kEngines.end());
    if (round % 2)
        std::reverse(order.begin(), order.end());
    const double insts = static_cast<double>(d.scale.warm + d.scale.measure);
    for (const std::string &stage : order) {
        Timed span(t, "stack." + stage);
        if (stage == "trace") {
            DrainRun r = drainTrace(d, t);
            chk.check(r.status.ok(), "stack/trace", r.status.toString());
            out.nsPerInst[stage].push_back(r.run.cpu * 1e9 / insts);
            out.ring = r.ring;
            continue;
        }
        RunDesc s = d;
        if (stage == "cpu") {
            s.cfg.perfectL2 = true;
            s.pf.name = "null";
        } else if (stage == "cache") {
            s.pf.name = "null";
        } else if (stage != "full") {
            s.pf.name = stage;
        }
        const bool deep = deep_full && stage == "full" && round == 0;
        SingleRun r = runSingle(s, t, deep);
        SimResults &ref = out.results[stage];
        chk.run("stack/" + stage, s, r.status, r.results,
                round ? &ref : nullptr);
        if (round == 0)
            ref = r.results;
        out.nsPerInst[stage].push_back(r.run.cpu * 1e9 / insts);
        if (deep)
            out.deepFull = std::move(r);
    }
}

/** Median and spread of a per-round difference series. */
struct Layer
{
    std::string name;
    double median = 0.0;
    double spread = 0.0;
};

Layer
layerOf(const std::string &name, const std::vector<double> &hi,
        const std::vector<double> *lo)
{
    std::vector<double> d;
    for (std::size_t i = 0; i < hi.size(); ++i)
        d.push_back(hi[i] - (lo ? (*lo)[i] : 0.0));
    return {name, median(d), iqr(d)};
}

/** Print the layer table and its reconciliation against the full run;
 * add the layer metrics. */
void
reportStack(const StackSamples &st, const RunDesc &d, Metrics &m)
{
    const auto &ns = st.nsPerInst;
    std::vector<Layer> layers{
        layerOf("trace", ns.at("trace"), nullptr),
        layerOf("cpu", ns.at("cpu"), &ns.at("trace")),
        layerOf("cache", ns.at("cache"), &ns.at("cpu")),
        layerOf("core", ns.at("full"), &ns.at("cache")),
    };
    for (const std::string &e : kEngines)
        layers.push_back(
            layerOf("prefetch." + e, ns.at(e), &ns.at("cache")));
    const Layer full = layerOf("full", ns.at("full"), nullptr);

    std::cout << "\nLayer table over " << harness::runLabel(d) << " (warm "
              << d.scale.warm << " + measure " << d.scale.measure
              << " insts): CPU ns per simulated instruction, median and "
                 "IQR of the per-round differences over "
              << ns.at("full").size() << " interleaved rounds\n";
    double sum = 0.0;
    for (const Layer &l : layers) {
        if (l.name.rfind("prefetch.", 0) != 0)
            sum += l.median;
        std::cout << "  " << l.name << ": " << fmtDouble(l.median, 3)
                  << " ns/inst (IQR " << fmtDouble(l.spread, 3) << ")"
                  << (std::fabs(l.median) < l.spread
                          ? "  [below its own spread]"
                          : "")
                  << "\n";
        m.add(l.name + ".ns_per_inst", l.median, "ns/inst");
    }
    const double residual = full.median - sum;
    std::cout << "  reconciliation: trace+cpu+cache+core = "
              << fmtDouble(sum, 3) << " ns/inst; full ebcp run = "
              << fmtDouble(full.median, 3) << " ns/inst (IQR "
              << fmtDouble(full.spread, 3) << "); residual "
              << fmtDouble(residual, 3) << " ns/inst, "
              << (std::fabs(residual) <= full.spread
                      ? "within the full run's spread"
                      : "OUTSIDE the full run's spread")
              << "\n";
    m.add("stack.full_ns_per_inst", full.median, "ns/inst");
    m.add("stack.residual_ns_per_inst", residual, "ns/inst");
}

/** Print the self-profiler tree, flagging any child whose estimate
 * exceeds its parent's. */
void
reportProfile(const prof::Report &p, const RunDesc &d)
{
    std::cout << "\nSelf-profiler tree of the traced " << harness::runLabel(d)
              << " run (estimated CPU)"
              << (p.enabled ? "" : ": profiler disabled") << "\n";
    std::vector<double> parent_cpu;
    for (const prof::NodeReport &n : p.nodes) {
        parent_cpu.resize(n.depth);
        const bool over =
            n.depth > 1 && n.estCpuNs > parent_cpu[n.depth - 2];
        parent_cpu[n.depth - 1] = n.estCpuNs;
        std::cout << "  " << n.path << ": visits " << n.visits << ", "
                  << fmtDouble(n.estCpuNs / 1e6, 2) << " ms"
                  << (n.sampled ? " (sampled)" : "")
                  << (over ? "  [ANOMALY: exceeds its parent]" : "")
                  << "\n";
    }
}

/** Work counters and exact results of one deep (counted) EBCP run. */
void
reportRunCounters(const SingleRun &d, Metrics &m)
{
    const SimResults &r = d.results;
    m.add("cache.mshr_finds", static_cast<double>(d.mshr.finds), "count");
    m.add("cache.mshr_probes_per_find", d.mshr.probesPerFind(),
          "probes/find");
    m.add("mem.offchip_per_1k", r.l2InstMissPer1k + r.l2LoadMissPer1k,
          "miss/kinst");
    m.add("mem.read_bus_util", r.readBusUtil * 100.0, "%");
    m.add("epoch.epochs_per_1k", r.epochsPer1k, "epochs/kinst");
    m.add("core.corr_finds", static_cast<double>(d.corr.finds), "count");
    m.add("core.corr_hit_ratio",
          d.corr.finds ? static_cast<double>(d.corr.hits) /
                             static_cast<double>(d.corr.finds)
                       : 0.0,
          "ratio");
    m.add("core.corr_probes_per_find", d.corr.probesPerFind(),
          "probes/find");
    m.add("prefetch.issued", static_cast<double>(r.issuedPrefetches),
          "count");
    m.add("prefetch.useful", static_cast<double>(r.usefulPrefetches),
          "count");
    m.add("prefetch.accuracy", r.accuracy, "ratio");
    m.add("prefetch.timeliness", r.timeliness, "ratio");
    m.add("prefetch.dropped", static_cast<double>(r.droppedPrefetches),
          "count");
}

// --- host record ----------------------------------------------------

void
writeHost(JsonWriter &w)
{
    PerfCounters pc;
    pc.start();
    pc.stop();
    const PerfSample &s = pc.sample();
    w.beginObject();
    w.kv("nproc", std::thread::hardware_concurrency());
    w.kv("build_type", PERFBENCH_BUILD_TYPE);
    w.kv("sanitize", PERFBENCH_SANITIZE);
    w.kv("lto", PERFBENCH_LTO);
    w.kv("pgo", PERFBENCH_PGO);
    w.kv("perf_available", s.available);
    w.kv("perf_reason", s.reason);
    w.kv("perf_nominal_hz", s.nominalHz);
    w.kv("perf_nominal_source", s.nominalSource);
    w.endObject();
}

/** Timing a Debug or sanitized build measures the instrumentation,
 * not the simulator: refuse with a coded error. */
Status
checkBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    bool sanitized = !std::string(PERFBENCH_SANITIZE).empty();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
    if (type != "Release" && type != "RelWithDebInfo")
        return Status(StatusCode::InvalidArgument,
                      "perfbench refuses a '" + type +
                          "' build: time only Release or RelWithDebInfo");
    if (sanitized)
        return Status(StatusCode::InvalidArgument,
                      "perfbench refuses a sanitized build");
    return Status();
}

// --- the two modes --------------------------------------------------

bool
timeLeft(double t0, const Options &o, std::size_t reps,
         std::size_t min_reps)
{
    return reps < min_reps || wallNow() - t0 < o.seconds;
}

/** End-to-end metrics of the untraced job, repeated for the budget. */
void
measureEndToEnd(const Options &o, Checker &chk, Metrics &m)
{
    std::vector<double> wall, cpu, setup;
    SimOutcome sim;
    const double t0 = wallNow();
    if (o.workload == "paper_sweep") {
        const std::vector<RunDesc> grid = sweepGrid(o);
        SweepRun first;
        for (std::size_t rep = 0; timeLeft(t0, o, rep, 3); ++rep) {
            setup.push_back(sweepSetupPass(grid));
            SweepRun s = runSweep(grid, nullptr);
            checkSweep(chk, grid, s, rep ? &first : nullptr);
            wall.push_back(s.job.wall);
            cpu.push_back(s.job.cpu);
            if (rep == 0)
                first = std::move(s);
        }
        // A forked sweep point must match a cold, serial run of it.
        const std::size_t i = gridIndex("database", "ebcp");
        RunResult cold = harness::executeRun(grid[i]);
        chk.run("cold", grid[i], cold.status, cold.results,
                &first.results[i].results);
        sim = sweepOutcome(first);
    } else {
        const RunDesc d = longRun(o);
        SimResults first;
        for (std::size_t rep = 0; timeLeft(t0, o, rep, 3); ++rep) {
            SingleRun r = runSingle(d, nullptr);
            chk.run("", d, r.status, r.results, rep ? &first : nullptr);
            if (rep == 0)
                first = r.results;
            wall.push_back(r.job.wall);
            cpu.push_back(r.job.cpu);
            setup.push_back(r.setupWall);
        }
        // The baseline for the gain: null on the same trace, once.
        RunDesc nd = d;
        nd.pf.name = "null";
        const SingleRun base = runSingle(nd, nullptr);
        chk.run("", nd, base.status, base.results);
        sim.cpi = first.cpi;
        sim.gain = improvementPct(base.results, first);
        sim.gap = std::fabs(sim.gain - paperGainPct(d.workload));
        std::cout << "cpu_s per simulated instruction: "
                  << fmtDouble(median(cpu) * 1e9 /
                                   static_cast<double>(d.scale.warm +
                                                       d.scale.measure),
                               3)
                  << " ns/inst\n";
    }
    std::cout << "end-to-end: " << wall.size() << " untraced reps; wall_s "
              << "IQR " << fmtDouble(iqr(wall), 4) << " s, cpu_s IQR "
              << fmtDouble(iqr(cpu), 4) << " s\n";
    m.add("wall_s", median(wall), "s");
    m.add("cpu_s", median(cpu), "s");
    m.add("setup_s", median(setup), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("sim_cpi", sim.cpi, "cycles/inst");
    m.add("sim_gain_pct", sim.gain, "%");
    m.add("paper_gap_pp", sim.gap, "pp");
}

/** Per-layer metrics from the traced run. */
void
measureLayers(const Options &o, Checker &chk, Metrics &m, Tracer &t)
{
    const bool sweep = o.workload == "paper_sweep";
    const std::vector<RunDesc> grid = sweepGrid(o);
    // The single-run job, or the sweep's database/ebcp point.
    const RunDesc d = sweep ? grid[gridIndex("database", "ebcp")]
                            : longRun(o);
    // The stack runs over the same trace; for the single-run jobs over
    // a 5M-instruction prefix of it, so that more interleaved rounds
    // fit in the budget.
    RunDesc sd = d;
    if (!sweep)
        sd.scale = windows(1'000'000, 4'000'000, o);

    StackSamples st;
    std::vector<double> overhead, efficiency;
    SweepRun traced_sweep, untraced_sweep;
    SingleRun traced;
    SimResults untraced;
    const double t0 = wallNow();
    for (unsigned round = 0; timeLeft(t0, o, round, 3); ++round) {
        // Untraced and traced jobs as a pair, their order alternating.
        if (sweep) {
            SweepRun u, s;
            if (round % 2) {
                s = runSweep(grid, &t);
                u = runSweep(grid, nullptr);
            } else {
                u = runSweep(grid, nullptr);
                s = runSweep(grid, &t);
            }
            checkSweep(chk, grid, u, round ? &untraced_sweep : nullptr);
            checkSweep(chk, grid, s, round ? &untraced_sweep : &u);
            overhead.push_back((s.job.cpu / u.job.cpu - 1.0) * 100.0);
            efficiency.push_back(s.job.cpu / (s.stats.jobs * s.job.wall));
            if (round == 0) {
                untraced_sweep = std::move(u);
                traced_sweep = std::move(s);
            }
        } else {
            SingleRun u, s;
            if (round % 2) {
                s = runSingle(d, &t);
                u = runSingle(d, nullptr);
            } else {
                u = runSingle(d, nullptr);
                s = runSingle(d, &t, round == 0);
            }
            chk.run("untraced", d, u.status, u.results,
                    round ? &untraced : nullptr);
            if (round == 0)
                untraced = u.results;
            chk.run("traced", d, s.status, s.results, &untraced);
            overhead.push_back((s.job.cpu / u.job.cpu - 1.0) * 100.0);
            if (round == 0)
                traced = std::move(s);
        }
        stackRound(sd, round, sweep, &t, chk, st);
    }
    // The run whose counters, profile and export the table reports.
    const SingleRun &deep = sweep ? st.deepFull : traced;
    chk.check(deep.exportStatus.ok(), "ebcp-stats-v1 export",
              deep.exportStatus.toString());


    reportStack(st, sd, m);
    reportProfile(deep.profile, sweep ? sd : d);
    m.add("trace.ring_grows", static_cast<double>(st.ring.grows), "count");
    m.add("cpu.sim_cpi_perfect_l2", st.results.at("cpu").cpi,
          "cycles/inst");
    reportRunCounters(deep, m);

    const auto [sim_ms, gen_ms] = probeConstruct(d, &t);
    m.add("sim.construct_ms", sim_ms, "ms");
    m.add("sim.workload_construct_ms", gen_ms, "ms");

    const CkptProbe ck = probeCheckpoint(d, &t);
    chk.check(ck.status.ok(), "checkpoint probe", ck.status.toString());
    m.add("ckpt.save_ms", ck.saveMs, "ms");
    m.add("ckpt.restore_ms", ck.restoreMs, "ms");
    m.add("ckpt.bytes", static_cast<double>(ck.bytes), "bytes");

    // The single-run jobs go through the sweep engine once too: one
    // warm build and one fork, which must match the direct run.
    if (!sweep) {
        Timed s(&t, "probe.sweep_fork");
        traced_sweep = runSweep({d}, &t);
        checkSweep(chk, {d}, traced_sweep, nullptr);
        chk.run("forked", d, traced_sweep.results[0].status,
                traced_sweep.results[0].results, &untraced);
        efficiency.push_back(traced_sweep.job.cpu /
                             (traced_sweep.stats.jobs *
                              traced_sweep.job.wall));
    }
    const harness::SweepStats &ss = traced_sweep.stats;
    m.add("harness.warm_builds", static_cast<double>(ss.warmBuilds),
          "count");
    m.add("harness.warm_forks", static_cast<double>(ss.warmForks), "count");
    m.add("harness.cold_fallbacks", static_cast<double>(ss.coldFallbacks),
          "count");
    m.add("harness.parallel_efficiency", median(efficiency), "ratio");
    m.add("stats.export_ms", sweep ? traced_sweep.exportMs : deep.exportMs,
          "ms");
    m.add("stats.export_bytes",
          static_cast<double>(sweep ? traced_sweep.exportBytes
                                    : deep.exportBytes),
          "bytes");
    m.add("tracing.overhead_pct", median(overhead), "%");
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "db_ebcp|tpcw_ebcp|paper_sweep --seed N --seconds S "
                 "--trace 0|1 [--workload-seed G] [--spans PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed" || k == "--workload-seed") {
            (k == "--seed" ? o.seed : o.workloadSeed) =
                std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                return usage("malformed " + k + " '" + v + "'");
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0.0))
                return usage("malformed --seconds '" + v + "'");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (k == "--spans") {
            o.spansPath = v;
        } else {
            return usage("unknown argument '" + k + "'");
        }
    }
    if (o.workload != "db_ebcp" && o.workload != "tpcw_ebcp" &&
        o.workload != "paper_sweep")
        return usage("unknown workload '" + o.workload + "'");
    if (Status b = checkBuild(); !b.ok()) {
        std::cerr << "perfbench: " << b.toString() << "\n";
        return 3;
    }

    std::cout << "perfbench " << o.workload << ": seed " << o.seed
              << " (window shift " << o.seed % 16 << "/32 of warm-up), "
              << "workload seed " << o.workloadSeed
              << (o.workloadSeed ? "" : " (calibrated defaults)") << ", "
              << o.seconds << " s, " << (o.trace ? "traced" : "untraced")
              << "\n";
    Checker chk;
    Metrics m;
    Tracer tracer;
    if (o.trace)
        measureLayers(o, chk, m, tracer);
    else
        measureEndToEnd(o, chk, m);

    std::cout << "\nmetrics:\n";
    m.print();
    std::cout << "error_rate = "
              << fmtDouble(chk.attempted()
                               ? static_cast<double>(chk.failed()) /
                                     static_cast<double>(chk.attempted())
                               : 1.0,
                           6)
              << " (" << chk.failed() << " of " << chk.attempted()
              << " runs failed)\n";

    if (!o.spansPath.empty() && !tracer.empty()) {
        std::ofstream f(o.spansPath);
        JsonWriter w(f);
        tracer.writeJson(w);
        f << "\n";
        if (!f)
            chk.check(false, "span log", "cannot write " + o.spansPath);
    }

    const bool correct = chk.failed() == 0 && chk.attempted() > 0;
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("correct", correct);
    w.kv("attempted", chk.attempted());
    w.kv("failed", chk.failed());
    w.key("metrics");
    m.writeJson(w);
    w.key("host");
    writeHost(w);
    w.endObject();
    std::cout << os.str() << std::endl;
    return correct ? 0 : 1;
}
