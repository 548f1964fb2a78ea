#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "harness/telemetry.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"

namespace ebcp::harness
{

std::uint64_t
runSeed(const RunDesc &d)
{
    if (d.seed)
        return d.seed;
    // The workload table owns the calibrated default seeds; reuse it
    // so runSeed() and execution can never disagree.
    StatusOr<WorkloadConfig> cfg = tryWorkloadByName(d.workload, 0);
    return cfg.ok() ? cfg.value().seed : 0;
}

std::string
runLabel(const RunDesc &d)
{
    if (!d.label.empty())
        return d.label;
    return d.workload + "/" + d.pf.name;
}

unsigned
defaultJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

std::uint64_t
warmFingerprint(const RunDesc &d)
{
    // Everything in d that shapes its warm state, in canonical
    // archiver bytes.
    std::string bytes;
    ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
    std::string workload = d.workload;
    std::uint64_t seed = d.seed;
    unsigned cores = d.cores;
    std::uint64_t warm = d.scale.warm;
    ar.str(workload);
    ar.u64(seed);
    ar.uns(cores);
    ar.u64(warm);
    serializeConfigIdentity(ar, d.cfg);
    serializePrefetcherIdentity(ar, d.pf);
    return ckpt::fnv1a64(bytes.data(), bytes.size());
}

std::vector<std::size_t>
dispatchOrder(const std::vector<RunDesc> &descs)
{
    std::vector<std::uint64_t> cost(descs.size());
    std::vector<std::size_t> order(descs.size());
    for (std::size_t i = 0; i < descs.size(); ++i) {
        cost[i] = descs[i].cores * (descs[i].scale.warm +
                                    descs[i].scale.measure);
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

namespace
{

/** One warm checkpoint, built exactly once per fingerprint. */
struct WarmEntry
{
    std::once_flag once;
    std::string blob;
    Status status;
};

/**
 * The warm checkpoint each of @p descs forks from: an entry of
 * @p entries for every run whose warm fingerprint another run shares,
 * null for the rest. Those run cold; a checkpoint that nothing else
 * forks would only add a save, a restore and a cached blob to the run.
 */
std::vector<WarmEntry *>
planWarmReuse(const std::vector<RunDesc> &descs,
              std::map<std::uint64_t, WarmEntry> &entries)
{
    std::vector<std::uint64_t> key(descs.size());
    std::map<std::uint64_t, std::size_t> sharers;
    for (std::size_t i = 0; i < descs.size(); ++i)
        ++sharers[key[i] = warmFingerprint(descs[i])];
    std::vector<WarmEntry *> warm(descs.size(), nullptr);
    for (std::size_t i = 0; i < descs.size(); ++i)
        if (sharers[key[i]] > 1)
            warm[i] = &entries[key[i]];
    return warm;
}

/** Per-sweep execution context threaded into every run. */
struct ExecContext
{
    std::atomic<std::uint64_t> *warmBuilds = nullptr;
    std::atomic<std::uint64_t> *warmForks = nullptr;
    std::atomic<std::uint64_t> *coldFallbacks = nullptr;
    TelemetryStream *telemetry = nullptr; //!< null = no streaming
    bool corruptWarm = false;
    CkptFaultKind corruptKind = CkptFaultKind::CrcFlip;
    std::uint64_t corruptSeed = 1;
};

/** The per-core trace-source stacks + effective prefetcher params of
 * one run; mirrors examples/ebcp_cli's wiring, including the
 * fault-injection wrappers and the EBCP-side fault plan. */
struct RunSources
{
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<std::unique_ptr<FaultInjectingTraceSource>> injectors;
    std::vector<TraceSource *> sources;
    PrefetcherParams pf;
    Status status;
};

RunSources
buildSources(const RunDesc &d)
{
    RunSources out;
    if (d.cores == 0) {
        out.status = invalidArgError(runLabel(d), ": zero cores");
        return out;
    }
    const FaultPlan &faults = d.cfg.faults;
    for (unsigned i = 0; i < d.cores; ++i) {
        StatusOr<std::unique_ptr<SyntheticWorkload>> src =
            tryMakeWorkload(d.workload, coreSeed(d.seed, i, d.cores));
        if (!src.ok()) {
            out.status = src.status().withContext(runLabel(d));
            return out;
        }
        out.owned.push_back(src.take());
        out.sources.push_back(out.owned.back().get());
        if (faults.traceBitflip || faults.traceTruncate ||
            faults.traceShortRead) {
            out.injectors.push_back(
                std::make_unique<FaultInjectingTraceSource>(
                    *out.sources.back(), faults));
            out.sources.back() = out.injectors.back().get();
        }
    }

    out.pf = d.pf;
    if (faults.any())
        out.pf.ebcp.faults = faults;

    // Validate the prefetcher name up front: the Simulator
    // constructor treats an unknown name as fatal, but a sweep
    // must degrade to a per-run error instead.
    StatusOr<std::unique_ptr<Prefetcher>> probe =
        tryCreatePrefetcher(out.pf);
    if (!probe.ok())
        out.status = probe.status().withContext(runLabel(d));
    return out;
}

/** One run with a full (cold) warm-up window. */
RunResult
executeCold(const RunDesc &d)
{
    RunResult out;
    RunSources rs = buildSources(d);
    if (!rs.status.ok()) {
        out.status = rs.status;
        return out;
    }
    Simulator sim(d.cfg, rs.pf, d.cores);
    StatusOr<SimResults> r =
        sim.tryRun(rs.sources, d.scale.warm, d.scale.measure);
    if (!r.ok()) {
        out.status = r.status().withContext(runLabel(d));
        return out;
    }
    out.results = r.take();
    return out;
}

/** One run forking its measurement from the shared warm checkpoint
 * @p entry; runs cold instead when the checkpoint is bad. */
RunResult
executeWarm(const RunDesc &d, const ExecContext &ctx, WarmEntry &entry)
{
    std::call_once(entry.once, [&] {
        if (ctx.telemetry)
            ctx.telemetry->emitLive(
                "run_state",
                liveRunStateJson(runLabel(d), "warm-building"));
        RunSources ws = buildSources(d);
        if (!ws.status.ok()) {
            entry.status = ws.status;
            return;
        }
        Simulator wsim(d.cfg, ws.pf, d.cores);
        Status s = wsim.runWarm(ws.sources, d.scale.warm);
        if (!s.ok()) {
            entry.status = std::move(s);
            return;
        }
        StatusOr<std::string> blob = wsim.serializeCheckpoint(ws.sources);
        if (!blob.ok()) {
            entry.status = blob.status();
            return;
        }
        entry.blob = blob.take();
        if (ctx.corruptWarm)
            injectCkptFault(entry.blob, ctx.corruptKind, ctx.corruptSeed);
        if (ctx.warmBuilds)
            ctx.warmBuilds->fetch_add(1, std::memory_order_relaxed);
    });

    auto coldFallback = [&](const char *why,
                            const Status &cause) -> RunResult {
        warn("sweep run ", runLabel(d), ": ", why, " (",
             cause.toString(), "); falling back to a cold warm-up");
        RunResult r = executeCold(d);
        r.coldFallback = true;
        if (ctx.coldFallbacks)
            ctx.coldFallbacks->fetch_add(1, std::memory_order_relaxed);
        return r;
    };

    if (!entry.status.ok())
        return coldFallback("warm checkpoint unavailable", entry.status);

    RunResult out;
    RunSources rs = buildSources(d);
    if (!rs.status.ok()) {
        out.status = rs.status;
        return out;
    }
    Simulator sim(d.cfg, rs.pf, d.cores);
    Status restored = sim.restoreCheckpoint(entry.blob, rs.sources);
    if (!restored.ok()) {
        // The failed restore half-wrote the simulator and the sources;
        // both are abandoned here, never run.
        return coldFallback("warm checkpoint restore failed", restored);
    }
    out.warmForked = true;
    if (ctx.warmForks)
        ctx.warmForks->fetch_add(1, std::memory_order_relaxed);
    if (ctx.telemetry)
        ctx.telemetry->emitLive(
            "run_state", liveRunStateJson(runLabel(d), "warm-forked"));
    StatusOr<SimResults> r = sim.runMeasure(rs.sources, d.scale.measure);
    if (!r.ok()) {
        out.status = r.status().withContext(runLabel(d));
        return out;
    }
    out.results = r.take();
    return out;
}

/** One run: forked from @p warm when given, otherwise cold. */
RunResult
executeRunCtx(const RunDesc &d, const ExecContext &ctx, WarmEntry *warm)
{
    try {
        return warm ? executeWarm(d, ctx, *warm) : executeCold(d);
    } catch (const std::exception &e) {
        RunResult out;
        out.status = Status(StatusCode::Corruption,
                            logFormat(runLabel(d),
                                      ": uncaught exception: ", e.what()));
        return out;
    }
}

} // namespace

RunResult
executeRun(const RunDesc &d)
{
    return executeRunCtx(d, ExecContext{}, nullptr);
}

SweepRunner::SweepRunner(unsigned jobs, SweepOptions opts)
    : jobs_(jobs ? jobs : defaultJobs()), opts_(std::move(opts))
{}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunDesc> &descs)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results(descs.size());

    std::unique_ptr<TelemetryStream> telemetry;
    if (!opts_.telemetryPath.empty()) {
        telemetry =
            std::make_unique<TelemetryStream>(opts_.telemetryPath);
        if (!telemetry->openStatus().ok()) {
            // Telemetry must never fail the sweep: an unopenable
            // stream degrades to none, with one structured warning.
            warn("sweep telemetry disabled: ",
                 telemetry->openStatus().toString());
            telemetry.reset();
        }
    }

    // Live progress counters, shared with the heartbeat thread.
    std::atomic<std::uint64_t> liveCompleted{0}, liveFailed{0},
        liveInsts{0};

    // Deterministic records: sweep_begin, then one terminal run_state
    // per descriptor in submission order. Finished runs park in a
    // reorder buffer until every earlier descriptor has reported, so
    // the deterministic subsequence is byte-identical at any jobs=N
    // (pinned by tests/test_telemetry.cc).
    std::mutex detMu;
    std::vector<std::string> detSlot(descs.size());
    std::vector<char> detReady(descs.size(), 0);
    std::size_t detNext = 0;
    auto emitTerminal = [&](std::size_t i, const RunResult &r) {
        if (!telemetry)
            return;
        std::lock_guard<std::mutex> lock(detMu);
        detSlot[i] = terminalRunStateJson(
            i, runLabel(descs[i]), r.status, r.results.insts,
            r.warmForked, r.coldFallback);
        detReady[i] = 1;
        while (detNext < detReady.size() && detReady[detNext]) {
            telemetry->emitDeterministic("run_state", detSlot[detNext]);
            detSlot[detNext].clear();
            ++detNext;
        }
    };
    if (telemetry) {
        telemetry->emitDeterministic("sweep_begin",
                                     sweepBeginJson(descs.size()));
        for (const RunDesc &d : descs)
            telemetry->emitLive("run_state",
                                liveRunStateJson(runLabel(d), "queued"));
    }

    // The plan: the order workers claim runs in, and the warm
    // checkpoint (if any) each one forks from.
    const std::vector<std::size_t> order = dispatchOrder(descs);
    std::map<std::uint64_t, WarmEntry> warmEntries;
    const std::vector<WarmEntry *> warmOf =
        opts_.warmReuse ? planWarmReuse(descs, warmEntries)
                        : std::vector<WarmEntry *>(descs.size(), nullptr);

    std::atomic<std::uint64_t> warmBuilds{0}, warmForks{0},
        coldFallbacks{0};
    ExecContext ctx;
    ctx.warmBuilds = &warmBuilds;
    ctx.warmForks = &warmForks;
    ctx.coldFallbacks = &coldFallbacks;
    ctx.telemetry = telemetry.get();
    ctx.corruptWarm = corruptWarm_;
    ctx.corruptKind = corruptKind_;
    ctx.corruptSeed = corruptSeed_;

    auto runOne = [&](std::size_t i) {
        if (telemetry)
            telemetry->emitLive(
                "run_state", liveRunStateJson(runLabel(descs[i]), "running"));
        results[i] = executeRunCtx(descs[i], ctx, warmOf[i]);
        const RunResult &out = results[i];
        if (out.ok()) {
            liveCompleted.fetch_add(1, std::memory_order_relaxed);
            liveInsts.fetch_add(out.results.insts,
                                std::memory_order_relaxed);
        } else {
            liveFailed.fetch_add(1, std::memory_order_relaxed);
        }
        emitTerminal(i, out);
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, order.size()));

    auto snapshotNow = [&](bool done) {
        MetricsSnapshot m;
        m.runsTotal = descs.size();
        m.completed = liveCompleted.load(std::memory_order_relaxed);
        m.failed = liveFailed.load(std::memory_order_relaxed);
        m.measuredInsts = liveInsts.load(std::memory_order_relaxed);
        m.warmBuilds = warmBuilds.load(std::memory_order_relaxed);
        m.warmForks = warmForks.load(std::memory_order_relaxed);
        m.coldFallbacks =
            coldFallbacks.load(std::memory_order_relaxed);
        m.jobs = workers ? workers : 1;
        m.elapsedSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        m.instsPerSec = m.elapsedSeconds > 0.0
                            ? static_cast<double>(m.measuredInsts) /
                                  m.elapsedSeconds
                            : 0.0;
        m.done = done;
        return m;
    };

    std::thread heartbeat;
    std::mutex hbMu;
    std::condition_variable hbCv;
    bool hbStop = false;
    if (opts_.heartbeatSeconds > 0.0 &&
        (telemetry || !opts_.metricsPath.empty())) {
        heartbeat = std::thread([&] {
            std::unique_lock<std::mutex> lock(hbMu);
            while (!hbCv.wait_for(
                lock,
                std::chrono::duration<double>(opts_.heartbeatSeconds),
                [&] { return hbStop; })) {
                const MetricsSnapshot m = snapshotNow(false);
                if (telemetry)
                    telemetry->emitLive("heartbeat", heartbeatJson(m));
                if (!opts_.metricsPath.empty()) {
                    Status ms =
                        writeMetricsSnapshot(opts_.metricsPath, m);
                    if (!ms.ok())
                        warn("sweep metrics snapshot failed: ",
                             ms.toString());
                }
            }
        });
    }

    if (workers <= 1) {
        for (std::size_t i : order)
            runOne(i);
    } else {
        // Each idle worker claims the next run of the plan's order,
        // costliest first, and writes results[i] in place, so the
        // output order is the submission order no matter who runs
        // what.
        std::atomic<std::size_t> next{0};
        auto worker = [&]() {
            for (;;) {
                const std::size_t k =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (k >= order.size())
                    return;
                runOne(order[k]);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (heartbeat.joinable()) {
        {
            std::lock_guard<std::mutex> lock(hbMu);
            hbStop = true;
        }
        hbCv.notify_all();
        heartbeat.join();
    }

    // Every run has finished, so the live counters are final.
    const MetricsSnapshot totals = snapshotNow(true);
    stats_ = SweepStats{};
    stats_.launched = totals.runsTotal;
    stats_.completed = totals.completed;
    stats_.failed = totals.failed;
    stats_.jobs = totals.jobs;
    stats_.measuredInsts = totals.measuredInsts;
    stats_.warmBuilds = totals.warmBuilds;
    stats_.warmForks = totals.warmForks;
    stats_.coldFallbacks = totals.coldFallbacks;
    stats_.wallSeconds = totals.elapsedSeconds;

    if (telemetry)
        telemetry->emitDeterministic("sweep_end", sweepEndJson(totals));
    if (!opts_.metricsPath.empty()) {
        Status ms = writeMetricsSnapshot(opts_.metricsPath, totals);
        if (!ms.ok())
            warn("sweep metrics snapshot failed: ", ms.toString());
    }
    return results;
}

} // namespace ebcp::harness
