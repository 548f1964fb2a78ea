#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness/journal.hh"
#include "harness/telemetry.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/random.hh"

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

namespace
{

/** Everything result-shaping in @p d, in canonical archiver bytes. */
void
serializeDescIdentity(ckpt::Archiver &ar, const RunDesc &d,
                      bool include_measure)
{
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
    if (include_measure) {
        std::uint64_t measure = d.scale.measure;
        ar.u64(measure);
    }
}

std::uint64_t
descHash(const RunDesc &d, bool include_measure)
{
    std::string bytes;
    ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
    serializeDescIdentity(ar, d, include_measure);
    return ckpt::fnv1a64(bytes.data(), bytes.size());
}

} // namespace

std::uint64_t
descFingerprint(const RunDesc &d)
{
    return descHash(d, true);
}

std::uint64_t
warmFingerprint(const RunDesc &d)
{
    return descHash(d, false);
}

std::uint64_t
retryBackoffMs(const RetryPolicy &policy, std::uint64_t run_key,
               unsigned attempt)
{
    if (policy.baseDelayMs == 0 || policy.maxDelayMs == 0)
        return 0;
    const unsigned exponent =
        std::min(attempt > 0 ? attempt - 1 : 0u, 20u);
    const std::uint64_t raw = std::min(policy.baseDelayMs << exponent,
                                       policy.maxDelayMs);
    // Deterministic per-(run, attempt) jitter in [raw/2, raw]: a
    // fixed policy seed fixes the whole schedule, and distinct runs
    // retrying the same attempt never thundering-herd in lockstep.
    Pcg32 rng(policy.seed ^ run_key, 0x5eedba11ULL + attempt);
    const std::uint64_t half = raw / 2;
    const std::uint64_t span = raw - half + 1;
    return half + rng.below(static_cast<std::uint32_t>(
                      std::min<std::uint64_t>(span, 0xffffffffULL)));
}

bool
statusRetryable(const Status &s)
{
    switch (s.code()) {
      case StatusCode::InvalidArgument:
      case StatusCode::NotFound:
        return false; // deterministic bad input; retrying cannot help
      default:
        return !s.ok();
    }
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

class WarmCache
{
  public:
    WarmEntry &
    entry(std::uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::unique_ptr<WarmEntry> &slot = map_[key];
        if (!slot)
            slot = std::make_unique<WarmEntry>();
        return *slot;
    }

  private:
    std::mutex mu_;
    std::map<std::uint64_t, std::unique_ptr<WarmEntry>> map_;
};

/** Per-sweep execution context threaded into every run. */
struct ExecContext
{
    SweepOptions opts;
    WarmCache *warm = nullptr; //!< null = no warm reuse
    std::atomic<std::uint64_t> *warmBuilds = nullptr;
    std::atomic<std::uint64_t> *warmForks = nullptr;
    std::atomic<std::uint64_t> *coldFallbacks = nullptr;
    TelemetryStream *telemetry = nullptr; //!< null = no streaming
    bool corruptWarm = false;
    CkptFaultKind corruptKind = CkptFaultKind::CrcFlip;
    std::uint64_t corruptSeed = 1;
};

/** Rendered `data` object of a live run_state record. */
std::string
liveRunStateJson(const RunDesc &d, const char *state)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("label", runLabel(d));
    w.kv("state", state);
    w.endObject();
    return os.str();
}

void
armDeadline(Simulator &sim, double seconds)
{
    if (seconds <= 0.0)
        return;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    for (unsigned i = 0; i < sim.cores(); ++i)
        sim.core(i).setWallDeadline(deadline);
}

/** Name the failure when the wall budget, not a retire gap, tripped. */
Status
timeoutContext(Status s, Simulator &sim, double seconds)
{
    for (unsigned i = 0; i < sim.cores(); ++i)
        if (!s.ok() && sim.core(i).wallDeadlineTripped())
            return s.withContext(logFormat("run exceeded the ", seconds,
                                           "s wall-clock budget"));
    return s;
}

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
executeCold(const RunDesc &d, const ExecContext &ctx)
{
    RunResult out;
    RunSources rs = buildSources(d);
    if (!rs.status.ok()) {
        out.status = rs.status;
        return out;
    }
    Simulator sim(d.cfg, rs.pf, d.cores);
    armDeadline(sim, ctx.opts.runTimeoutSeconds);
    StatusOr<SimResults> r =
        sim.tryRun(rs.sources, d.scale.warm, d.scale.measure);
    if (!r.ok()) {
        out.status = timeoutContext(r.status(), sim,
                                    ctx.opts.runTimeoutSeconds)
                         .withContext(runLabel(d));
        return out;
    }
    out.results = r.take();
    return out;
}

/** One run forking its measurement from the shared warm checkpoint;
 * degrades per CkptPolicy when the checkpoint is bad. */
RunResult
executeWarm(const RunDesc &d, const ExecContext &ctx)
{
    WarmEntry &entry = ctx.warm->entry(warmFingerprint(d));
    std::call_once(entry.once, [&] {
        if (ctx.telemetry)
            ctx.telemetry->emitLive(
                "run_state", liveRunStateJson(d, "warm-building"));
        RunSources ws = buildSources(d);
        if (!ws.status.ok()) {
            entry.status = ws.status;
            return;
        }
        Simulator wsim(d.cfg, ws.pf, d.cores);
        armDeadline(wsim, ctx.opts.runTimeoutSeconds);
        Status s = wsim.runWarm(ws.sources, d.scale.warm);
        if (!s.ok()) {
            entry.status = timeoutContext(std::move(s), wsim,
                                          ctx.opts.runTimeoutSeconds);
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
             cause.toString(),
             "); falling back to a cold warm-up (ckpt_policy=rebuild)");
        RunResult r = executeCold(d, ctx);
        r.coldFallback = true;
        if (ctx.coldFallbacks)
            ctx.coldFallbacks->fetch_add(1, std::memory_order_relaxed);
        return r;
    };

    RunResult out;
    if (!entry.status.ok()) {
        if (ctx.opts.ckptPolicy == ckpt::CkptPolicy::Strict) {
            out.status = entry.status.withContext(runLabel(d));
            return out;
        }
        return coldFallback("warm checkpoint unavailable", entry.status);
    }

    RunSources rs = buildSources(d);
    if (!rs.status.ok()) {
        out.status = rs.status;
        return out;
    }
    Simulator sim(d.cfg, rs.pf, d.cores);
    armDeadline(sim, ctx.opts.runTimeoutSeconds);
    Status restored = sim.restoreCheckpoint(entry.blob, rs.sources);
    if (!restored.ok()) {
        // The failed restore half-wrote the simulator and the sources;
        // both are abandoned here, never run.
        if (ctx.opts.ckptPolicy == ckpt::CkptPolicy::Strict) {
            out.status = restored.withContext(
                logFormat(runLabel(d), ": warm checkpoint restore"));
            return out;
        }
        return coldFallback("warm checkpoint restore failed", restored);
    }
    out.warmForked = true;
    if (ctx.warmForks)
        ctx.warmForks->fetch_add(1, std::memory_order_relaxed);
    if (ctx.telemetry)
        ctx.telemetry->emitLive("run_state",
                                liveRunStateJson(d, "warm-forked"));
    StatusOr<SimResults> r = sim.runMeasure(rs.sources, d.scale.measure);
    if (!r.ok()) {
        out.status = timeoutContext(r.status(), sim,
                                    ctx.opts.runTimeoutSeconds)
                         .withContext(runLabel(d));
        return out;
    }
    out.results = r.take();
    return out;
}

RunResult
executeRunCtx(const RunDesc &d, const ExecContext &ctx)
{
    try {
        return ctx.warm ? executeWarm(d, ctx) : executeCold(d, ctx);
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
    ExecContext ctx;
    return executeRunCtx(d, ctx);
}

SweepRunner::SweepRunner(unsigned jobs, SweepOptions opts)
    : jobs_(jobs ? jobs : defaultJobs()), opts_(std::move(opts))
{}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunDesc> &descs)
{
    const auto start = std::chrono::steady_clock::now();

    std::vector<RunResult> results(descs.size());
    std::vector<std::uint64_t> keys(descs.size());
    std::vector<char> todo(descs.size(), 1);

    std::unique_ptr<SweepJournal> journal;
    if (!opts_.journalPath.empty()) {
        journal = std::make_unique<SweepJournal>(opts_.journalPath);
        Status js = journal->load();
        if (!js.ok()) {
            // A journal that cannot even be read disables durability
            // for this invocation; it must never fail the sweep.
            warn("sweep journal disabled: ", js.toString());
            journal.reset();
        }
    }

    std::size_t resumed = 0;
    for (std::size_t i = 0; i < descs.size(); ++i) {
        keys[i] = descFingerprint(descs[i]);
        if (!journal)
            continue;
        JournalRecord rec;
        if (journal->lookup(keys[i], rec)) {
            results[i].status = rec.status();
            results[i].results = rec.results;
            results[i].attempts = rec.attempts;
            results[i].warmForked = rec.warmForked;
            results[i].coldFallback = rec.coldFallback;
            results[i].fromJournal = true;
            todo[i] = 0;
            ++resumed;
        }
    }

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

    // Live progress counters, shared with the heartbeat thread and
    // seeded with the journal-replayed results.
    std::atomic<std::uint64_t> liveCompleted{0}, liveFailed{0},
        liveInsts{0};
    for (std::size_t i = 0; i < descs.size(); ++i) {
        if (todo[i])
            continue;
        if (results[i].ok()) {
            liveCompleted.fetch_add(1, std::memory_order_relaxed);
            liveInsts.fetch_add(results[i].results.insts,
                                std::memory_order_relaxed);
        } else {
            liveFailed.fetch_add(1, std::memory_order_relaxed);
        }
    }

    // Deterministic records: sweep_begin, then one terminal run_state
    // per descriptor in submission order. Finished runs park in a
    // reorder buffer until every earlier descriptor has reported, so
    // the deterministic subsequence is byte-identical at any jobs=N
    // (pinned by tests/test_telemetry.cc).
    std::mutex detMu;
    std::vector<std::string> detSlot(descs.size());
    std::vector<char> detReady(descs.size(), 0);
    std::size_t detNext = 0;
    auto terminalRunStateJson = [&](std::size_t i, const RunResult &r) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.kv("index", static_cast<std::uint64_t>(i));
        w.kv("label", runLabel(descs[i]));
        w.kv("state", r.ok() ? "done" : "failed");
        w.kv("ok", r.ok());
        w.kv("code", statusCodeName(r.status.code()));
        w.kv("attempts", r.attempts);
        w.kv("from_journal", r.fromJournal);
        w.kv("warm_forked", r.warmForked);
        w.kv("cold_fallback", r.coldFallback);
        w.kv("insts", r.ok() ? r.results.insts : std::uint64_t(0));
        w.endObject();
        return os.str();
    };
    auto emitTerminal = [&](std::size_t i, const RunResult &r) {
        if (!telemetry)
            return;
        std::lock_guard<std::mutex> lock(detMu);
        detSlot[i] = terminalRunStateJson(i, r);
        detReady[i] = 1;
        while (detNext < detReady.size() && detReady[detNext]) {
            telemetry->emitDeterministic("run_state", detSlot[detNext]);
            detSlot[detNext].clear();
            ++detNext;
        }
    };
    if (telemetry) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.kv("runs", static_cast<std::uint64_t>(descs.size()));
        w.kv("resumed", static_cast<std::uint64_t>(resumed));
        w.endObject();
        telemetry->emitDeterministic("sweep_begin", os.str());
        for (std::size_t i = 0; i < descs.size(); ++i)
            if (todo[i])
                telemetry->emitLive(
                    "run_state", liveRunStateJson(descs[i], "queued"));
        for (std::size_t i = 0; i < descs.size(); ++i)
            if (!todo[i])
                emitTerminal(i, results[i]);
    }

    WarmCache warm;
    std::atomic<std::uint64_t> retries{0}, backoffMs{0}, warmBuilds{0},
        warmForks{0}, coldFallbacks{0};
    ExecContext ctx;
    ctx.opts = opts_;
    ctx.warm = opts_.warmReuse ? &warm : nullptr;
    ctx.warmBuilds = &warmBuilds;
    ctx.warmForks = &warmForks;
    ctx.coldFallbacks = &coldFallbacks;
    ctx.telemetry = telemetry.get();
    ctx.corruptWarm = corruptWarm_;
    ctx.corruptKind = corruptKind_;
    ctx.corruptSeed = corruptSeed_;

    const unsigned max_attempts = std::max(1u, opts_.retry.maxAttempts);
    auto runOne = [&](std::size_t i) {
        const RunDesc &d = descs[i];
        RunResult out;
        for (unsigned attempt = 1;; ++attempt) {
            if (ctx.telemetry)
                ctx.telemetry->emitLive(
                    "run_state",
                    liveRunStateJson(d, attempt > 1 ? "retrying"
                                                    : "running"));
            out = executeRunCtx(d, ctx);
            out.attempts = attempt;
            if (out.ok() || attempt >= max_attempts ||
                !statusRetryable(out.status))
                break;
            const std::uint64_t delay =
                retryBackoffMs(opts_.retry, keys[i], attempt);
            backoffMs.fetch_add(delay, std::memory_order_relaxed);
            retries.fetch_add(1, std::memory_order_relaxed);
            if (opts_.retry.sleep && delay)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
        }
        results[i] = out;
        if (out.ok()) {
            liveCompleted.fetch_add(1, std::memory_order_relaxed);
            liveInsts.fetch_add(out.results.insts,
                                std::memory_order_relaxed);
        } else {
            liveFailed.fetch_add(1, std::memory_order_relaxed);
        }
        emitTerminal(i, out);
        if (journal) {
            JournalRecord rec;
            rec.key = keys[i];
            rec.code = out.status.code();
            rec.message = out.status.message();
            rec.results = out.results;
            rec.attempts = out.attempts;
            rec.warmForked = out.warmForked;
            rec.coldFallback = out.coldFallback;
            Status as = journal->append(rec);
            if (!as.ok())
                warn("sweep journal append failed: ", as.toString());
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, descs.size()));

    auto snapshotNow = [&](bool done) {
        MetricsSnapshot m;
        m.runsTotal = descs.size();
        m.completed = liveCompleted.load(std::memory_order_relaxed);
        m.failed = liveFailed.load(std::memory_order_relaxed);
        m.measuredInsts = liveInsts.load(std::memory_order_relaxed);
        m.retries = retries.load(std::memory_order_relaxed);
        m.warmBuilds = warmBuilds.load(std::memory_order_relaxed);
        m.warmForks = warmForks.load(std::memory_order_relaxed);
        m.coldFallbacks =
            coldFallbacks.load(std::memory_order_relaxed);
        m.resumed = resumed;
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
    auto heartbeatJson = [&](const MetricsSnapshot &m) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.kv("runs", m.runsTotal);
        w.kv("completed", m.completed);
        w.kv("failed", m.failed);
        w.kv("measured_insts", m.measuredInsts);
        w.kv("insts_per_sec", m.instsPerSec);
        w.kv("elapsed_seconds", m.elapsedSeconds);
        // Naive proportional ETA: wrong early, honest late -- and
        // never pretends precision it does not have.
        const std::uint64_t finished = m.completed + m.failed;
        const std::uint64_t remaining =
            m.runsTotal - std::min(m.runsTotal, finished);
        w.kv("eta_seconds",
             finished > 0 ? m.elapsedSeconds *
                                static_cast<double>(remaining) /
                                static_cast<double>(finished)
                          : 0.0);
        w.endObject();
        return os.str();
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
        for (std::size_t i = 0; i < descs.size(); ++i)
            if (todo[i])
                runOne(i);
    } else {
        // Work stealing off a shared index: workers claim the next
        // unstarted descriptor and write results[i] in place, so the
        // output order is the submission order no matter who runs
        // what.
        std::atomic<std::size_t> next{0};
        auto worker = [&]() {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= descs.size())
                    return;
                if (todo[i])
                    runOne(i);
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

    stats_ = SweepStats{};
    stats_.launched = descs.size();
    stats_.jobs = workers ? workers : 1;
    for (const RunResult &r : results) {
        if (r.ok()) {
            ++stats_.completed;
            stats_.measuredInsts += r.results.insts;
        } else {
            ++stats_.failed;
        }
    }
    stats_.resumed = resumed;
    stats_.retries =
        static_cast<std::size_t>(retries.load(std::memory_order_relaxed));
    stats_.warmBuilds = static_cast<std::size_t>(
        warmBuilds.load(std::memory_order_relaxed));
    stats_.warmForks = static_cast<std::size_t>(
        warmForks.load(std::memory_order_relaxed));
    stats_.coldFallbacks = static_cast<std::size_t>(
        coldFallbacks.load(std::memory_order_relaxed));
    stats_.backoffMsTotal = backoffMs.load(std::memory_order_relaxed);
    stats_.journalSkipped = journal ? journal->skippedLines() : 0;
    stats_.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    if (telemetry) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.kv("runs", static_cast<std::uint64_t>(stats_.launched));
        w.kv("completed", static_cast<std::uint64_t>(stats_.completed));
        w.kv("failed", static_cast<std::uint64_t>(stats_.failed));
        w.kv("measured_insts", stats_.measuredInsts);
        w.kv("resumed", static_cast<std::uint64_t>(stats_.resumed));
        w.kv("retries", static_cast<std::uint64_t>(stats_.retries));
        w.kv("warm_builds",
             static_cast<std::uint64_t>(stats_.warmBuilds));
        w.kv("warm_forks",
             static_cast<std::uint64_t>(stats_.warmForks));
        w.kv("cold_fallbacks",
             static_cast<std::uint64_t>(stats_.coldFallbacks));
        w.endObject();
        telemetry->emitDeterministic("sweep_end", os.str());
    }
    if (!opts_.metricsPath.empty()) {
        Status ms =
            writeMetricsSnapshot(opts_.metricsPath, snapshotNow(true));
        if (!ms.ok())
            warn("sweep metrics snapshot failed: ", ms.toString());
    }
    return results;
}

} // namespace ebcp::harness
