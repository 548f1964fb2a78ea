/**
 * @file
 * The full-configuration command-line driver: every knob of the
 * simulator and of the prefetchers, exposed as key=value arguments.
 *
 * Usage examples:
 *   ebcp_cli workload=database prefetcher=ebcp degree=8 \
 *            table_entries=1048576 warm=4000000 measure=8000000
 *   ebcp_cli trace=/tmp/db.trc prefetcher=solihin-6-1
 *   ebcp_cli workload=specjbb cores=4 prefetcher=ebcp per_core=1
 *   ebcp_cli workload=tpcw prefetcher=ghb-large dump_stats=1
 *
 * Observability:
 *   ebcp_cli workload=database trace_out=db.trace.json \
 *            stats_json=stats.json interval=500000
 *
 * Robustness knobs:
 *   ebcp_cli workload=database faults=trace-bitflip,table-drop \
 *            fault_rate=1e-3 trace_policy=skip-corrupt dump_stats=1
 *   ebcp_cli workload=database faults=demand-stall stall_after=100000 \
 *            watchdog=1000000
 *
 * Unknown keys are rejected with a nearest-key suggestion; a typo
 * must not silently run the defaults. Run with help=1 for the list.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "harness/telemetry.hh"
#include "sim/api.hh"
#include "harness/stats_json.hh"
#include "stats/interval.hh"
#include "trace/fault_injection.hh"
#include "trace/trace_file.hh"
#include "trace/workloads.hh"
#include "util/config.hh"
#include "util/event_trace.hh"
#include "util/logging.hh"
#include "util/profiler.hh"

using namespace ebcp;

namespace
{

std::string
prefetcherHelpLine()
{
    // Generated from the factory registry so the help text can never
    // drift from what createPrefetcher actually accepts.
    std::string line = "  prefetcher=";
    std::size_t col = line.size();
    bool first = true;
    for (const std::string &n : prefetcherNames()) {
        const std::string sep = first ? "" : "|";
        if (col + sep.size() + n.size() > 70) {
            line += sep + "\n             ";
            col = 13;
            line += n;
        } else {
            line += sep + n;
            col += sep.size() + n.size();
        }
        first = false;
    }
    return line + "\n";
}

void
printHelp()
{
    std::cout <<
        "ebcp_cli key=value ...\n"
        "\n"
        "run control:\n"
        "  workload=database|tpcw|specjbb|specjas   synthetic workload\n"
        "  trace=PATH          replay a trace file instead\n"
        "  seed=N              workload seed override (CMP core i\n"
        "                      replays seed+i, or 1000+i at 0)\n"
        "  warm=N measure=N    window sizes (insts)\n"
        "  cores=N             CMP mode with N cores (workloads only)\n"
        "  dump_stats=0|1      dump every statistic after the run\n"
        "\n"
        "prefetcher:\n"
        << prefetcherHelpLine() <<
        "  degree=N            prefetch degree (EBCP/DCPT/AMC)\n"
        "  table_entries=N     EBCP/Solihin table entries (pow2)\n"
        "  train_all=0|1       EBCP: key every oldest-epoch miss\n"
        "  on_chip_table=0|1   EBCP: idealized zero-cost table\n"
        "  per_core=0|1        EBCP: per-core EMABs in CMP mode\n"
        "  composite_engines=A,B,...\n"
        "                      composite: child engines, by factory\n"
        "                      name (default stream,dcpt,amc,ebcp)\n"
        "  calib_interval=N    composite: L2 accesses per controller\n"
        "                      calibration interval (default 8192)\n"
        "\n"
        "machine:\n"
        "  l2_kb=N             L2 size in KB (default 2048)\n"
        "  pf_buffer=N         prefetch buffer entries (default 64)\n"
        "  bw_scale=F          memory bandwidth scale (default 1.0)\n"
        "  mem_latency=N       unloaded memory latency (default 500)\n"
        "  rob=N               reorder buffer entries (default 128)\n"
        "  perfect_l2=0|1      CPI_perf mode\n"
        "\n"
        "robustness:\n"
        "  faults=LIST         comma-separated fault kinds to inject:\n"
        "                      trace-bitflip|trace-truncate|\n"
        "                      trace-shortread|table-drop|table-delay|\n"
        "                      demand-stall\n"
        "  fault_seed=N        fault-injection seed (default 1)\n"
        "  fault_rate=F        per-opportunity fault probability\n"
        "                      (default 1e-3)\n"
        "  stall_after=N       demand accesses before demand-stall\n"
        "  trace_policy=strict|skip-corrupt|stop-at-corrupt\n"
        "                      reaction to corrupt trace chunks\n"
        "  watchdog=N          max ticks between retirements before the\n"
        "                      run is declared stalled (0 = off)\n"
        "  audit=off|retire|epoch|every:N\n"
        "                      invariant-audit cadence: re-derive every\n"
        "                      component's structural invariants after\n"
        "                      each retire, each epoch boundary, or\n"
        "                      every N ticks (default off)\n"
        "  audit_policy=collect|abort\n"
        "                      on a violation: keep running and report,\n"
        "                      or stop the run with an error\n"
        "\n"
        "checkpointing:\n"
        "  save_ckpt=PATH      snapshot the warmed state to PATH\n"
        "                      (written atomically) before measuring\n"
        "  restore_ckpt=PATH   restore warm state from PATH instead of\n"
        "                      running the warm-up window\n"
        "  ckpt_policy=strict|rebuild\n"
        "                      on a corrupt / mismatched checkpoint:\n"
        "                      fail with a coded error, or warn and\n"
        "                      fall back to a cold warm-up\n"
        "\n"
        "observability:\n"
        "  trace_out=PATH      export the lifecycle timeline as Chrome\n"
        "                      trace_event JSON (Perfetto-loadable)\n"
        "  stats_json=PATH     structured report in the ebcp-stats-v1\n"
        "                      schema (results + full statistic tree;\n"
        "                      watchdog diagnostics on stalls)\n"
        "  interval=N          snapshot statistics every N measured\n"
        "                      insts; the series lands in stats_json's\n"
        "                      \"intervals\" member (single-core only).\n"
        "                      With trace_out= it also drives counter\n"
        "                      tracks (MSHR / prefetch-buffer / table\n"
        "                      occupancy, per-source accuracy)\n"
        "  profile=0|1         hierarchical self-profiler (default 1);\n"
        "                      the phase tree lands in stats_json's\n"
        "                      \"profile\" member and as flame spans in\n"
        "                      trace_out\n"
        "  telemetry_out=PATH  stream run progress as CRC-tagged JSON\n"
        "                      lines (the sweep engine's telemetry\n"
        "                      record contract, with this run as a\n"
        "                      one-descriptor sweep)\n"
        "  metrics_out=PATH    Prometheus-style text metrics snapshot,\n"
        "                      atomically rewritten at completion\n";
}

const std::vector<std::string> &
knownKeys()
{
    static const std::vector<std::string> keys = {
        "help",        "workload",    "trace",        "seed",
        "warm",        "measure",     "cores",        "dump_stats",
        "prefetcher",  "degree",      "table_entries","train_all",
        "on_chip_table","per_core",   "composite_engines",
        "calib_interval",             "l2_kb",        "pf_buffer",
        "bw_scale",    "mem_latency", "rob",          "perfect_l2",
        "faults",      "fault_seed",  "fault_rate",   "stall_after",
        "trace_policy","watchdog",    "trace_out",    "stats_json",
        "interval",    "audit",       "audit_policy", "save_ckpt",
        "restore_ckpt","ckpt_policy", "profile",      "telemetry_out",
        "metrics_out",
    };
    return keys;
}

int
fail(const Status &s)
{
    std::cerr << "ebcp_cli: " << s.toString() << "\n";
    return 1;
}

Status
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        return ioError(logFormat("cannot open ", path, " for writing"));
    out << text;
    out.close();
    if (!out)
        return ioError(logFormat("short write to ", path));
    return Status();
}

/**
 * Frame, write and self-validate one ebcp-stats-v1 document. @p emit
 * writes the run objects; @p diagnostic_raw (a complete JSON value or
 * empty) becomes the top-level "diagnostic" member on stalled runs,
 * and @p audit_raw (an audit summary object or empty) the top-level
 * "audit" member.
 */
template <typename EmitRuns>
Status
exportStatsDoc(const std::string &path, EmitRuns &&emit,
               const std::string &diagnostic_raw = {},
               const std::string &audit_raw = {})
{
    std::ostringstream ss;
    JsonWriter w(ss);
    beginStatsJson(w, "ebcp_cli");
    emit(w);
    endStatsJson(w, diagnostic_raw, audit_raw,
                 prof::profileJsonString());
    if (Status s = writeTextFile(path, ss.str()); !s.ok())
        return s;
    return validateStatsJsonFile(path);
}

/** One-line audit summary for the console report. */
void
printAuditSummary(const Auditor *aud)
{
    if (!aud)
        return;
    const AuditContext &ctx = aud->context();
    std::cout << "  audit: " << aud->passes() << " passes, "
              << ctx.checksRun() << " checks, "
              << ctx.totalViolations() << " violations\n";
}

int
exportTrace(TraceLog &tlog, const std::string &path)
{
    // The self-profiler's phase tree rides along as a flame on its
    // own process row, next to the simulated timeline.
    prof::exportProfileSpans(tlog);
    if (Status s = tlog.exportChromeJson(path); !s.ok())
        return fail(s);
    std::cout << "  wrote " << path << " (" << tlog.totalEvents()
              << " events, " << tlog.totalDropped()
              << " dropped, validated)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    StatusOr<ConfigStore> parsed = ConfigStore::parseArgs(argc, argv);
    if (!parsed.ok())
        return fail(parsed.status());
    ConfigStore cs = parsed.take();

    if (cs.getBool("help", false)) {
        printHelp();
        return 0;
    }
    if (Status s = cs.checkKnownKeys(knownKeys()); !s.ok())
        return fail(s);

    SimConfig cfg;
    cfg.l2.sizeBytes = cs.getU64("l2_kb", 2048) * KiB;
    cfg.prefetchBufferEntries =
        static_cast<unsigned>(cs.getU64("pf_buffer", 64));
    cfg.mem.latency = cs.getU64("mem_latency", 500);
    cfg.mem.scaleBandwidth(cs.getDouble("bw_scale", 1.0));
    cfg.core.robEntries = static_cast<unsigned>(cs.getU64("rob", 128));
    cfg.perfectL2 = cs.getBool("perfect_l2", false);
    cfg.watchdogTicks = cs.getU64("watchdog", 0);

    StatusOr<FaultPlan> plan =
        FaultPlan::parse(cs.getString("faults", ""),
                         cs.getU64("fault_seed", 1));
    if (!plan.ok())
        return fail(plan.status());
    cfg.faults = plan.take();
    cfg.faults.rate = cs.getDouble("fault_rate", 1e-3);
    cfg.faults.stallAfter = cs.getU64("stall_after", 100'000);

    const std::string policy_name = cs.getString("trace_policy", "strict");
    StatusOr<TraceReadPolicy> policy = traceReadPolicyFromName(policy_name);
    if (!policy.ok())
        return fail(policy.status());

    AuditOptions audit_opts;
    if (Status s = parseAuditCadence(cs.getString("audit", "off"),
                                     audit_opts);
        !s.ok())
        return fail(s);
    if (Status s = parseAuditPolicy(cs.getString("audit_policy", "collect"),
                                    audit_opts);
        !s.ok())
        return fail(s);

    const std::string trace_out = cs.getString("trace_out", "");
    const std::string stats_json_path = cs.getString("stats_json", "");
    const std::uint64_t interval = cs.getU64("interval", 0);
    const std::string telemetry_out = cs.getString("telemetry_out", "");
    const std::string metrics_out = cs.getString("metrics_out", "");
    prof::setEnabled(cs.getBool("profile", true));
    const auto run_start = std::chrono::steady_clock::now();

    const std::string save_ckpt = cs.getString("save_ckpt", "");
    const std::string restore_ckpt = cs.getString("restore_ckpt", "");
    StatusOr<ckpt::CkptPolicy> ckpt_policy_or =
        ckpt::ckptPolicyFromName(cs.getString("ckpt_policy", "strict"));
    if (!ckpt_policy_or.ok())
        return fail(ckpt_policy_or.status());
    const ckpt::CkptPolicy ckpt_policy = ckpt_policy_or.value();

    const unsigned cores =
        static_cast<unsigned>(cs.getU64("cores", 1));

    PrefetcherParams pf;
    pf.name = cs.getString("prefetcher", "ebcp");
    pf.ebcp.prefetchDegree =
        static_cast<unsigned>(cs.getU64("degree", 8));
    pf.ebcp.tableEntries = cs.getU64("table_entries", 1ULL << 20);
    pf.solihin.tableEntries = pf.ebcp.tableEntries;
    pf.ebcp.trainAllOldestMisses = cs.getBool("train_all", false);
    pf.ebcp.onChipTable = cs.getBool("on_chip_table", false);
    pf.ebcp.faults = cfg.faults;
    if (cs.getBool("per_core", true))
        pf.ebcp.numCoreStates = cores;
    if (cs.has("degree")) {
        const unsigned deg =
            static_cast<unsigned>(cs.getU64("degree", 8));
        pf.dcpt.degree = deg;
        pf.amc.degree = deg;
    }
    pf.composite.calibInterval = cs.getU64("calib_interval", 8192);
    if (cs.has("composite_engines")) {
        pf.composite.engines.clear();
        std::string list = cs.getString("composite_engines", "");
        std::size_t start = 0;
        while (start <= list.size()) {
            std::size_t comma = list.find(',', start);
            if (comma == std::string::npos)
                comma = list.size();
            std::string item = list.substr(start, comma - start);
            if (!item.empty())
                pf.composite.engines.push_back(item);
            start = comma + 1;
        }
    }

    // Probe the factory up front: an unknown scheme or a nonsense
    // parameter (degree=0, a non-power-of-two table) comes back as a
    // coded Status with a nearest-name suggestion, instead of
    // aborting deep inside a constructor.
    if (StatusOr<std::unique_ptr<Prefetcher>> probe =
            tryCreatePrefetcher(pf);
        !probe.ok())
        return fail(probe.status());

    const std::uint64_t warm = cs.getU64("warm", 2'000'000);
    const std::uint64_t measure = cs.getU64("measure", 4'000'000);

    // Build each core's trace source chain: a file (single-core only)
    // or a workload instance, optionally wrapped in the fault injector.
    if (cores == 0)
        return fail(invalidArgError("cores= must be at least 1"));
    if (cores > 1 && cs.has("trace"))
        return fail(invalidArgError("CMP mode replays workloads only"));
    std::vector<std::unique_ptr<TraceSource>> owned;
    FileTraceSource *file_src = nullptr;
    std::string source_name;
    if (cs.has("trace")) {
        source_name = cs.getString("trace", "");
        StatusOr<std::unique_ptr<FileTraceSource>> f =
            FileTraceSource::open(source_name, true, policy.value());
        if (!f.ok())
            return fail(f.status());
        file_src = f.value().get();
        owned.push_back(f.take());
    } else {
        source_name = cs.getString("workload", "database");
        for (unsigned i = 0; i < cores; ++i) {
            StatusOr<std::unique_ptr<SyntheticWorkload>> w =
                tryMakeWorkload(source_name,
                                coreSeed(cs.getU64("seed", 0), i, cores));
            if (!w.ok())
                return fail(w.status());
            owned.push_back(w.take());
        }
    }

    std::vector<std::unique_ptr<FaultInjectingTraceSource>> injectors;
    std::vector<TraceSource *> sources;
    for (const auto &o : owned) {
        sources.push_back(o.get());
        if (cfg.faults.traceBitflip || cfg.faults.traceTruncate ||
            cfg.faults.traceShortRead) {
            injectors.push_back(
                std::make_unique<FaultInjectingTraceSource>(*o,
                                                            cfg.faults));
            sources.back() = injectors.back().get();
        }
    }
    const std::string label =
        source_name + "/" + pf.name +
        (cores > 1 ? "/cmp" + std::to_string(cores) : "");
    // Telemetry sees this run as a one-run sweep, so the sweep
    // engine's consumers (tail -f, the metrics scraper) read it too.
    harness::SweepTelemetry telem(telemetry_out, metrics_out);
    telem.begin(1, [&](std::size_t) { return label; });
    telem.runState(0, "running");
    auto endTelemetry = [&](const Status &s, std::uint64_t insts) {
        telem.runDone(0, s, insts, false, false);
        harness::SweepStats st;
        st.launched = 1;
        st.addRun(s, insts, false, false);
        st.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - run_start)
                             .count();
        telem.end(st);
    };

    TraceLog tlog;
    std::unique_ptr<IntervalSampler> sampler;
    auto sim = std::make_unique<Simulator>(cfg, pf, cores);
    // Setup is a lambda because a rebuild-policy fallback after a bad
    // checkpoint constructs a fresh simulator and must redo it.
    auto setupSim = [&](Simulator &s) -> Status {
        if (Status st = s.configureAudit(audit_opts); !st.ok())
            return st;
        if (!trace_out.empty())
            s.attachTraceLog(tlog);
        s.setTracePolicyName(policy_name);
        if (interval) {
            sampler = std::make_unique<IntervalSampler>(
                s.l2side().stats(), interval);
            if (Status st = s.setSampler(sampler.get()); !st.ok())
                return st;
        }
        return Status();
    };
    if (Status s = setupSim(*sim); !s.ok())
        return fail(s);

    bool cold = true;
    if (!restore_ckpt.empty()) {
        Status rs = sim->restoreCheckpointFile(restore_ckpt, sources);
        if (rs.ok()) {
            cold = false;
            std::cout << "  restored checkpoint " << restore_ckpt
                      << "\n";
        } else if (ckpt_policy == ckpt::CkptPolicy::Strict) {
            return fail(rs);
        } else {
            // Rebuild: the failed restore may have half-written
            // component state, so start over from scratch.
            warn("checkpoint '", restore_ckpt, "' unusable (",
                 rs.toString(), "); rebuilding warm state cold");
            sim = std::make_unique<Simulator>(cfg, pf, cores);
            if (Status s = setupSim(*sim); !s.ok())
                return fail(s);
            for (TraceSource *src : sources)
                src->reset();
        }
    }

    StatusOr<SimResults> res = [&]() -> StatusOr<SimResults> {
        if (cold)
            if (Status ws = sim->runWarm(sources, warm); !ws.ok())
                return ws;
        if (!save_ckpt.empty()) {
            if (Status ss = sim->saveCheckpoint(save_ckpt, sources);
                !ss.ok())
                return ss;
            std::cout << "  wrote checkpoint " << save_ckpt << "\n";
        }
        return sim->runMeasure(sources, measure);
    }();
    if (!res.ok()) {
        // Best-effort artifacts: the trace up to the stall and the
        // watchdog diagnostic are exactly what the operator needs.
        if (!stats_json_path.empty()) {
            Status s =
                exportStatsDoc(stats_json_path, [](JsonWriter &) {},
                               sim->lastDiagnosticJson(),
                               sim->auditSummaryJson());
            if (!s.ok())
                std::cerr << "ebcp_cli: stats_json export failed: "
                          << s.toString() << "\n";
        }
        if (!trace_out.empty())
            exportTrace(tlog, trace_out);
        endTelemetry(res.status(), 0);
        return fail(res.status());
    }
    SimResults r = res.take();
    endTelemetry(Status(), r.insts);

    std::cout << (cores > 1 ? std::to_string(cores) + "-core " : "")
              << "'" << source_name << "' with " << pf.name << ":\n"
              << "  CPI " << r.cpi << "\n"
              << "  epochs/1000 insts " << r.epochsPer1k << "\n"
              << "  L2 miss/1000: inst " << r.l2InstMissPer1k
              << ", load " << r.l2LoadMissPer1k << "\n"
              << "  coverage " << r.coverage * 100.0 << "%, accuracy "
              << r.accuracy * 100.0 << "%\n"
              << "  prefetches: issued " << r.issuedPrefetches
              << ", useful " << r.usefulPrefetches << ", dropped "
              << r.droppedPrefetches << "\n"
              << "  lifecycle: timely " << r.timelyPrefetches
              << ", late " << r.latePrefetches << ", early-evicted "
              << r.earlyEvictedPrefetches << " (timeliness "
              << r.timeliness * 100.0 << "%)\n"
              << "  bus utilization: read " << r.readBusUtil * 100.0
              << "%, write " << r.writeBusUtil * 100.0 << "%\n";
    for (unsigned i = 0; cores > 1 && i < cores; ++i)
        std::cout << "  core " << i << ": CPI " << sim->core(i).cpi()
                  << "\n";
    printAuditSummary(sim->auditor());

    // Robustness report: what was injected, what was recovered.
    for (const auto &inj : injectors)
        std::cout << "  faults injected: " << inj->bitflipsInjected()
                  << " bitflips, " << inj->shortReadsInjected()
                  << " short reads (" << inj->recordsDropped()
                  << " records), " << inj->truncationsInjected()
                  << " truncations\n";
    if (file_src) {
        std::cout << "  trace integrity: " << file_src->corruptChunks()
                  << " corrupt chunks, " << file_src->recordsSkipped()
                  << " records skipped, " << file_src->truncatedTails()
                  << " truncated tails, " << file_src->recordsSanitized()
                  << " records sanitized\n";
        if (!file_src->status().ok())
            return fail(file_src->status());
    }

    if (cs.getBool("dump_stats", false)) {
        sim->dumpStats(std::cout);
        for (unsigned i = 0; i < injectors.size(); ++i)
            injectors[i]->stats().dump(
                std::cout, cores > 1 ? logFormat("core", i) : "");
        if (file_src)
            file_src->stats().dump(std::cout);
    }

    if (!trace_out.empty())
        if (int rc = exportTrace(tlog, trace_out))
            return rc;
    if (!stats_json_path.empty()) {
        Status s = exportStatsDoc(
            stats_json_path,
            [&](JsonWriter &w) {
                w.beginObject();
                w.kv("label", label);
                w.key("results");
                writeSimResultsJson(w, r);
                w.key("stats");
                sim->dumpStatsJson(w);
                if (sampler) {
                    w.key("intervals");
                    sampler->writeJson(w);
                }
                w.endObject();
            },
            {}, sim->auditSummaryJson());
        if (!s.ok())
            return fail(s);
        std::cout << "  wrote " << stats_json_path << " (schema "
                  << StatsJsonSchema << ", validated)\n";
    }
    return 0;
}
