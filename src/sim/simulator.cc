#include "sim/simulator.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "ckpt/containers.hh"
#include "sim/ckpt_io.hh"
#include "sim/watchdog.hh"
#include "util/logging.hh"
#include "util/profiler.hh"

namespace ebcp
{

namespace
{

/** Mean instructions a core runs per CMP scheduling turn. Small
 * quanta interleave the cores' misses at near-single-miss
 * granularity, as concurrent execution does. */
constexpr std::uint32_t kInterleaveQuantum = 100;

} // namespace

std::uint64_t
coreSeed(std::uint64_t seed, unsigned core, unsigned cores)
{
    if (cores == 1)
        return seed;
    return (seed ? seed : 1000) + core;
}

Simulator::Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
                     unsigned cores)
    : cfg_(cfg), pf_(pf), mem_(cfg.mem), prefetcher_(createPrefetcher(pf))
{
    fatal_if(cores == 0, "a system needs at least one core");
    l2side_ = std::make_unique<L2Subsystem>(cfg_, mem_, *prefetcher_);
    for (unsigned i = 0; i < cores; ++i) {
        ports_.push_back(std::make_unique<Hierarchy>(cfg_, *l2side_, i));
        cores_.push_back(
            std::make_unique<CoreModel>(cfg_.core, *ports_[i]));
        cores_[i]->setWatchdog(cfg_.watchdogTicks);
    }
    // Each core names its own group "core"; re-register the groups
    // under their dump keys so several cores stay apart in dumps.
    for (unsigned i = 0; i < cores; ++i) {
        const StatGroup &own = cores_[i]->stats();
        coreStats_.push_back(std::make_unique<StatGroup>(coreName(i)));
        for (StatBase *s : own.stats())
            coreStats_[i]->add(*s);
        for (StatGroup *c : own.children())
            coreStats_[i]->addChild(*c);
    }

    // The EBCP's table entries can span multiple transfer units at
    // high degree; charge its table traffic accordingly.
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        l2side_->setTableTransferBytes(
            e->table().config().entryTransferBytes());
}

std::string
Simulator::coreName(unsigned i) const
{
    return cores() == 1 ? std::string("core") : logFormat("core", i);
}

void
Simulator::checkSources(const SourceList &src) const
{
    fatal_if(src.size() != cores(), "the system has ", cores(),
             " cores but was given ", src.size(), " trace sources");
}

Status
Simulator::progressStatus(unsigned i)
{
    CoreModel &core = *cores_[i];
    if (core.watchdogTripped()) {
        WatchdogContext ctx;
        ctx.tracePolicy = tracePolicyName_;
        const std::string label = cores() == 1 ? "" : coreName(i);
        std::ostringstream json;
        JsonWriter w(json);
        progressDiagnosticJson(w, label, core, *l2side_, mem_,
                               *prefetcher_, ctx);
        lastDiagnosticJson_ = json.str();
        return stalledError(progressDiagnostic(label, core, *l2side_, mem_,
                                               *prefetcher_, ctx));
    }
    if (auditor_ && auditor_->abortRequested())
        return auditor_->toStatus();
    return Status();
}

Status
Simulator::configureAudit(const AuditOptions &opts)
{
    if (!opts.enabled()) {
        for (auto &c : cores_)
            c->setAuditor(nullptr);
        l2side_->setAuditor(nullptr);
        auditor_.reset();
        return Status();
    }
    auditor_ = std::make_unique<Auditor>(opts);
    AuditRegistry &reg = auditor_->registry();
    for (unsigned i = 0; i < cores(); ++i)
        reg.add(coreName(i),
                [this, i](AuditContext &c) { cores_[i]->audit(c); });
    reg.add("l2", [this](AuditContext &c) { l2side_->l2().audit(c); });
    reg.add("l2.prefetch_buffer", [this](AuditContext &c) {
        l2side_->prefetchBuffer().audit(c);
    });
    reg.add("l2.mshrs",
            [this](AuditContext &c) { l2side_->mshrs().audit(c); });
    reg.add("l2.cross", [this](AuditContext &c) { l2side_->audit(c); });
    // The demand tracker's internal span invariants, plus cross-pass
    // monotonicity of the epoch ids it hands out.
    reg.add("epochs", [this, last = EpochId(0)](AuditContext &c) mutable {
        EpochTracker &t = l2side_->epochTracker();
        t.audit(c);
        c.check(t.currentEpoch() >= last, "epoch_ids_monotonic",
                "epoch id went from ", last, " back to ",
                t.currentEpoch());
        last = t.currentEpoch();
    });
    reg.add("memory", [this](AuditContext &c) { mem_.audit(c); });
    reg.add("prefetcher",
            [this](AuditContext &c) { prefetcher_->audit(c); });
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get())) {
        // Conservation and latency bounds between the control and the
        // memory system live in neither component.
        reg.add("ebcp.table_traffic", [this, e](AuditContext &c) {
            if (!e->config().onChipTable)
                c.check(e->tableReadAttemptsLifetime() ==
                            l2side_->tableReadsServedLifetime(),
                        "table_read_conservation",
                        e->tableReadAttemptsLifetime(),
                        " table reads attempted by the control but ",
                        l2side_->tableReadsServedLifetime(),
                        " reached the memory system");
            c.check(e->maxTableReadTicks() <=
                        mem_.maxLowPriorityReadLatency(),
                    "table_read_latency_bounded",
                    "a served table read took ", e->maxTableReadTicks(),
                    " ticks, above the served-read bound of ",
                    mem_.maxLowPriorityReadLatency());
        });
    }
    for (auto &c : cores_)
        c->setAuditor(auditor_.get());
    l2side_->setAuditor(auditor_.get());
    return Status();
}

Status
Simulator::setSampler(IntervalSampler *sampler)
{
    if (sampler && cores() > 1)
        return invalidArgError(
            "interval sampling is single-core only: exact sample "
            "boundaries would cut the ", cores(),
            " cores' interleaving turns");
    sampler_ = sampler;
    return Status();
}

Status
Simulator::runPhase(SourceList src, std::uint64_t insts)
{
    // One profiler visit per phase, not per interleaving turn: a
    // timed visit costs four clock reads.
    EBCP_PROFILE_SCOPE(CoreLoop);
    if (cores() == 1) {
        cores_[0]->run(src[0], insts);
        return progressStatus(0);
    }

    // Round-robin in small *randomized* quanta. Each core has its own
    // timeline; the shared structures (L2, buses, prefetcher) see the
    // cores' requests approximately interleaved. The jittered quantum
    // matters: a fixed rotation would interleave the miss streams at
    // deterministic distances, which a distance-keyed predictor could
    // exploit -- real concurrent cores interleave stochastically.
    std::uint64_t remaining = insts * cores();
    std::vector<std::uint64_t> done(cores(), 0);
    while (remaining > 0) {
        for (unsigned i = 0; i < cores(); ++i) {
            const std::uint64_t turn =
                kInterleaveQuantum / 2 + rng_.below(kInterleaveQuantum);
            const std::uint64_t chunk = std::min(turn, insts - done[i]);
            if (chunk == 0)
                continue;
            cores_[i]->run(src[i], chunk);
            if (Status s = progressStatus(i); !s.ok())
                return s;
            done[i] += chunk;
            remaining -= chunk;
        }
    }
    return Status();
}

Status
Simulator::runSampled(TraceSource &src, std::uint64_t insts)
{
    // Drive the window in interval-sized chunks so the sampler sees
    // exact boundaries. Bit-exact vs one run() call: the core's loop
    // state lives entirely in its members.
    EBCP_PROFILE_SCOPE(CoreLoop);
    CoreModel &core = *cores_[0];
    const std::uint64_t interval = sampler_->interval();
    std::uint64_t done = 0;
    while (done < insts) {
        const std::uint64_t chunk =
            std::min(interval - done % interval, insts - done);
        core.run(src, chunk);
        if (Status s = progressStatus(0); !s.ok())
            return s;
        const std::uint64_t got = core.measuredInsts();
        if (got == done)
            break; // trace exhausted
        done = got;
        sampler_->sample(done);
        if (traceLog_)
            sampleCounterTracks();
    }
    return Status();
}

StatusOr<SimResults>
Simulator::tryRun(SourceList src, std::uint64_t warm_insts,
                  std::uint64_t measure_insts)
{
    if (Status s = runWarm(src, warm_insts); !s.ok())
        return s;
    return runMeasure(src, measure_insts);
}

Status
Simulator::runWarm(SourceList src, std::uint64_t warm_insts)
{
    checkSources(src);
    return runPhase(src, warm_insts);
}

StatusOr<SimResults>
Simulator::runMeasure(SourceList src, std::uint64_t measure_insts)
{
    checkSources(src);
    for (unsigned i = 0; i < cores(); ++i) {
        cores_[i]->beginMeasurement();
        ports_[i]->beginMeasurement();
    }
    l2side_->beginMeasurement();
    mem_.stats().resetAll();
    readBusyMark_ = mem_.readChannel().busyTicks();
    writeBusyMark_ = mem_.writeChannel().busyTicks();

    if (Status s = sampler_ ? runSampled(src[0], measure_insts)
                            : runPhase(src, measure_insts);
        !s.ok())
        return s;

    // One final pass so every configured run ends with at least one
    // full audit, whatever the cadence saw during the window.
    if (auditor_) {
        Tick now = 0;
        for (const auto &c : cores_)
            now = std::max(now, c->now());
        auditor_->runNow(now);
        if (auditor_->abortRequested())
            return auditor_->toStatus();
    }
    return collect();
}

SimResults
Simulator::run(SourceList src, std::uint64_t warm_insts,
               std::uint64_t measure_insts)
{
    StatusOr<SimResults> r = tryRun(src, warm_insts, measure_insts);
    fatal_if(!r.ok(), r.status().toString());
    return r.take();
}

void
Simulator::sampleCounterTracks()
{
    const Tick now = cores_[0]->now();
    traceLog_->counterSample(
        "mshr_occupancy", now,
        static_cast<double>(l2side_->mshrs().occupancy()));
    traceLog_->counterSample(
        "pf_buffer_occupancy", now,
        static_cast<double>(l2side_->prefetchBuffer().validCount()));
    traceLog_->counterSample(
        "channel_backlog_ticks", now,
        static_cast<double>(mem_.readChannel().backlogTicks(now)));
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        traceLog_->counterSample(
            "corr_table_fill", now,
            static_cast<double>(e->table().populatedEntries()));
    const PrefetchLedger &ledger = l2side_->ledger();
    for (unsigned s = 0; s < PrefetchLedger::kMaxSources; ++s) {
        const PrefetchLedger::SourceCounters &sc = ledger.source(s);
        if (sc.issued == 0)
            continue;
        traceLog_->counterSample(
            "pf_accuracy_src" + std::to_string(s), now,
            static_cast<double>(sc.used()) /
                static_cast<double>(sc.issued));
    }
}

SimResults
Simulator::collect()
{
    SimResults r;
    double cycle_sum = 0.0;
    for (const auto &c : cores_) {
        r.insts += c->measuredInsts();
        r.cycles = std::max<std::uint64_t>(r.cycles, c->measuredCycles());
        cycle_sum += static_cast<double>(c->measuredCycles());
    }
    r.cpi = r.insts ? cycle_sum / static_cast<double>(r.insts) : 0.0;

    r.epochs = l2side_->epochTracker().epochs();
    const double per1k =
        r.insts ? 1000.0 / static_cast<double>(r.insts) : 0.0;
    r.epochsPer1k = r.epochs * per1k;
    r.l2InstMissPer1k = l2side_->offChipInst() * per1k;
    r.l2LoadMissPer1k = l2side_->offChipLoad() * per1k;

    r.usefulPrefetches = l2side_->usefulPrefetches();
    r.issuedPrefetches = l2side_->issuedPrefetches();
    r.droppedPrefetches = l2side_->droppedPrefetches();

    const PrefetchLedger &ledger = l2side_->ledger();
    r.timelyPrefetches = ledger.timelyHits();
    r.latePrefetches = ledger.lateHits();
    r.earlyEvictedPrefetches = ledger.evictedUnused();
    r.timeliness = ledger.timeliness();

    const std::uint64_t misses =
        l2side_->offChipInst() + l2side_->offChipLoad();
    const std::uint64_t baseline_misses = misses + r.usefulPrefetches;
    r.coverage = baseline_misses
                     ? static_cast<double>(r.usefulPrefetches) /
                           static_cast<double>(baseline_misses)
                     : 0.0;
    r.accuracy = r.issuedPrefetches
                     ? static_cast<double>(r.usefulPrefetches) /
                           static_cast<double>(r.issuedPrefetches)
                     : 0.0;

    if (r.cycles) {
        r.readBusUtil =
            static_cast<double>(mem_.readChannel().busyTicks() -
                                readBusyMark_) /
            static_cast<double>(r.cycles);
        r.writeBusUtil =
            static_cast<double>(mem_.writeChannel().busyTicks() -
                                writeBusyMark_) /
            static_cast<double>(r.cycles);
    }
    return r;
}

std::uint64_t
Simulator::configFingerprint() const
{
    return ebcp::configFingerprint(cfg_, pf_, cores());
}

Status
Simulator::ckptSections(SourceList src, const SectionVisitor &visit)
{
    checkSources(src);
    Status s;
    auto section = [&](const std::string &name, const SectionFn &fn) {
        if (s.ok())
            s = visit(name, fn);
    };
    for (unsigned i = 0; i < cores(); ++i) {
        section(logFormat("core", i),
                [this, i](ckpt::Archiver &ar) { cores_[i]->ckpt(ar); });
        section(logFormat("l1.", i),
                [this, i](ckpt::Archiver &ar) { ports_[i]->ckpt(ar); });
        section(logFormat("trace", i),
                [&src, i](ckpt::Archiver &ar) { src[i].ckpt(ar); });
    }
    section("l2side", [this](ckpt::Archiver &ar) { l2side_->ckpt(ar); });
    section("mem", [this](ckpt::Archiver &ar) { mem_.ckpt(ar); });
    section("prefetcher",
            [this](ckpt::Archiver &ar) { prefetcher_->ckpt(ar); });
    section("system", [this](ckpt::Archiver &ar) {
        ar.u64(readBusyMark_);
        ar.u64(writeBusyMark_);
        ckpt::ckptPcg32(ar, rng_);
    });
    return s;
}

StatusOr<std::string>
Simulator::serializeCheckpoint(SourceList src)
{
    EBCP_PROFILE_SCOPE(Ckpt);
    ckpt::CheckpointWriter w(configFingerprint());
    if (Status s = ckptSections(src,
                                [&w](const std::string &name,
                                     const SectionFn &fill) {
                                    return w.section(name, fill);
                                });
        !s.ok())
        return s;
    return w.serialize();
}

Status
Simulator::saveCheckpoint(const std::string &path, SourceList src)
{
    StatusOr<std::string> blob = serializeCheckpoint(src);
    if (!blob.ok())
        return blob.status();
    return ckpt::atomicWriteFile(path, blob.value());
}

Status
Simulator::restoreCheckpoint(const std::string &buffer, SourceList src)
{
    EBCP_PROFILE_SCOPE(Ckpt);
    StatusOr<ckpt::CheckpointReader> reader =
        ckpt::CheckpointReader::fromBuffer(buffer, configFingerprint());
    if (!reader.ok())
        return reader.status();
    const ckpt::CheckpointReader &r = reader.value();
    return ckptSections(src, [&r](const std::string &name,
                                  const SectionFn &load) {
        return r.section(name, load);
    });
}

Status
Simulator::restoreCheckpointFile(const std::string &path, SourceList src)
{
    StatusOr<std::string> data = ckpt::readFile(path);
    if (!data.ok())
        return data.status();
    return restoreCheckpoint(data.value(), src)
        .withContext(logFormat("restoring checkpoint '", path, "'"));
}

void
Simulator::dumpStats(std::ostream &os)
{
    EBCP_PROFILE_SCOPE(Stats);
    for (unsigned i = 0; i < cores(); ++i) {
        coreStats_[i]->dump(os);
        ports_[i]->stats().dump(os);
    }
    l2side_->stats().dump(os);
    mem_.stats().dump(os);
}

void
Simulator::dumpStatsJson(JsonWriter &w)
{
    EBCP_PROFILE_SCOPE(Stats);
    w.beginObject();
    std::vector<StatGroup *> groups;
    for (unsigned i = 0; i < cores(); ++i) {
        groups.push_back(coreStats_[i].get());
        groups.push_back(&ports_[i]->stats());
    }
    groups.push_back(&l2side_->stats());
    groups.push_back(&mem_.stats());
    for (StatGroup *g : groups) {
        w.key(g->name());
        g->dumpJson(w);
    }
    w.endObject();
}

SimResults
runOnce(const SimConfig &cfg, const PrefetcherParams &pf, TraceSource &src,
        std::uint64_t warm_insts, std::uint64_t measure_insts)
{
    Simulator sim(cfg, pf);
    return sim.run(src, warm_insts, measure_insts);
}

} // namespace ebcp
