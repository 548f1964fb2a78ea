/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot components of the
 * simulator: useful when optimizing the simulator itself, and as a
 * regression guard on simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/tag_array.hh"
#include "core/correlation_table.hh"
#include "cpu/core_model.hh"
#include "prefetch/ghb.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/random.hh"

using namespace ebcp;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.name = "bm";
    cfg.sizeBytes = 2 * MiB;
    cfg.ways = 4;
    Cache cache(cfg);
    Pcg32 rng(1);
    for (auto _ : state) {
        Addr a = (rng.next() & 0xffffff) << 6;
        if (!cache.access(a, false))
            cache.fill(a);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CorrTableUpdate(benchmark::State &state)
{
    CorrTableConfig cfg;
    cfg.entries = 1ULL << 20;
    cfg.addrsPerEntry = 8;
    CorrelationTable table(cfg);
    Pcg32 rng(2);
    std::vector<Addr> payload(4);
    for (auto _ : state) {
        Addr key = (rng.next() & 0xfffff) << 6;
        for (auto &p : payload)
            p = (rng.next() & 0xfffff) << 6;
        table.update(key, payload);
    }
}
BENCHMARK(BM_CorrTableUpdate);

void
BM_CorrTableLookup(benchmark::State &state)
{
    CorrTableConfig cfg;
    cfg.entries = 1ULL << 16;
    cfg.addrsPerEntry = 8;
    CorrelationTable table(cfg);
    Pcg32 rng(3);
    for (int i = 0; i < 10000; ++i)
        table.update((rng.next() & 0xffff) << 6,
                     {0x1000, 0x2000, 0x3000});
    std::vector<Addr> out;
    Pcg32 probe(4);
    for (auto _ : state) {
        table.lookup((probe.next() & 0xffff) << 6, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_CorrTableLookup);

void
BM_GhbObserve(benchmark::State &state)
{
    GhbPrefetcher ghb(GhbConfig::large());
    class NullEngine : public PrefetchEngine
    {
        void
        issuePrefetch(Addr, Tick, std::uint64_t, bool, unsigned) override
        {}
        MemAccessResult
        tableRead(Tick t) override
        {
            return {t, t + 500, false};
        }
        MemAccessResult
        tableWrite(Tick t) override
        {
            return {t, t + 1, false};
        }
        Tick memoryLatency() const override { return 500; }
    } eng;
    ghb.setEngine(&eng);
    Pcg32 rng(5);
    L2AccessInfo info;
    info.offChip = true;
    for (auto _ : state) {
        info.pc = 0x400 + (rng.next() & 0xff) * 4;
        info.lineAddr = (rng.next() & 0xffffff) << 6;
        ghb.observeAccess(info);
    }
}
BENCHMARK(BM_GhbObserve);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto w = makeWorkload("database");
    TraceRecord rec;
    for (auto _ : state) {
        w->next(rec);
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_SimulatedInstruction(benchmark::State &state)
{
    // End-to-end simulation throughput (instructions per second).
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    Simulator sim(cfg, p);
    auto w = makeWorkload("database");
    TraceRecord rec;
    for (auto _ : state) {
        w->next(rec);
        sim.core().process(rec);
    }
}
BENCHMARK(BM_SimulatedInstruction);

/** Fixed-latency memory stub: isolates the core's own loop. */
class StubMem : public MemSystem
{
  public:
    MemOutcome
    fetchInst(Addr, Tick when) override
    {
        return {when + 2, false};
    }

    MemOutcome
    load(Addr addr, Addr, Tick when) override
    {
        const bool miss = (addr >> 6) % 64 == 0;
        return {when + (miss ? 300 : 3), miss};
    }

    Tick store(Addr, Tick when) override { return when + 1; }
    unsigned lineBytes() const override { return 64; }
};

/** Replays an in-memory record vector as a zero-copy span source. */
class SpanReplay : public TraceSource
{
  public:
    explicit SpanReplay(std::vector<TraceRecord> recs)
        : recs_(std::move(recs))
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ == recs_.size())
            return false;
        rec = recs_[pos_++];
        return true;
    }

    bool spanSource() const override { return true; }

    std::size_t
    peekSpan(const TraceRecord **out, std::size_t max) override
    {
        *out = recs_.data() + pos_;
        return std::min(max, recs_.size() - pos_);
    }

    void consumeSpan(std::size_t n) override { pos_ += n; }
    void reset() override { pos_ = 0; }
    std::size_t size() const { return recs_.size(); }

  private:
    std::vector<TraceRecord> recs_;
    std::size_t pos_ = 0;
};

/** The first @p n records of a calibrated workload. */
std::vector<TraceRecord>
recordedStream(const std::string &workload, std::size_t n)
{
    auto w = makeWorkload(workload);
    std::vector<TraceRecord> out(n);
    w->nextBatch(out.data(), n);
    return out;
}

void
BM_CoreRetireLoop(benchmark::State &state)
{
    // The retirement loop alone: CoreModel::run over an in-memory span
    // of recorded tpcw records against a stub memory system.
    SpanReplay src(recordedStream("tpcw", 1 << 16));
    StubMem mem;
    CoreModel core({}, mem);
    for (auto _ : state) {
        src.reset();
        core.run(src, src.size());
    }
    benchmark::DoNotOptimize(core.now());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_CoreRetireLoop);

void
BM_AluRunEmission(benchmark::State &state)
{
    // Trace generation alone, drained the way the core drains it; on
    // tpcw about 91% of the records come from ALU filler runs.
    auto w = makeWorkload("tpcw");
    constexpr std::size_t kDrain = 1 << 16;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        std::size_t left = kDrain;
        while (left > 0) {
            const TraceRecord *span = nullptr;
            const std::size_t got = w->peekSpan(&span, left);
            sink += span[got - 1].pc;
            w->consumeSpan(got);
            left -= got;
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kDrain));
}
BENCHMARK(BM_AluRunEmission);

void
BM_TagArrayAccessFill(benchmark::State &state)
{
    // Lookup, then fill on a miss, over a pool twice the capacity:
    // range(0) is the set count (128 = 32 KiB L1, 8192 = 2 MiB L2).
    const unsigned sets = static_cast<unsigned>(state.range(0));
    TagArray tags(sets, 4, 64);
    Pcg32 rng(6);
    std::vector<Addr> addrs(1 << 16);
    for (Addr &a : addrs)
        a = static_cast<Addr>(rng.below(sets * 4 * 2)) << 6;
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr a = addrs[i++ & (addrs.size() - 1)];
        const bool hit = tags.access(a, false);
        benchmark::DoNotOptimize(hit);
        if (!hit)
            benchmark::DoNotOptimize(tags.insert(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayAccessFill)->Arg(128)->Arg(8192);

} // namespace

BENCHMARK_MAIN();
