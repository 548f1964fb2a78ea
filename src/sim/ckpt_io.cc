#include "sim/ckpt_io.hh"

namespace ebcp
{

namespace
{

void
cacheIdentity(ckpt::Archiver &ar, const CacheConfig &c)
{
    std::string name = c.name;
    std::uint64_t size = c.sizeBytes;
    unsigned ways = c.ways;
    unsigned line = c.lineBytes;
    Tick hit = c.hitLatency;
    ar.str(name);
    ar.u64(size);
    ar.uns(ways);
    ar.uns(line);
    ar.u64(hit);
}

void
faultIdentity(ckpt::Archiver &ar, const FaultPlan &f)
{
    bool bitflip = f.traceBitflip, truncate = f.traceTruncate,
         shortRead = f.traceShortRead, drop = f.tableDrop,
         delay = f.tableDelay, stall = f.demandStall;
    std::uint64_t seed = f.seed, after = f.truncateAfter,
                  stallAfter = f.stallAfter;
    double rate = f.rate;
    Tick delayTicks = f.tableDelayTicks;
    ar.boolean(bitflip);
    ar.boolean(truncate);
    ar.boolean(shortRead);
    ar.boolean(drop);
    ar.boolean(delay);
    ar.boolean(stall);
    ar.u64(seed);
    ar.f64(rate);
    ar.u64(after);
    ar.u64(stallAfter);
    ar.u64(delayTicks);
}

} // namespace

void
serializeConfigIdentity(ckpt::Archiver &ar, const SimConfig &cfg)
{
    unsigned fw = cfg.core.fetchWidth, dw = cfg.core.decodeWidth,
             rw = cfg.core.retireWidth, rob = cfg.core.robEntries,
             iq = cfg.core.issueQueueEntries,
             sb = cfg.core.storeBufferEntries,
             lb = cfg.core.loadBufferEntries, alus = cfg.core.numAlus,
             lsus = cfg.core.numLoadStoreUnits,
             brs = cfg.core.numBranchUnits,
             fpa = cfg.core.numFpAddUnits, fpm = cfg.core.numFpMulUnits;
    Tick mispredict = cfg.core.mispredictPenalty;
    unsigned gshare = cfg.core.branchPred.gshareEntries,
             btb = cfg.core.branchPred.btbEntries,
             ras = cfg.core.branchPred.rasEntries;
    ar.uns(fw);
    ar.uns(dw);
    ar.uns(rw);
    ar.uns(rob);
    ar.uns(iq);
    ar.uns(sb);
    ar.uns(lb);
    ar.uns(alus);
    ar.uns(lsus);
    ar.uns(brs);
    ar.uns(fpa);
    ar.uns(fpm);
    ar.u64(mispredict);
    ar.uns(gshare);
    ar.uns(btb);
    ar.uns(ras);

    Tick latency = cfg.mem.latency, dropDelay = cfg.mem.lowPriorityDropDelay;
    double rbpt = cfg.mem.readBytesPerTick,
           wbpt = cfg.mem.writeBytesPerTick;
    unsigned memLine = cfg.mem.lineBytes;
    ar.u64(latency);
    ar.f64(rbpt);
    ar.f64(wbpt);
    ar.uns(memLine);
    ar.u64(dropDelay);

    cacheIdentity(ar, cfg.l1i);
    cacheIdentity(ar, cfg.l1d);
    cacheIdentity(ar, cfg.l2);

    unsigned mshrs = cfg.l2Mshrs, pbe = cfg.prefetchBufferEntries,
             pbw = cfg.prefetchBufferWays;
    bool perfect = cfg.perfectL2;
    Tick wd = cfg.watchdogTicks;
    ar.uns(mshrs);
    ar.uns(pbe);
    ar.uns(pbw);
    ar.boolean(perfect);
    ar.u64(wd);
    faultIdentity(ar, cfg.faults);
}

void
serializePrefetcherIdentity(ckpt::Archiver &ar, const PrefetcherParams &pf)
{
    // Every scheme's parameters go into the identity regardless of
    // which one is selected: cheap, and a changed-but-inactive knob
    // can never silently alias two different setups.
    std::string name = pf.name;
    ar.str(name);

    std::uint64_t te = pf.ebcp.tableEntries;
    unsigned deg = pf.ebcp.prefetchDegree, emabE = pf.ebcp.emabEntries,
             emabA = pf.ebcp.emabAddrsPerEntry,
             ncs = pf.ebcp.numCoreStates;
    bool minus = pf.ebcp.minusVariant, all = pf.ebcp.trainAllOldestMisses,
         onChip = pf.ebcp.onChipTable;
    Tick retry = pf.ebcp.reallocRetryInterval;
    ar.u64(te);
    ar.uns(deg);
    ar.uns(emabE);
    ar.uns(emabA);
    ar.boolean(minus);
    ar.boolean(all);
    ar.u64(retry);
    ar.uns(ncs);
    ar.boolean(onChip);

    std::uint64_t ste = pf.solihin.tableEntries;
    unsigned sd = pf.solihin.depth, sw = pf.solihin.width;
    Tick slat = pf.solihin.tableAccessLatency;
    ar.u64(ste);
    ar.uns(sd);
    ar.uns(sw);
    ar.u64(slat);

    unsigned nd = pf.nextline.depth, nl = pf.nextline.lineBytes;
    bool ni = pf.nextline.onInst, nld = pf.nextline.onLoad;
    ar.uns(nd);
    ar.uns(nl);
    ar.boolean(ni);
    ar.boolean(nld);

    unsigned sr = pf.sms.regionBytes, sl = pf.sms.lineBytes,
             sa = pf.sms.agtEntries, sps = pf.sms.phtSets,
             spw = pf.sms.phtWays;
    ar.uns(sr);
    ar.uns(sl);
    ar.uns(sa);
    ar.uns(sps);
    ar.uns(spw);

    unsigned pstreams = pf.stream.streams, pdist = pf.stream.distance,
             pconf = pf.stream.trainConfirms;
    Addr pstride = pf.stream.maxStrideBytes;
    ar.uns(pstreams);
    ar.uns(pdist);
    ar.uns(pconf);
    ar.u64(pstride);

    std::uint64_t dte = pf.dcpt.tableEntries;
    unsigned ddel = pf.dcpt.deltasPerEntry, ddeg = pf.dcpt.degree,
             dlb = pf.dcpt.lineBytes;
    ar.u64(dte);
    ar.uns(ddel);
    ar.uns(ddeg);
    ar.uns(dlb);

    std::uint64_t ate = pf.amc.tableEntries;
    unsigned aw = pf.amc.width, awin = pf.amc.window,
             adeg = pf.amc.degree;
    ar.u64(ate);
    ar.uns(aw);
    ar.uns(awin);
    ar.uns(adeg);

    std::vector<std::string> cengines = pf.composite.engines;
    std::uint64_t cci = pf.composite.calibInterval;
    unsigned cep = pf.composite.explorePeriod,
             cmin = pf.composite.minDegree, cmax = pf.composite.maxDegree,
             cinit = pf.composite.initialDegree;
    // Percent-granular, matching the controller's integer arithmetic.
    unsigned clo = static_cast<unsigned>(pf.composite.loAccuracy * 100.0),
             chi = static_cast<unsigned>(pf.composite.hiAccuracy * 100.0);
    ar.vec(cengines, [](ckpt::Archiver &a, std::string &s) { a.str(s); });
    ar.u64(cci);
    ar.uns(cep);
    ar.uns(cmin);
    ar.uns(cmax);
    ar.uns(cinit);
    ar.uns(clo);
    ar.uns(chi);
}

std::uint64_t
configFingerprint(const SimConfig &cfg, const PrefetcherParams &pf,
                  unsigned cores)
{
    std::string bytes;
    ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
    serializeConfigIdentity(ar, cfg);
    serializePrefetcherIdentity(ar, pf);
    ar.uns(cores);
    return ckpt::fnv1a64(bytes.data(), bytes.size());
}

} // namespace ebcp
