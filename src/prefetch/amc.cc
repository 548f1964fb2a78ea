#include "prefetch/amc.hh"

#include <algorithm>

#include "ckpt/containers.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "verify/audit.hh"

namespace ebcp
{

Status
AmcConfig::validate() const
{
    if (tableEntries == 0 || !isPowerOf2(tableEntries))
        return invalidArgError("amc: table_entries ", tableEntries,
                               " must be a nonzero power of two");
    if (width == 0)
        return invalidArgError("amc: width must be nonzero");
    if (window == 0)
        return invalidArgError("amc: window must be nonzero");
    if (degree == 0)
        return invalidArgError(
            "amc: degree=0 would never prefetch; use the null "
            "prefetcher to disable prefetching");
    return Status();
}

AmcPrefetcher::AmcPrefetcher(const AmcConfig &cfg, std::string name)
    : Prefetcher(std::move(name)), cfg_(cfg),
      table_({cfg.tableEntries, cfg.width, 64}),
      recentAccesses_(cfg.window == 0 ? 1 : cfg.window)
{
    fatal_if(!cfg.validate().ok(), cfg.validate().toString());
    stats().add(issued_);
    stats().addChild(table_.stats());
}

void
AmcPrefetcher::train(Addr miss_line)
{
    // Credit the miss to each recent access (newest first): the next
    // time any of those lines is touched -- hit or miss -- this miss
    // is a prediction candidate. A one-address update moves the miss
    // to the front of the key's entry, evicting the oldest successor
    // of a full entry.
    miss_.assign(1, miss_line);
    for (std::size_t k = 0; k < recentAccesses_.size(); ++k) {
        const Addr key =
            recentAccesses_.at(recentAccesses_.size() - 1 - k);
        if (key != miss_line)
            table_.update(key, miss_);
    }
}

void
AmcPrefetcher::predict(Addr line, Tick when)
{
    // Breadth-first through the correlation graph: the key's direct
    // successors first, then successors of successors, until the
    // degree is exhausted. The frontier is tiny (degree-bounded), so
    // linear dedup beats any set structure.
    std::vector<Addr> frontier{line};
    std::vector<Addr> named;
    for (std::size_t fi = 0;
         fi < frontier.size() && named.size() < cfg_.degree; ++fi) {
        if (!table_.lookup(frontier[fi], succ_))
            continue;
        for (Addr a : succ_) {
            if (named.size() >= cfg_.degree)
                break;
            if (a == line ||
                std::find(named.begin(), named.end(), a) != named.end())
                continue;
            named.push_back(a);
            frontier.push_back(a);
        }
    }
    for (Addr a : named) {
        engine_->issuePrefetch(a, when);
        ++issued_;
    }
}

void
AmcPrefetcher::observeAccess(const L2AccessInfo &info)
{
    // Data stream only; the access side of the correlation includes
    // L2 hits -- that is the entire point of the scheme.
    if (info.isInst)
        return;

    predict(info.lineAddr, info.when);

    // The miss side trains against the access window (misses averted
    // by the prefetch buffer still train, like the GHB, so success
    // does not starve the table).
    if (info.offChip || info.prefBufHit)
        train(info.lineAddr);

    recentAccesses_.push(info.lineAddr);
}

void
AmcPrefetcher::audit(AuditContext &ctx) const
{
    table_.audit(ctx);
    ctx.check(recentAccesses_.size() <= cfg_.window,
              "window_bounded", recentAccesses_.size(),
              " recent accesses of ", cfg_.window);
}

void
AmcPrefetcher::ckpt(ckpt::Archiver &ar)
{
    Prefetcher::ckpt(ar);
    table_.ckpt(ar);
    ckpt::ckptCircularBuffer(ar, recentAccesses_,
                             [](ckpt::Archiver &a, Addr &addr) {
        a.u64(addr);
    });
}

} // namespace ebcp
