#include "cache/cache.hh"

#include "ckpt/archiver.hh"

namespace ebcp
{

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), tags_(cfg.sets(), cfg.ways, cfg.lineBytes),
      stats_(cfg.name)
{
    cfg_.check();
    stats_.add(hits_);
    stats_.add(misses_);
    stats_.add(fills_);
    stats_.add(evictions_);
    stats_.add(writebacks_);
}

bool
Cache::access(Addr addr, bool write)
{
    if (tags_.access(addr, write)) {
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

Eviction
Cache::fill(Addr addr, bool dirty)
{
    ++fills_;
    Eviction ev = tags_.insert(addr, dirty);
    if (ev.valid) {
        ++evictions_;
        if (ev.dirty)
            ++writebacks_;
    }
    return ev;
}


void
Cache::ckpt(ckpt::Archiver &ar)
{
    tags_.ckpt(ar);
    stats_.ckpt(ar);
}

} // namespace ebcp
