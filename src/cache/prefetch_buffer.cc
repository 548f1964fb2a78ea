#include "cache/prefetch_buffer.hh"

#include <algorithm>

#include "ckpt/archiver.hh"
#include "util/logging.hh"
#include "verify/audit.hh"

namespace ebcp
{

PrefetchBuffer::PrefetchBuffer(unsigned entries, unsigned ways,
                               unsigned line_bytes)
    : sets_(entries / ways), ways_(ways), lineShift_(floorLog2(line_bytes)),
      entries_(entries)
{
    fatal_if(entries == 0 || ways == 0, "prefetch buffer with no entries");
    fatal_if(entries % ways != 0,
             "prefetch buffer entries must be a multiple of ways");
    fatal_if(!isPowerOf2(sets_),
             "prefetch buffer set count must be a power of two");
}

PrefetchBuffer::Entry *
PrefetchBuffer::find(Addr line_addr)
{
    const unsigned set = setOf(line_addr);
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = entries_[set * ways_ + w];
        if (e.valid && e.lineAddr == line_addr)
            return &e;
    }
    return nullptr;
}

const PrefetchBuffer::Entry *
PrefetchBuffer::find(Addr line_addr) const
{
    return const_cast<PrefetchBuffer *>(this)->find(line_addr);
}

bool
PrefetchBuffer::contains(Addr addr) const
{
    return find(alignDown(addr, 1ULL << lineShift_)) != nullptr;
}

PrefBufHit
PrefetchBuffer::lookup(Addr addr)
{
    const Addr line = alignDown(addr, 1ULL << lineShift_);
    Entry *e = find(line);
    PrefBufHit res;
    if (!e)
        return res;

    res.hit = true;
    res.readyTime = e->readyTime;
    res.corrIndex = e->corrIndex;
    res.hasCorrIndex = e->hasCorrIndex;
    res.source = e->source;
    // Consumed: the line moves to the regular cache hierarchy.
    e->valid = false;
    return res;
}

PrefBufEvict
PrefetchBuffer::insert(Addr addr, Tick ready_time, std::uint64_t corr_index,
                       bool has_corr_index, std::uint8_t source)
{
    const Addr line = alignDown(addr, 1ULL << lineShift_);

    if (Entry *e = find(line)) {
        // Refresh an existing entry (keep the earlier ready time: the
        // first prefetch's data arrives first).
        e->readyTime = std::min(e->readyTime, ready_time);
        e->stamp = ++stampCounter_;
        if (has_corr_index) {
            e->corrIndex = corr_index;
            e->hasCorrIndex = true;
        }
        return {};
    }

    const unsigned set = setOf(line);
    Entry *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = entries_[set * ways_ + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.stamp < victim->stamp)
            victim = &e;
    }
    PrefBufEvict evicted;
    if (victim->valid) {
        evicted.line = victim->lineAddr;
        evicted.source = victim->source;
    }

    victim->lineAddr = line;
    victim->readyTime = ready_time;
    victim->corrIndex = corr_index;
    victim->hasCorrIndex = has_corr_index;
    victim->valid = true;
    victim->stamp = ++stampCounter_;
    victim->source = source;
    return evicted;
}

void
PrefetchBuffer::flush()
{
    for (auto &e : entries_)
        e.valid = false;
}

unsigned
PrefetchBuffer::validCount() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

void
PrefetchBuffer::audit(AuditContext &ctx) const
{
    ctx.check(validCount() <= entries(), "occupancy_within_capacity",
              validCount(), " valid entries in a ", entries(),
              "-entry buffer");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (!e.valid)
            continue;
        const unsigned set = static_cast<unsigned>(i / ways_);
        ctx.check(setOf(e.lineAddr) == set, "entry_in_home_set",
                  "line 0x", std::hex, e.lineAddr, std::dec,
                  " stored in set ", set, " but indexes to set ",
                  setOf(e.lineAddr), " -- lookups will miss it");
        ctx.check(e.stamp <= stampCounter_, "stamp_not_from_future",
                  "entry ", i, " stamp ", e.stamp, " exceeds counter ",
                  stampCounter_);
        for (std::size_t j = i + 1; j < entries_.size(); ++j) {
            const Entry &o = entries_[j];
            ctx.check(!(o.valid && o.lineAddr == e.lineAddr),
                      "no_line_buffered_twice",
                      "line 0x", std::hex, e.lineAddr, std::dec,
                      " held by entries ", i, " and ", j);
        }
    }
}

void
PrefetchBuffer::corruptForTest()
{
    fatal_if(sets_ < 2, "corruptForTest needs at least two sets");
    // Clone the first valid entry into another set (duplicate + out of
    // home set), or fabricate a misplaced entry in an empty buffer.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].valid)
            continue;
        const std::size_t other =
            (i + static_cast<std::size_t>(ways_)) % entries_.size();
        entries_[other] = entries_[i];
        return;
    }
    Addr line = 1ULL << lineShift_;
    while (setOf(line) == 0)
        line += 1ULL << lineShift_;
    entries_[0].lineAddr = line;
    entries_[0].readyTime = 0;
    entries_[0].valid = true;
    entries_[0].stamp = stampCounter_;
}


void
PrefetchBuffer::ckpt(ckpt::Archiver &ar)
{
    ar.fixedVec(entries_, [](ckpt::Archiver &a, Entry &e) {
        a.u64(e.lineAddr);
        a.u64(e.readyTime);
        a.u64(e.corrIndex);
        a.boolean(e.hasCorrIndex);
        a.boolean(e.valid);
        a.u64(e.stamp);
        a.u8(e.source);
    }, "prefetch buffer entries");
    ar.u64(stampCounter_);
}

} // namespace ebcp
