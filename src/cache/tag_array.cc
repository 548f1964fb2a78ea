#include "cache/tag_array.hh"

#include <algorithm>

#include "ckpt/containers.hh"
#include "verify/audit.hh"

namespace ebcp
{

TagArray::TagArray(unsigned sets, unsigned ways, unsigned line_bytes,
                   ReplPolicy repl)
    : sets_(sets), ways_(ways), lineBytes_(line_bytes),
      lineShift_(floorLog2(line_bytes)), repl_(repl),
      slots_(static_cast<std::size_t>(sets) * ways),
      words_(3 * slots_, 0)
{
    fatal_if(!isPowerOf2(sets), "tag array set count must be power of two");
    fatal_if(!isPowerOf2(line_bytes) || line_bytes < 2,
             "tag array line size must be a power of two of at least 2");
    fatal_if(ways == 0, "tag array needs at least one way");
    std::fill_n(tags(), slots_, kInvalidTag);
}

bool
TagArray::contains(Addr addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

bool
TagArray::access(Addr addr, bool write)
{
    const unsigned set = setIndex(addr);
    const int w = findWay(set, tagOf(addr));
    if (w < 0)
        return false;
    const std::size_t i = slot(set, static_cast<unsigned>(w));
    stamps()[i] = ++stampCounter_;
    if (write)
        dirtyFlags()[i] = 1;
    return true;
}

unsigned
TagArray::victimWay(unsigned set)
{
    // Invalid ways first, regardless of policy.
    const std::size_t base = slot(set, 0);
    for (unsigned w = 0; w < ways_; ++w)
        if (tags()[base + w] == kInvalidTag)
            return w;

    if (repl_ == ReplPolicy::Random)
        return rng_.below(ways_);

    // The lowest-indexed way holding the oldest stamp.
    const std::uint64_t *st = stamps() + base;
    unsigned victim = 0;
    std::uint64_t oldest = st[0];
    for (unsigned w = 1; w < ways_; ++w) {
        if (st[w] < oldest) {
            oldest = st[w];
            victim = w;
        }
    }
    return victim;
}

Eviction
TagArray::insert(Addr addr, bool dirty)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);

    const int existing = findWay(set, tag);
    if (existing >= 0) {
        const std::size_t i = slot(set, static_cast<unsigned>(existing));
        stamps()[i] = ++stampCounter_;
        dirtyFlags()[i] |= dirty;
        return {};
    }

    const std::size_t i = slot(set, victimWay(set));
    Eviction ev;
    if (tags()[i] != kInvalidTag) {
        ev.valid = true;
        ev.dirty = dirtyFlags()[i] != 0;
        ev.lineAddr = tags()[i] << lineShift_;
    }
    tags()[i] = tag;
    dirtyFlags()[i] = dirty;
    stamps()[i] = ++stampCounter_;
    return ev;
}

bool
TagArray::invalidate(Addr addr)
{
    const unsigned set = setIndex(addr);
    const int w = findWay(set, tagOf(addr));
    if (w < 0)
        return false;
    // An empty way always reads tag 0 / clean / stamp 0 in checkpoints.
    const std::size_t i = slot(set, static_cast<unsigned>(w));
    tags()[i] = kInvalidTag;
    dirtyFlags()[i] = 0;
    stamps()[i] = 0;
    return true;
}

void
TagArray::reset()
{
    std::fill(words_.begin(), words_.end(), 0);
    std::fill_n(tags(), slots_, kInvalidTag);
    stampCounter_ = 0;
}

std::size_t
TagArray::validCount() const
{
    return static_cast<std::size_t>(
        std::count_if(tags(), tags() + slots_,
                      [](Addr t) { return t != kInvalidTag; }));
}

void
TagArray::audit(AuditContext &ctx) const
{
    for (unsigned s = 0; s < sets_; ++s) {
        for (unsigned w = 0; w < ways_; ++w) {
            const std::size_t i = slot(s, w);
            if (tags()[i] == kInvalidTag)
                continue;
            ctx.check(stamps()[i] <= stampCounter_, "stamp_not_from_future",
                      "set ", s, " way ", w, " stamp ", stamps()[i],
                      " exceeds counter ", stampCounter_);
            for (unsigned w2 = w + 1; w2 < ways_; ++w2) {
                ctx.check(tags()[slot(s, w2)] != tags()[i],
                          "no_duplicate_tags_in_set",
                          "set ", s, " holds tag 0x", std::hex, tags()[i],
                          std::dec, " in ways ", w, " and ", w2);
            }
        }
    }
}

void
TagArray::corruptForTest()
{
    fatal_if(ways_ < 2, "corruptForTest needs an associative array");
    // Clone (or fabricate) a duplicate tag within set 0, which lookup
    // can then resolve to either way: trips no_duplicate_tags_in_set.
    Addr *t = tags();
    std::uint64_t *st = stamps();
    if (t[0] == kInvalidTag) {
        t[0] = 0x1234;
        st[0] = stampCounter_;
    }
    t[1] = t[0];
    dirtyFlags()[1] = dirtyFlags()[0];
    st[1] = st[0];
}

void
TagArray::ckpt(ckpt::Archiver &ar)
{
    // Way by way as {u64 tag, bool valid, bool dirty, u64 stamp}; an
    // empty way travels as tag 0.
    std::uint64_t n = slots_;
    ar.u64(n);
    if (!ar.saving() && ar.ok() && n != slots_)
        ar.fail(invalidArgError("checkpoint tag array ways holds ", n,
                                " elements but the configured size is ",
                                slots_));
    for (std::size_t i = 0; i < slots_ && ar.ok(); ++i) {
        bool valid = tags()[i] != kInvalidTag;
        Addr tag = valid ? tags()[i] : 0;
        bool dirty = dirtyFlags()[i] != 0;
        ar.u64(tag);
        ar.boolean(valid);
        ar.boolean(dirty);
        ar.u64(stamps()[i]);
        if (ar.saving() || !ar.ok())
            continue;
        if (valid && tag == kInvalidTag)
            ar.fail(corruptionError("checkpoint tag array way ", i,
                                    " holds the empty-way tag"));
        tags()[i] = valid ? tag : kInvalidTag;
        dirtyFlags()[i] = dirty;
    }
    ar.u64(stampCounter_);
    ckpt::ckptPcg32(ar, rng_);
}

} // namespace ebcp
