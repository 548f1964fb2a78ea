#include "prefetch/correlation_table.hh"

#include <algorithm>
#include <utility>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "ckpt/containers.hh"
#include "verify/audit.hh"

namespace ebcp
{

unsigned
CorrTableConfig::entryTransferBytes() const
{
    const unsigned raw = 8 + 6 * addrsPerEntry;
    return static_cast<unsigned>(alignUp(raw, transferBytes));
}

CorrelationTable::CorrelationTable(const CorrTableConfig &cfg)
    : cfg_(cfg), stats_("corr_table")
{
    fatal_if(cfg.entries == 0, "correlation table needs entries");
    fatal_if(!isPowerOf2(cfg.entries),
             "correlation table entry count must be a power of two");
    fatal_if(cfg.addrsPerEntry == 0,
             "correlation table entries need address slots");
    stats_.add(lookups_);
    stats_.add(tagHits_);
    stats_.add(updates_);
    stats_.add(reallocs_);
    stats_.add(slotReplacements_);
    stats_.add(lruRefreshes_);
}

std::uint64_t
CorrelationTable::indexOf(Addr key) const
{
    return mix64(key) & (cfg_.entries - 1);
}

Addr *
CorrelationTable::slotsOf(Entry &e)
{
    if (e.base == kNoBlock) {
        // Carve a fresh fixed-size block off the arena. Blocks are
        // never returned individually -- a tag reallocation reuses the
        // entry's existing block -- so bases stay stable for the life
        // of the run (clear() resets the whole pool).
        panic_if(slotPool_.size() + cfg_.addrsPerEntry >
                     ~std::uint32_t{0},
                 "correlation-table slot arena exceeds u32 handles");
        if (slotPool_.size() == slotPool_.capacity()) {
            // Jump straight to the arena's configured bound (one
            // block per table entry): a single virtual allocation the
            // OS backs lazily, instead of repeated doubling reallocs
            // that copy the whole live arena on the update hot path.
            const std::uint64_t bound =
                std::min<std::uint64_t>(cfg_.entries,
                                        ~std::uint32_t{0} /
                                            cfg_.addrsPerEntry) *
                cfg_.addrsPerEntry;
            slotPool_.reserve(static_cast<std::size_t>(bound));
        }
        e.base = static_cast<std::uint32_t>(slotPool_.size());
        slotPool_.resize(slotPool_.size() + cfg_.addrsPerEntry);
    }
    return slotPool_.data() + e.base;
}

const Addr *
CorrelationTable::slotsOf(const Entry &e) const
{
    return e.base == kNoBlock ? nullptr : slotPool_.data() + e.base;
}

bool
CorrelationTable::lookup(Addr key, std::vector<Addr> &out,
                         std::uint64_t *index_out)
{
    ++lookups_;
    const std::uint64_t idx = indexOf(key);
    if (index_out)
        *index_out = idx;

    out.clear();
    const Entry *e = entries_.find(idx);
    if (!e || e->tag != key)
        return false;

    ++tagHits_;
    // The block is stored MRU-first, so a degree-limited prefetch
    // takes the freshest addresses.
    const Addr *slots = slotsOf(*e);
    out.assign(slots, slots + e->count);
    return true;
}

void
CorrelationTable::update(Addr key, const std::vector<Addr> &addrs)
{
    if (addrs.empty())
        return;

    ++updates_;
    const std::uint64_t idx = indexOf(key);
    Entry &e = entries_[idx];

    if (e.tag != key) {
        if (e.tag != InvalidAddr)
            ++reallocs_;
        e.tag = key;
        e.count = 0; // the arena block (if any) is reused in place
    }

    Addr *slots = slotsOf(e);
    // Every address this update writes moves to the front, so slots
    // [0, fresh) are exactly this update's writes and the rest keep
    // their MRU order behind them.
    std::uint32_t fresh = 0;
    for (Addr a : addrs) {
        std::uint32_t pos = 0;
        while (pos < e.count && slots[pos] != a)
            ++pos;
        if (pos == e.count) {
            if (e.count < cfg_.addrsPerEntry) {
                ++e.count;
            } else if (fresh == e.count) {
                // Every slot is fresh: the remaining (younger-epoch)
                // addresses are dropped -- the paper's older-epoch
                // priority.
                break;
            } else {
                // LRU-replace the oldest slot this update has not
                // written: the last one.
                --pos;
                ++slotReplacements_;
            }
        }
        if (pos >= fresh)
            ++fresh;
        std::copy_backward(slots, slots + pos, slots + pos + 1);
        slots[0] = a;
    }
}

bool
CorrelationTable::refreshLru(std::uint64_t index, Addr line_addr)
{
    Entry *e = entries_.find(index);
    if (!e)
        return false;
    Addr *slots = slotsOf(*e);
    for (std::uint32_t i = 0; i < e->count; ++i) {
        if (slots[i] == line_addr) {
            std::copy_backward(slots, slots + i, slots + i + 1);
            slots[0] = line_addr;
            ++lruRefreshes_;
            return true;
        }
    }
    return false;
}

void
CorrelationTable::clear()
{
    entries_.clear();
    slotPool_.clear(); // keeps capacity; every block handle is dead
}

void
CorrelationTable::audit(AuditContext &ctx) const
{
    ctx.check(entries_.size() <= cfg_.entries,
              "population_within_capacity", entries_.size(),
              " resident entries in a ", cfg_.entries, "-entry table");
    const std::string mapErr = entries_.integrityError();
    ctx.check(mapErr.empty(), "host_map_intact", mapErr);
    ctx.check(slotPool_.size() % cfg_.addrsPerEntry == 0,
              "arena_block_aligned", "slot arena holds ",
              slotPool_.size(), " slots, not a multiple of the ",
              cfg_.addrsPerEntry, "-slot block size");
    std::vector<std::uint32_t> bases;
    std::size_t owners = 0;
    entries_.forEach([&](std::uint64_t idx, const Entry &e) {
        if (e.base != kNoBlock)
            ++owners;
        if (!ctx.check(idx < cfg_.entries, "index_in_range", "entry ",
                       idx, " outside a ", cfg_.entries, "-entry table"))
            return;
        if (e.tag != InvalidAddr)
            ctx.check(indexOf(e.tag) == idx, "tag_indexes_home",
                      "entry ", idx, " holds tag 0x", std::hex, e.tag,
                      std::dec, " which hashes to entry ",
                      indexOf(e.tag), " -- lookups can never hit it");
        ctx.check(e.count <= cfg_.addrsPerEntry,
                  "slots_within_entry_cap", "entry ", idx, " holds ",
                  e.count, " successor slots, cap is ",
                  cfg_.addrsPerEntry);
        if (e.base == kNoBlock) {
            ctx.check(e.count == 0, "blockless_entry_empty", "entry ",
                      idx, " counts ", e.count,
                      " slots but owns no arena block");
            return;
        }
        if (!ctx.check(e.base % cfg_.addrsPerEntry == 0 &&
                           e.base + cfg_.addrsPerEntry <=
                               slotPool_.size(),
                       "block_within_arena", "entry ", idx,
                       " block base ", e.base, " outside the ",
                       slotPool_.size(), "-slot arena"))
            return;
        bases.push_back(e.base);
        const Addr *slots = slotsOf(e);
        const std::uint32_t n =
            std::min<std::uint32_t>(e.count, cfg_.addrsPerEntry);
        for (std::uint32_t i = 0; i < n; ++i)
            for (std::uint32_t j = i + 1; j < n; ++j)
                ctx.check(slots[i] != slots[j],
                          "no_duplicate_successors", "entry ", idx,
                          " records successor 0x", std::hex, slots[i],
                          std::dec, " twice");
    });
    // Entries are never erased, so every carved block stays owned
    // until clear() drops the map and the arena together.
    ctx.check(slotPool_.size() == owners * cfg_.addrsPerEntry,
              "arena_blocks_owned", "slot arena holds ",
              slotPool_.size(), " slots but only ", owners,
              " entries own a ", cfg_.addrsPerEntry,
              "-slot block -- the rest are unreachable");
    std::sort(bases.begin(), bases.end());
    for (std::size_t i = 1; i < bases.size(); ++i)
        ctx.check(bases[i] != bases[i - 1], "blocks_not_shared",
                  "two entries own arena block ", bases[i],
                  " -- updates to one corrupt the other");
}

void
CorrelationTable::corruptForTest()
{
    // Plant an entry at its tag's home index plus one: the tag can
    // never be looked up there, so tag_indexes_home trips.
    const Addr tag = 0x5EED;
    const std::uint64_t idx = (indexOf(tag) + 1) & (cfg_.entries - 1);
    Entry &e = entries_[idx];
    e.tag = tag;
    Addr *slots = slotsOf(e);
    if (e.count == 0)
        slots[e.count++] = 0x1000;
}


void
CorrelationTable::ckpt(ckpt::Archiver &ar)
{
    // Arena block handles are host-run-local, so the checkpoint
    // stores each entry's addresses by value, MRU first; restore
    // empties the table (map and arena together, so a used table's
    // blocks are not leaked) and re-carves blocks in key order.
    // Handle values differ across save/restore but nothing observable
    // depends on them (slot order within an entry is preserved
    // exactly).
    if (!ar.saving())
        clear();
    ckpt::ckptFlatMap(ar, entries_, [&](ckpt::Archiver &a, Entry &e) {
        a.u64(e.tag);
        std::uint64_t n = e.count;
        a.u64(n);
        if (!a.ok())
            return;
        if (a.saving()) {
            const Addr *slots = slotsOf(std::as_const(e));
            for (std::uint64_t i = 0; i < n; ++i) {
                Addr addr = slots[i];
                a.u64(addr);
            }
            return;
        }
        if (n > cfg_.addrsPerEntry) {
            a.fail(corruptionError(
                "checkpoint correlation-table entry holds ", n,
                " slots but the configured cap is ",
                cfg_.addrsPerEntry));
            return;
        }
        Addr *slots = n ? slotsOf(e) : nullptr;
        for (std::uint64_t i = 0; i < n; ++i)
            a.u64(slots[i]);
        e.count = static_cast<std::uint32_t>(n);
    });
    stats_.ckpt(ar);
}

} // namespace ebcp
