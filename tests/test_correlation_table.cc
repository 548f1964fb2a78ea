/**
 * @file
 * Tests for the main-memory correlation table (Section 3.4.2,
 * Figure 3): direct-mapped tags, LRU slots, older-epoch priority and
 * the prefetch-buffer-hit LRU refresh, plus a randomized comparison
 * against a deliberately naive reference model of the same section.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "ckpt/archiver.hh"
#include "core/correlation_table.hh"
#include "util/bitfield.hh"
#include "util/random.hh"
#include "verify/audit.hh"

using namespace ebcp;

namespace
{

CorrTableConfig
cfg4()
{
    CorrTableConfig c;
    c.entries = 1024;
    c.addrsPerEntry = 4;
    return c;
}

} // namespace

TEST(CorrTableTest, MissOnEmpty)
{
    CorrelationTable t(cfg4());
    std::vector<Addr> out;
    EXPECT_FALSE(t.lookup(0x1000, out));
    EXPECT_TRUE(out.empty());
}

TEST(CorrTableTest, UpdateThenLookup)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0, 0xb0});
    std::vector<Addr> out;
    EXPECT_TRUE(t.lookup(0x1000, out));
    ASSERT_EQ(out.size(), 2u);
}

TEST(CorrTableTest, MruFirstOrdering)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0});
    t.update(0x1000, {0xb0});
    std::vector<Addr> out;
    t.lookup(0x1000, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0xb0u); // most recently written first
    EXPECT_EQ(out[1], 0xa0u);
}

TEST(CorrTableTest, RefreshKeepsAddressPresent)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0, 0xb0, 0xc0, 0xd0});
    // Refresh 0xa0 so it is MRU, then add a new address: the LRU
    // victim must not be 0xa0.
    std::uint64_t idx = t.indexOf(0x1000);
    EXPECT_TRUE(t.refreshLru(idx, 0xa0));
    t.update(0x1000, {0xe0});
    std::vector<Addr> out;
    t.lookup(0x1000, out);
    EXPECT_NE(std::find(out.begin(), out.end(), 0xa0), out.end());
    EXPECT_NE(std::find(out.begin(), out.end(), 0xe0), out.end());
    EXPECT_EQ(std::find(out.begin(), out.end(), 0xb0), out.end());
}

TEST(CorrTableTest, TagMismatchReallocates)
{
    CorrTableConfig c = cfg4();
    c.entries = 1; // force conflicts
    CorrelationTable t(c);
    t.update(0x1000, {0xa0});
    t.update(0x2000, {0xb0});
    std::vector<Addr> out;
    EXPECT_FALSE(t.lookup(0x1000, out));
    EXPECT_TRUE(t.lookup(0x2000, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0xb0u);
}

TEST(CorrTableTest, SameUpdateNeverEvictsItsOwnWrites)
{
    // Older-epoch priority: when the payload exceeds capacity, the
    // trailing (younger) addresses are dropped, not the leading ones.
    CorrelationTable t(cfg4());
    t.update(0x1000, {0x10, 0x20, 0x30, 0x40}); // fills all 4 slots
    t.update(0x1000, {0x50, 0x60, 0x70, 0x80}); // replaces all 4
    std::vector<Addr> out;
    t.lookup(0x1000, out);
    for (Addr a : {0x50, 0x60, 0x70, 0x80})
        EXPECT_NE(std::find(out.begin(), out.end(), Addr(a)), out.end());
}

TEST(CorrTableTest, PresentAddressesAreRefreshedNotDuplicated)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0, 0xb0});
    t.update(0x1000, {0xa0, 0xc0});
    std::vector<Addr> out;
    t.lookup(0x1000, out);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(std::count(out.begin(), out.end(), 0xa0u), 1);
}

TEST(CorrTableTest, EmptyPayloadIsNoop)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0});
    t.update(0x1000, {});
    std::vector<Addr> out;
    EXPECT_TRUE(t.lookup(0x1000, out));
    EXPECT_EQ(out.size(), 1u);
}

TEST(CorrTableTest, RefreshOnWrongIndexFails)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0});
    std::uint64_t idx = t.indexOf(0x1000);
    EXPECT_FALSE(t.refreshLru(idx + 1, 0xa0));
    EXPECT_FALSE(t.refreshLru(idx, 0xdead));
}

TEST(CorrTableTest, ClearDropsEverything)
{
    CorrelationTable t(cfg4());
    t.update(0x1000, {0xa0});
    t.clear();
    std::vector<Addr> out;
    EXPECT_FALSE(t.lookup(0x1000, out));
    EXPECT_EQ(t.populatedEntries(), 0u);
}

TEST(CorrTableTest, LazyHostStorage)
{
    CorrTableConfig c;
    c.entries = 1ULL << 23; // the idealized 8M-entry table
    c.addrsPerEntry = 32;
    CorrelationTable t(c);
    t.update(0x1000, {0xa0});
    // Only the touched entry costs host memory.
    EXPECT_EQ(t.populatedEntries(), 1u);
}

TEST(CorrTableTest, EntryTransferBytes)
{
    CorrTableConfig c;
    c.addrsPerEntry = 8;
    // 8 + 6*8 = 56 -> one 64B transfer (the paper's sizing argument).
    EXPECT_EQ(c.entryTransferBytes(), 64u);
    c.addrsPerEntry = 32;
    // 8 + 192 = 200 -> 256B.
    EXPECT_EQ(c.entryTransferBytes(), 256u);
}

TEST(CorrTableTest, FootprintMatchesPaper)
{
    CorrTableConfig c;
    c.entries = 1ULL << 20;
    c.addrsPerEntry = 8;
    // "one million entries (which corresponds to 64MB of memory)"
    EXPECT_EQ(c.footprintBytes(), 64 * MiB);
}

TEST(CorrTableTest, IndexWithinRange)
{
    CorrelationTable t(cfg4());
    for (Addr a = 0; a < 1000; ++a)
        EXPECT_LT(t.indexOf(a * 64), 1024u);
}

using CorrDegreeTest = ::testing::TestWithParam<unsigned>;

TEST_P(CorrDegreeTest, SlotCountNeverExceedsDegree)
{
    CorrTableConfig c;
    c.entries = 64;
    c.addrsPerEntry = GetParam();
    CorrelationTable t(c);
    for (int round = 0; round < 20; ++round) {
        std::vector<Addr> payload;
        for (unsigned i = 0; i < c.addrsPerEntry + 4; ++i)
            payload.push_back(0x1000 + (round * 64 + i) * 64);
        // Payload is pre-truncated by callers; emulate that here.
        payload.resize(c.addrsPerEntry);
        t.update(0xbeef, payload);
        std::vector<Addr> out;
        t.lookup(0xbeef, out);
        EXPECT_LE(out.size(), c.addrsPerEntry);
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, CorrDegreeTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------
// Reference model (Section 3.4.2). Written for obviousness, not speed:
// a std::map of entries, each a tag plus a std::list of addresses with
// the front as most recently used. Every write and every refresh
// moves its address to the front, so list order *is* LRU order.
// ---------------------------------------------------------------------

namespace
{

class RefCorrTable
{
  public:
    RefCorrTable(std::uint64_t entries, unsigned cap)
        : entries_(entries), cap_(cap)
    {}

    std::uint64_t
    indexOf(Addr key) const
    {
        return mix64(key) & (entries_ - 1);
    }

    bool
    lookup(Addr key, std::vector<Addr> &out, std::uint64_t *index_out)
    {
        ++counters["lookups"];
        const std::uint64_t idx = indexOf(key);
        *index_out = idx;
        out.clear();
        auto it = table_.find(idx);
        if (it == table_.end() || it->second.tag != key)
            return false;
        ++counters["tag_hits"];
        out.assign(it->second.slots.begin(), it->second.slots.end());
        return true;
    }

    void
    update(Addr key, const std::vector<Addr> &addrs)
    {
        if (addrs.empty())
            return;
        ++counters["updates"];
        Entry &e = table_[indexOf(key)];
        if (e.tag != key) {
            if (e.tag != InvalidAddr)
                ++counters["reallocs"];
            e.tag = key;
            e.slots.clear();
        }
        std::set<Addr> written;
        for (Addr a : addrs) {
            auto hit = std::find(e.slots.begin(), e.slots.end(), a);
            if (hit != e.slots.end()) {
                e.slots.erase(hit);
                e.slots.push_front(a);
                written.insert(a);
                continue;
            }
            if (e.slots.size() < cap_) {
                e.slots.push_front(a);
                written.insert(a);
                continue;
            }
            // The victim is the least recently used slot this call
            // has not written. Writes go to the front, so that is the
            // back slot -- unless the back was written too, in which
            // case every slot was and the rest of the payload drops.
            if (written.count(e.slots.back()))
                break;
            e.slots.pop_back();
            e.slots.push_front(a);
            written.insert(a);
            ++counters["slot_replacements"];
        }
    }

    bool
    refreshLru(std::uint64_t index, Addr line_addr)
    {
        auto it = table_.find(index);
        if (it == table_.end())
            return false;
        std::list<Addr> &slots = it->second.slots;
        auto hit = std::find(slots.begin(), slots.end(), line_addr);
        if (hit == slots.end())
            return false;
        slots.erase(hit);
        slots.push_front(line_addr);
        ++counters["lru_refreshes"];
        return true;
    }

    void clear() { table_.clear(); }
    std::size_t populatedEntries() const { return table_.size(); }

    std::map<std::string, std::uint64_t> counters{
        {"lookups", 0},  {"tag_hits", 0},          {"updates", 0},
        {"reallocs", 0}, {"slot_replacements", 0}, {"lru_refreshes", 0}};

  private:
    struct Entry
    {
        Addr tag = InvalidAddr;
        std::list<Addr> slots; //!< front = most recently used
    };

    std::uint64_t entries_;
    unsigned cap_;
    std::map<std::uint64_t, Entry> table_;
};

std::string
saveTable(CorrelationTable &t)
{
    std::string blob;
    ckpt::Archiver saver = ckpt::Archiver::saver(blob);
    t.ckpt(saver);
    EXPECT_TRUE(saver.ok()) << saver.status().toString();
    return blob;
}

void
restoreTable(CorrelationTable &t, const std::string &blob)
{
    ckpt::Archiver loader = ckpt::Archiver::loader(blob.data(),
                                                   blob.size());
    t.ckpt(loader);
    EXPECT_TRUE(loader.ok()) << loader.status().toString();
    EXPECT_EQ(loader.remaining(), 0u);
}

/** The table's audit violations, by invariant name; "" when clean. */
std::string
auditViolations(const CorrelationTable &t)
{
    AuditContext ctx;
    ctx.beginComponent("corr_table");
    t.audit(ctx);
    std::string names;
    for (const AuditViolation &v : ctx.violations())
        names += v.invariant + " ";
    return names;
}

} // namespace

TEST(CorrTableReference, RandomizedOpsMatchNaiveModel)
{
    constexpr unsigned kSeeds = 200;
    constexpr unsigned kOps = 4000;
    for (unsigned seed = 0; seed < kSeeds; ++seed) {
        Pcg32 rng(0xC0FFEE + seed);
        CorrTableConfig cfg;
        cfg.entries = 1ULL << rng.below(6); // 1..32: tag conflicts
        cfg.addrsPerEntry = 1 + rng.below(32);
        const unsigned cap = cfg.addrsPerEntry;
        auto real = std::make_unique<CorrelationTable>(cfg);
        RefCorrTable ref(cfg.entries, cap);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(cfg.entries) + " entries x " +
                     std::to_string(cap) + " slots");

        // Small key and address pools, so tags collide, payloads
        // repeat resident addresses and refreshes often hit.
        const unsigned keys = 2 * static_cast<unsigned>(cfg.entries) + 3;
        const unsigned addrPool = 2 * cap + 4;
        auto key = [&] { return Addr{1 + rng.below(keys)} << 6; };
        auto addr = [&] { return Addr{1 + rng.below(addrPool)} << 12; };

        std::vector<Addr> payload, gotReal, gotRef;
        for (unsigned op = 0; op < kOps; ++op) {
            if (op == kOps / 2) {
                const std::string blob = saveTable(*real);
                real = std::make_unique<CorrelationTable>(cfg);
                restoreTable(*real, blob);
                ASSERT_EQ(auditViolations(*real), "");
            }
            const unsigned kind = rng.below(1000);
            if (kind < 450) {
                const Addr k = key();
                payload.resize(rng.below(cap + 3)); // 0..cap+2
                for (Addr &a : payload)
                    a = addr(); // duplicates included
                real->update(k, payload);
                ref.update(k, payload);
            } else if (kind < 750) {
                const Addr k = key();
                std::uint64_t idxReal = ~0ULL, idxRef = ~0ULL;
                const bool hitReal = real->lookup(k, gotReal, &idxReal);
                const bool hitRef = ref.lookup(k, gotRef, &idxRef);
                ASSERT_EQ(hitReal, hitRef) << "op " << op;
                ASSERT_EQ(idxReal, idxRef) << "op " << op;
                ASSERT_EQ(gotReal, gotRef) << "op " << op;
            } else if (kind < 997) {
                const std::uint64_t idx = ref.indexOf(key());
                const Addr a = addr();
                ASSERT_EQ(real->refreshLru(idx, a), ref.refreshLru(idx, a))
                    << "op " << op;
            } else {
                real->clear();
                ref.clear();
            }
            ASSERT_EQ(real->populatedEntries(), ref.populatedEntries())
                << "op " << op;
        }

        EXPECT_EQ(auditViolations(*real), "");
        std::set<std::string> seen;
        for (const StatBase *s : real->stats().stats()) {
            const auto *scalar = dynamic_cast<const Scalar *>(s);
            ASSERT_NE(scalar, nullptr) << s->name();
            ASSERT_TRUE(ref.counters.count(s->name())) << s->name();
            EXPECT_EQ(scalar->value(), ref.counters.at(s->name()))
                << s->name();
            seen.insert(s->name());
        }
        EXPECT_EQ(seen.size(), ref.counters.size());
    }
}

TEST(CorrTableTest, RestoreIntoUsedTableReclaimsArena)
{
    CorrelationTable small(cfg4());
    small.update(0x1000, {0xa0, 0xb0});
    const std::string blob = saveTable(small);

    CorrelationTable t(cfg4());
    for (Addr k = 1; k <= 64; ++k)
        t.update(k << 6, {0xc0, 0xd0, 0xe0});
    ASSERT_GT(t.populatedEntries(), small.populatedEntries());
    restoreTable(t, blob);

    // The used table's blocks must not survive, unreachable, beside
    // the restored one.
    EXPECT_EQ(auditViolations(t), "");
    EXPECT_EQ(t.populatedEntries(), 1u);
    std::vector<Addr> out;
    ASSERT_TRUE(t.lookup(0x1000, out));
    EXPECT_EQ(out, (std::vector<Addr>{0xb0, 0xa0}));
}
