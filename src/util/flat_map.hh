/**
 * @file
 * Group-probed open-addressed hash map for the simulator's hottest
 * structures.
 *
 * The first-generation FlatMap probed one slot at a time: each probe
 * loaded a full Slot (key + inline value + used flag), so a lookup at
 * realistic load factors touched several cache lines and compared
 * several keys. This version splits the table into three parallel
 * arrays (control bytes / keys / values -- an SoA layout) and probes
 * Swiss-table style: a one-byte control word per slot holds either an
 * "empty" sentinel or the H2 fingerprint (top 7 bits) of the slot
 * key's hash, and lookups scan a whole group of those bytes at once --
 * 16 at a time with SSE2, 8 at a time with a portable 64-bit
 * bitmask fallback (-DEBCP_NO_SIMD). Keys are only compared for slots
 * whose fingerprint matches, so a find touches one control-byte line
 * per group and almost always exactly one key.
 *
 * Deletion uses backward-shift (no tombstones): displaced slots are
 * moved back over the hole so probe chains never accumulate dead
 * entries and lookup cost stays proportional to live load.
 *
 * The map is reserve-aware: reserve(n) sizes the arrays so n entries
 * fit under the load-factor cap without rehashing, which is how the
 * MSHR file achieves zero steady-state allocation.
 *
 * Cheap always-on counters (FlatMapStats) feed perfbench's
 * per-structure probe statistics. findProbes counts *key comparisons*
 * (candidate slots whose fingerprint matched), findGroups counts
 * control-byte groups scanned; with the fingerprint filter in place,
 * probes-per-find measures hash quality rather than chain length.
 */

#ifndef EBCP_UTIL_FLAT_MAP_HH
#define EBCP_UTIL_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/bitfield.hh"
#include "util/logging.hh"

#if !defined(EBCP_NO_SIMD) && defined(__SSE2__)
#define EBCP_FLATMAP_SIMD 1
#include <emmintrin.h>
#else
#define EBCP_FLATMAP_SIMD 0
#endif

namespace ebcp
{

/** Operation counters of one FlatMap (perfbench reporting). */
struct FlatMapStats
{
    std::uint64_t finds = 0;       //!< find() calls
    std::uint64_t findProbes = 0;  //!< candidate keys compared across
                                   //!< finds (fingerprint matches)
    std::uint64_t findGroups = 0;  //!< control-byte groups scanned
    std::uint64_t hits = 0;        //!< finds that located the key
    std::uint64_t inserts = 0;     //!< new keys stored
    std::uint64_t erases = 0;      //!< keys removed
    std::uint64_t backshifts = 0;  //!< slots moved by backward-shift
    std::uint64_t rehashes = 0;    //!< load-triggered growths; a
                                   //!< deliberate reserve() is not
                                   //!< counted

    /** Mean key comparisons per find (1.0 = one fingerprint-confirmed
     * candidate per lookup; misses can bring it below 1). */
    double
    probesPerFind() const
    {
        return finds ? static_cast<double>(findProbes) /
                           static_cast<double>(finds)
                     : 0.0;
    }
};

/** Default hash: finalize with mix64 so regular strides spread out. */
struct FlatHash
{
    std::uint64_t
    operator()(std::uint64_t k) const
    {
        return mix64(k);
    }
};

namespace flat_detail
{

/** The "no entry here" control byte; used slots hold a 7-bit H2
 * fingerprint, so the high bit cleanly separates the two. */
constexpr std::uint8_t kCtrlEmpty = 0x80;

/** H2: the hash bits not used for slot selection, as a 7-bit
 * fingerprint stored in the control byte. */
inline std::uint8_t
ctrlH2(std::uint64_t hash)
{
    return static_cast<std::uint8_t>(hash >> 57);
}

#if EBCP_FLATMAP_SIMD

/** One SSE2 probe group: 16 control bytes scanned per load. */
struct Group
{
    static constexpr std::size_t kWidth = 16;

    __m128i v;

    static Group
    load(const std::uint8_t *p)
    {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(p))};
    }

    /** Bitmask of lanes whose control byte equals @p h2 (exact). */
    std::uint32_t
    match(std::uint8_t h2) const
    {
        const __m128i dup = _mm_set1_epi8(static_cast<char>(h2));
        return static_cast<std::uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(v, dup)));
    }

    /** Bitmask of empty lanes (kCtrlEmpty is the only value with the
     * high bit set, so movemask alone suffices). */
    std::uint32_t
    matchEmpty() const
    {
        return static_cast<std::uint32_t>(_mm_movemask_epi8(v));
    }

    /** Lane index of the lowest set bit of @p mask. */
    static unsigned
    lane(std::uint32_t mask)
    {
        return static_cast<unsigned>(__builtin_ctz(mask));
    }

    /** Clear the lowest set bit of @p mask. */
    static std::uint32_t
    clearLowest(std::uint32_t mask)
    {
        return mask & (mask - 1);
    }
};

#else // !EBCP_FLATMAP_SIMD

/**
 * Portable scalar-bitmask probe group: 8 control bytes scanned per
 * 64-bit load using the SWAR zero-byte trick. match() may report a
 * false-positive lane when borrow propagation crosses a genuinely
 * matching byte -- harmless, because every candidate is confirmed by
 * a full key comparison -- but matchEmpty() is exact, so probe chains
 * terminate correctly.
 */
struct Group
{
    static constexpr std::size_t kWidth = 8;

    static constexpr std::uint64_t kLsbs = 0x0101010101010101ULL;
    static constexpr std::uint64_t kMsbs = 0x8080808080808080ULL;

    std::uint64_t v;

    static Group
    load(const std::uint8_t *p)
    {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        return {word};
    }

    /** Bitmask (one bit per lane, bit = lane * 8 + 7) of lanes whose
     * control byte equals @p h2, possibly with false positives. */
    std::uint64_t
    match(std::uint8_t h2) const
    {
        const std::uint64_t x = v ^ (kLsbs * h2);
        return (x - kLsbs) & ~x & kMsbs;
    }

    /** Bitmask of empty lanes (exact: kCtrlEmpty's high bit). */
    std::uint64_t
    matchEmpty() const
    {
        return v & kMsbs;
    }

    static unsigned
    lane(std::uint64_t mask)
    {
        return static_cast<unsigned>(__builtin_ctzll(mask)) >> 3;
    }

    static std::uint64_t
    clearLowest(std::uint64_t mask)
    {
        return mask & (mask - 1);
    }
};

#endif // EBCP_FLATMAP_SIMD

} // namespace flat_detail

/**
 * Group-probed open-addressed hash map from a 64-bit key to V.
 *
 * Probing is linear at slot granularity (insertion claims the first
 * empty slot after the home slot), scanned a group at a time. Grows
 * by doubling at 7/8 load. Iteration order is the slot order
 * (unspecified, like unordered_map's); callers that iterate must be
 * order-insensitive.
 */
template <typename V, typename Hash = FlatHash>
class FlatMap
{
    using Group = flat_detail::Group;
    static constexpr std::size_t kGroupWidth = Group::kWidth;
    static constexpr std::size_t kMinCapacity = 16;

  public:
    using Key = std::uint64_t;

    explicit FlatMap(std::size_t initial_capacity = kMinCapacity)
    {
        std::size_t cap = kMinCapacity;
        while (cap < initial_capacity)
            cap <<= 1;
        allocate(cap);
    }

    /** Size the arrays so @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        // Stay strictly below the 7/8 growth trigger.
        std::size_t cap = capacity();
        while (n + (n >> 3) + 1 > cap - (cap >> 3))
            cap <<= 1;
        if (cap != capacity())
            rehash(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return keys_.size(); }

    /** @return pointer to the value for @p key, or nullptr. */
    V *
    find(Key key)
    {
        ++stats_.finds;
        const std::uint64_t h = Hash{}(key);
        const std::uint8_t h2 = flat_detail::ctrlH2(h);
        std::size_t i = h & mask_;
        while (true) {
            ++stats_.findGroups;
            const Group g = Group::load(&ctrl_[i]);
            for (auto m = g.match(h2); m; m = Group::clearLowest(m)) {
                ++stats_.findProbes;
                const std::size_t s = (i + Group::lane(m)) & mask_;
                if (keys_[s] == key) {
                    ++stats_.hits;
                    return &values_[s];
                }
            }
            if (g.matchEmpty())
                return nullptr;
            i = (i + kGroupWidth) & mask_;
        }
    }

    const V *
    find(Key key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Value for @p key, default-constructing a new entry if absent. */
    V &
    operator[](Key key)
    {
        if (V *v = find(key))
            return *v;
        maybeGrow();
        const std::uint64_t h = Hash{}(key);
        const std::size_t s = firstEmpty(h & mask_);
        keys_[s] = key;
        setCtrl(s, flat_detail::ctrlH2(h));
        values_[s] = V{};
        ++size_;
        ++stats_.inserts;
        return values_[s];
    }

    /** Insert or overwrite @p key -> @p value. */
    void
    insert(Key key, V value)
    {
        (*this)[key] = std::move(value);
    }

    /**
     * Remove @p key. Backward-shift compaction: later slots of the
     * probe chain that would become unreachable are moved over the
     * hole, so no tombstones are ever left behind.
     *
     * @return true if the key was present.
     */
    bool
    erase(Key key)
    {
        const std::uint64_t h = Hash{}(key);
        std::size_t i = h & mask_;
        while (true) {
            if (ctrl_[i] == flat_detail::kCtrlEmpty)
                return false;
            if (ctrl_[i] == flat_detail::ctrlH2(h) && keys_[i] == key)
                break;
            i = (i + 1) & mask_;
        }
        ++stats_.erases;
        --size_;

        // Shift successors back while they are displaced past the hole.
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (ctrl_[j] == flat_detail::kCtrlEmpty)
                break;
            const std::size_t home = Hash{}(keys_[j]) & mask_;
            // The slot may move into the hole iff its home position
            // does not lie cyclically inside (hole, j] -- otherwise
            // the move would put it before its home and break lookups.
            const std::size_t dist_home = (j - home) & mask_;
            const std::size_t dist_hole = (j - hole) & mask_;
            if (dist_home >= dist_hole) {
                keys_[hole] = keys_[j];
                values_[hole] = std::move(values_[j]);
                setCtrl(hole, ctrl_[j]);
                setCtrl(j, flat_detail::kCtrlEmpty);
                hole = j;
                ++stats_.backshifts;
            }
        }
        setCtrl(hole, flat_detail::kCtrlEmpty);
        values_[hole] = V{};
        return true;
    }

    /** Drop all entries; keeps the arrays (no deallocation). */
    void
    clear()
    {
        for (std::size_t i = 0; i < capacity(); ++i) {
            if (ctrl_[i] != flat_detail::kCtrlEmpty)
                values_[i] = V{};
        }
        std::fill(ctrl_.begin(), ctrl_.end(), flat_detail::kCtrlEmpty);
        size_ = 0;
    }

    /** Visit every (key, value) pair; order is unspecified. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < capacity(); ++i)
            if (ctrl_[i] != flat_detail::kCtrlEmpty)
                fn(keys_[i], values_[i]);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < capacity(); ++i)
            if (ctrl_[i] != flat_detail::kCtrlEmpty)
                fn(keys_[i], values_[i]);
    }

    const FlatMapStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

    /**
     * Structural self-check for the audit layer (which lives above
     * util and so cannot be included from here): size() must equal
     * the number of used slots, keys must be unique, every used
     * slot's control byte must carry the H2 fingerprint of its own
     * key's hash (a mismatched fingerprint makes the group probe skip
     * the slot, so the entry silently vanishes from lookups), the
     * control mirror that lets group loads run past the array end
     * must agree with the primary bytes, and every used slot must be
     * reachable from its key's home slot without crossing an empty
     * slot -- the linear-probing invariant that backward-shift
     * deletion exists to maintain.
     *
     * @return empty when intact, else a description of the breakage.
     */
    std::string
    integrityError() const
    {
        const std::size_t cap = capacity();
        std::size_t used = 0;
        std::vector<Key> keys;
        keys.reserve(size_);
        for (std::size_t j = 0; j < cap; ++j) {
            if (ctrl_[j] == flat_detail::kCtrlEmpty)
                continue;
            ++used;
            keys.push_back(keys_[j]);
            const std::uint64_t h = Hash{}(keys_[j]);
            if (ctrl_[j] != flat_detail::ctrlH2(h))
                return "slot " + std::to_string(j) + " (key " +
                       std::to_string(keys_[j]) + ") control byte " +
                       std::to_string(ctrl_[j]) +
                       " does not match its key's fingerprint " +
                       std::to_string(flat_detail::ctrlH2(h)) +
                       " -- group probes skip the entry";
            const std::size_t home = h & mask_;
            // Every slot cyclically in [home, j) must be occupied,
            // or find(keys_[j]) stops at the gap and misses this
            // entry.
            for (std::size_t i = home; i != j; i = (i + 1) & mask_) {
                if (ctrl_[i] == flat_detail::kCtrlEmpty)
                    return "slot " + std::to_string(j) + " (key " +
                           std::to_string(keys_[j]) +
                           ") unreachable: empty slot " +
                           std::to_string(i) + " breaks its probe chain";
            }
        }
        for (std::size_t j = 0; j < kGroupWidth; ++j) {
            if (ctrl_[cap + j] != ctrl_[j])
                return "control mirror byte " + std::to_string(j) +
                       " is " + std::to_string(ctrl_[cap + j]) +
                       " but the primary byte is " +
                       std::to_string(ctrl_[j]) +
                       " -- wrapped group probes read stale state";
        }
        if (used != size_)
            return "size() is " + std::to_string(size_) + " but " +
                   std::to_string(used) + " slots are used";
        std::sort(keys.begin(), keys.end());
        for (std::size_t i = 1; i < keys.size(); ++i)
            if (keys[i] == keys[i - 1])
                return "duplicate key " + std::to_string(keys[i]);
        return {};
    }

    /** Test-only: hide one used slot without fixing up size or probe
     * chains, so integrityError() has something to find. */
    void
    corruptForTest()
    {
        for (std::size_t i = 0; i < capacity(); ++i) {
            if (ctrl_[i] != flat_detail::kCtrlEmpty) {
                setCtrl(i, flat_detail::kCtrlEmpty);
                return;
            }
        }
    }

    /** Test-only: overwrite one used slot's control byte with a wrong
     * fingerprint (still "used"), so group probes skip the entry and
     * integrityError() reports the mismatch. */
    void
    corruptCtrlForTest()
    {
        for (std::size_t i = 0; i < capacity(); ++i) {
            if (ctrl_[i] != flat_detail::kCtrlEmpty) {
                setCtrl(i, (ctrl_[i] + 1) & 0x7f);
                return;
            }
        }
    }

  private:
    void
    allocate(std::size_t cap)
    {
        panic_if(!isPowerOf2(cap), "FlatMap capacity not power of 2");
        // kGroupWidth mirror bytes after the array proper let a group
        // load starting at any slot read straight past the end
        // instead of wrapping; setCtrl() keeps them coherent.
        ctrl_.assign(cap + kGroupWidth, flat_detail::kCtrlEmpty);
        keys_.assign(cap, 0);
        values_.clear();
        values_.resize(cap);
        mask_ = cap - 1;
    }

    /** Write control byte @p v at slot @p i, maintaining the mirror. */
    void
    setCtrl(std::size_t i, std::uint8_t v)
    {
        ctrl_[i] = v;
        if (i < kGroupWidth)
            ctrl_[keys_.size() + i] = v;
    }

    /** First empty slot at or (cyclically) after @p i. */
    std::size_t
    firstEmpty(std::size_t i) const
    {
        while (true) {
            const Group g = Group::load(&ctrl_[i]);
            if (const auto m = g.matchEmpty())
                return (i + Group::lane(m)) & mask_;
            i = (i + kGroupWidth) & mask_;
        }
    }

    void
    maybeGrow()
    {
        // Grow at 7/8 occupancy; probing degrades sharply past that
        // point. Only these load-triggered growths count toward
        // stats_.rehashes -- a deliberate pre-sizing via reserve()
        // does not, so the counter reads as "unplanned allocations on
        // the hot path".
        const std::size_t cap = capacity();
        if (size_ + 1 > cap - (cap >> 3)) {
            ++stats_.rehashes;
            rehash(cap * 2);
        }
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        std::vector<Key> old_keys = std::move(keys_);
        std::vector<V> old_values = std::move(values_);
        allocate(new_cap);
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_ctrl[i] == flat_detail::kCtrlEmpty)
                continue;
            const std::uint64_t h = Hash{}(old_keys[i]);
            const std::size_t s = firstEmpty(h & mask_);
            keys_[s] = old_keys[i];
            values_[s] = std::move(old_values[i]);
            setCtrl(s, flat_detail::ctrlH2(h));
        }
    }

    // SoA slot storage: parallel control/key/value arrays, so probe
    // loops touch one control-byte line per group and key lines only
    // for fingerprint matches.
    std::vector<std::uint8_t> ctrl_; //!< capacity() + mirror bytes
    std::vector<Key> keys_;
    std::vector<V> values_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    FlatMapStats stats_;
};

} // namespace ebcp

#endif // EBCP_UTIL_FLAT_MAP_HH
