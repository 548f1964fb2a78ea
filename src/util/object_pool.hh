/**
 * @file
 * A free-list object pool for steady-state-allocation-free reuse.
 *
 * Components that repeatedly need short-lived objects with internal
 * capacity (chunk payload buffers, scratch vectors, pooled request
 * state) acquire from the pool and release back to it; after warm-up
 * every acquire is served from the free list and the hot path touches
 * the allocator never. PoolStats exposes exactly that property so
 * tests can assert it.
 *
 * Objects are handed back with their internal state intact (e.g. a
 * vector keeps its capacity); the caller is responsible for clearing
 * value content it cares about. Under -DEBCP_SANITIZE=address the
 * recycled objects remain ordinary heap objects, so use-after-release
 * bugs surface as ASan errors in the pool's stress tests.
 */

#ifndef EBCP_UTIL_OBJECT_POOL_HH
#define EBCP_UTIL_OBJECT_POOL_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace ebcp
{

/** Allocation accounting of one pool. */
struct PoolStats
{
    std::uint64_t acquires = 0;    //!< total acquire() calls
    std::uint64_t freshAllocs = 0; //!< acquires served by the allocator
    std::uint64_t reuses = 0;      //!< acquires served by the free list
    std::uint64_t releases = 0;    //!< objects handed back
    std::uint64_t outstanding = 0; //!< currently acquired
    std::uint64_t peakOutstanding = 0;

    /** Fraction of acquires that hit the free list. */
    double
    reuseRate() const
    {
        return acquires ? static_cast<double>(reuses) /
                              static_cast<double>(acquires)
                        : 0.0;
    }
};

/** Free-list pool of default-constructible objects. */
template <typename T>
class FreeListPool
{
  public:
    FreeListPool() = default;

    /** Pre-populate the free list with @p n objects. */
    void
    prime(std::size_t n)
    {
        free_.reserve(free_.size() + n);
        for (std::size_t i = 0; i < n; ++i) {
            free_.push_back(std::make_unique<T>());
            ++stats_.freshAllocs;
        }
    }

    /**
     * Take an object (recycled if available, freshly allocated
     * otherwise). Recycled objects keep their internal capacity but
     * may hold stale content.
     */
    std::unique_ptr<T>
    acquire()
    {
        ++stats_.acquires;
        ++stats_.outstanding;
        if (stats_.outstanding > stats_.peakOutstanding)
            stats_.peakOutstanding = stats_.outstanding;
        if (!free_.empty()) {
            ++stats_.reuses;
            std::unique_ptr<T> obj = std::move(free_.back());
            free_.pop_back();
            return obj;
        }
        ++stats_.freshAllocs;
        return std::make_unique<T>();
    }

    /** Hand @p obj back for reuse. */
    void
    release(std::unique_ptr<T> obj)
    {
        panic_if(!obj, "released a null object to a FreeListPool");
        panic_if(stats_.outstanding == 0,
                 "FreeListPool release without a matching acquire");
        ++stats_.releases;
        --stats_.outstanding;
        free_.push_back(std::move(obj));
    }

    std::size_t freeCount() const { return free_.size(); }
    const PoolStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

  private:
    std::vector<std::unique_ptr<T>> free_;
    PoolStats stats_;
};

/**
 * RAII lease of one pooled object: acquires on construction, releases
 * on destruction, so early returns cannot leak objects out of the
 * pool.
 */
template <typename T>
class PoolLease
{
  public:
    explicit PoolLease(FreeListPool<T> &pool)
        : pool_(pool), obj_(pool.acquire())
    {}

    ~PoolLease()
    {
        if (obj_)
            pool_.release(std::move(obj_));
    }

    PoolLease(const PoolLease &) = delete;
    PoolLease &operator=(const PoolLease &) = delete;

    T &operator*() { return *obj_; }
    T *operator->() { return obj_.get(); }

  private:
    FreeListPool<T> &pool_;
    std::unique_ptr<T> obj_;
};

} // namespace ebcp

#endif // EBCP_UTIL_OBJECT_POOL_HH
