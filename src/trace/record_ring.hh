/**
 * @file
 * A growable power-of-two ring buffer of trace records.
 *
 * SyntheticWorkload generates a whole transaction's records at once
 * and the core drains them one by one. A std::deque pays block
 * allocation/deallocation churn for that producer/consumer pattern;
 * this ring reaches a high-water capacity during the first few
 * transactions and then recycles the same storage forever -- zero
 * steady-state allocation on the record path. RingStats counts grows
 * so tests can assert exactly that.
 */

#ifndef EBCP_TRACE_RECORD_RING_HH
#define EBCP_TRACE_RECORD_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace ebcp
{

/** Traffic/allocation counters of one ring. */
struct RingStats
{
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t grows = 0;    //!< mid-run capacity doublings
    std::uint64_t reserves = 0; //!< deliberate pre-sizing allocations
};

/**
 * FIFO ring of T with power-of-two capacity. Grows by doubling when
 * full; never shrinks, so a warmed ring serves pushSlot()/popFront()
 * without touching the allocator.
 */
template <typename T>
class RecordRing
{
  public:
    explicit RecordRing(std::size_t initial_capacity = 64)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Append one element and return a reference to its slot. The slot
     * holds the previous occupant's (stale) value; the caller must
     * assign it.
     */
    T &
    pushSlot()
    {
        if (size_ == slots_.size())
            grow();
        T &slot = slots_[(head_ + size_) & mask_];
        ++size_;
        ++stats_.pushes;
        return slot;
    }

    /** Free slots past the newest element, from reserveBack(). */
    class Reservation
    {
      public:
        /** The @p k-th slot after the newest element (stale value). */
        T &
        operator[](std::size_t k) const
        {
            return base_[(at_ + k) & mask_];
        }

      private:
        friend class RecordRing;
        Reservation(T *base, std::size_t at, std::size_t mask)
            : base_(base), at_(at), mask_(mask)
        {}

        T *base_;
        std::size_t at_;
        std::size_t mask_;
    };

    /**
     * Bulk append, first half: make room for @p n more elements,
     * growing as that many pushSlot() calls would, and return the free
     * slots. Fill slots 0..k-1 in order, then commit(k) with k <= n;
     * no other ring call may come in between.
     */
    Reservation
    reserveBack(std::size_t n)
    {
        while (slots_.size() - size_ < n)
            grow();
        return Reservation(slots_.data(), head_ + size_, mask_);
    }

    /** Bulk append, second half: publish the first @p n reserved
     * slots as the newest elements. */
    void
    commit(std::size_t n)
    {
        panic_if(size_ + n > slots_.size(), "commit() past the reservation");
        size_ += n;
        stats_.pushes += n;
    }

    /** Oldest element. */
    const T &
    front() const
    {
        panic_if(size_ == 0, "front() on an empty RecordRing");
        return slots_[head_];
    }

    /** Drop the oldest element (its slot is recycled, not destroyed). */
    void
    popFront()
    {
        panic_if(size_ == 0, "popFront() on an empty RecordRing");
        head_ = (head_ + 1) & mask_;
        --size_;
        ++stats_.pops;
    }

    /**
     * Copy the @p n oldest elements into @p out and drop them: one
     * bounds check and at most two contiguous copies (the ring can
     * wrap once), instead of n front()/popFront() round trips.
     */
    void
    drainInto(T *out, std::size_t n)
    {
        panic_if(n > size_, "drainInto() past the RecordRing size");
        const std::size_t cap = slots_.size();
        const std::size_t first = std::min(n, cap - head_);
        std::copy_n(slots_.data() + head_, first, out);
        std::copy_n(slots_.data(), n - first, out + first);
        head_ = (head_ + n) & mask_;
        size_ -= n;
        stats_.pops += n;
    }

    /**
     * Expose the oldest elements in place: @p *out points at the
     * first contiguous segment (the ring wraps at most once, so up to
     * two calls see everything). Nothing is popped -- pair with
     * popN() after the caller has consumed the span.
     *
     * @return the segment length (0 when empty).
     */
    std::size_t
    frontSpan(const T **out) const
    {
        *out = slots_.data() + head_;
        return std::min(size_, slots_.size() - head_);
    }

    /** Drop the @p n oldest elements without copying them out. */
    void
    popN(std::size_t n)
    {
        panic_if(n > size_, "popN() past the RecordRing size");
        head_ = (head_ + n) & mask_;
        size_ -= n;
        stats_.pops += n;
    }

    /**
     * Grow the slot array (power-of-two rounded) so @p n elements fit
     * without a mid-run grow(); counted separately from grows so the
     * steady-state zero-allocation assertions stay meaningful.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = slots_.size();
        while (cap < n)
            cap <<= 1;
        if (cap == slots_.size())
            return;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = slots_[(head_ + i) & mask_];
        slots_ = std::move(next);
        mask_ = cap - 1;
        head_ = 0;
        ++stats_.reserves;
    }

    /** Drop all elements; keeps the slot array (no deallocation). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** @return element @p i, 0 = oldest (checkpoint iteration). */
    const T &
    at(std::size_t i) const
    {
        panic_if(i >= size_, "RecordRing index out of range");
        return slots_[(head_ + i) & mask_];
    }

    const RingStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

  private:
    void
    grow()
    {
        // Re-linearize into a doubled array with the oldest element
        // at index 0.
        const std::size_t new_cap = slots_.size() * 2;
        std::vector<T> next(new_cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = slots_[(head_ + i) & mask_];
        slots_ = std::move(next);
        mask_ = new_cap - 1;
        head_ = 0;
        ++stats_.grows;
    }

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    RingStats stats_;
};

} // namespace ebcp

#endif // EBCP_TRACE_RECORD_RING_HH
