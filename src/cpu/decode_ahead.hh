/**
 * @file
 * Decode-ahead staging between a TraceSource and the core loop.
 *
 * The core used to pull 64-record batches straight from the source
 * inside its retirement loop, serializing trace decode (transaction
 * generation or file decode) with timing simulation. DecodeAhead
 * splits the two into a producer/consumer pipeline over chunk
 * buffers:
 *
 *  - on a multi-core host, a producer thread fills the next chunk
 *    while the core drains the current one (double buffering, handed
 *    off under a mutex + condition variable so the handoff is clean
 *    under TSan);
 *  - on a single-core host -- where a producer thread would only add
 *    context switches -- the refill runs inline, and the pipeline
 *    still pays for itself by exposing records as a zero-copy span of
 *    the chunk (the core reads chunk memory directly; the old path
 *    copied every record through a stack batch);
 *  - a source that buffers decoded records contiguously
 *    (TraceSource::spanSource) skips the chunks entirely: acquire()
 *    forwards the source's own buffer span to the consumer, so the
 *    generate->simulate path performs zero per-record copies.
 *
 * Chunk buffers are leased from a thread-local FreeListPool arena, so
 * each sweep-worker thread recycles the same chunk storage across
 * every run it executes -- run-local allocations never touch the
 * global allocator after a worker's first run.
 *
 * The exact-count contract of the core loop is preserved: over its
 * lifetime a pipe pulls exactly the requested record count from the
 * source (fewer only if the source runs dry), so at normal completion
 * the source is positioned as if records had been pulled one at a
 * time -- which is what lets a warm checkpoint serialized after the
 * run fork bit-identical measured phases. An abandoned run (watchdog
 * or audit abort) may leave the producer having pulled ahead; the
 * run's contract already declares the source dead in that case.
 */

#ifndef EBCP_CPU_DECODE_AHEAD_HH
#define EBCP_CPU_DECODE_AHEAD_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cpu/trace.hh"
#include "util/object_pool.hh"
#include "util/profiler.hh"

namespace ebcp
{

/** Per-thread arena recycling decode chunk buffers across runs. */
inline FreeListPool<std::vector<TraceRecord>> &
decodeChunkArena()
{
    thread_local FreeListPool<std::vector<TraceRecord>> arena;
    return arena;
}

/** The staging pipe. One per CoreModel::run invocation. */
class DecodeAhead
{
    /** Records per chunk: large enough to amortize the source's
     * virtual dispatch and the producer handoff, small enough that
     * double buffering stays cache-resident (2 x 32KB). */
    static constexpr std::size_t kChunkRecords = 1024;

    /** Runs shorter than this keep the inline path even on multi-core
     * hosts: thread startup would cost more than the overlap wins
     * (a CMP interleaving turn is about 100 instructions). */
    static constexpr std::uint64_t kThreadedMin = 65536;

  public:
    DecodeAhead(TraceSource &src, std::uint64_t count)
        : src_(src), budget_(count), spanMode_(src.spanSource()),
          threaded_(!spanMode_ && count >= kThreadedMin &&
                    std::thread::hardware_concurrency() > 1)
    {
        if (spanMode_)
            return; // reads the source's own buffer; no chunks at all
        for (auto &c : chunks_) {
            c = decodeChunkArena().acquire();
            c->resize(kChunkRecords);
        }
        if (threaded_)
            producer_ = std::thread([this] { produce(); });
    }

    ~DecodeAhead()
    {
        if (threaded_) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                stop_ = true;
            }
            cv_.notify_all();
            producer_.join();
        }
        for (auto &c : chunks_)
            if (c)
                decodeChunkArena().release(std::move(c));
    }

    DecodeAhead(const DecodeAhead &) = delete;
    DecodeAhead &operator=(const DecodeAhead &) = delete;

    /**
     * Expose the next contiguous span of records, at most @p max.
     * @return the span length; 0 when the requested count has been
     *         fully delivered or the source ran dry.
     */
    std::size_t
    acquire(const TraceRecord **out, std::size_t max)
    {
        if (spanMode_) {
            if (budget_ == 0)
                return 0;
            const std::size_t want = static_cast<std::size_t>(
                budget_ < max ? budget_ : max);
            std::size_t got;
            {
                EBCP_PROFILE_SCOPE(Decode);
                got = src_.peekSpan(out, want);
            }
            if (got == 0)
                budget_ = 0; // source dry: stop asking
            return got;
        }
        if (pos_ == len_ && !refill())
            return 0;
        *out = chunks_[cur_]->data() + pos_;
        const std::size_t avail = len_ - pos_;
        return avail < max ? avail : max;
    }

    /** Mark @p n records of the last acquired span as processed. */
    void
    consume(std::size_t n)
    {
        if (spanMode_) {
            src_.consumeSpan(n);
            budget_ -= n;
            return;
        }
        pos_ += n;
    }

  private:
    /** Swap in the next filled chunk; @return false when no records
     * remain (budget delivered or source dry). */
    bool
    refill()
    {
        if (threaded_)
            return refillThreaded();
        const std::size_t want = static_cast<std::size_t>(
            budget_ < kChunkRecords ? budget_ : kChunkRecords);
        if (want == 0)
            return false;
        std::size_t got;
        {
            EBCP_PROFILE_SCOPE(Decode);
            got = src_.nextBatch(chunks_[0]->data(), want);
        }
        budget_ -= got;
        if (got < want)
            budget_ = 0; // source dry: stop asking
        cur_ = 0;
        pos_ = 0;
        len_ = got;
        return len_ > 0;
    }

    bool
    refillThreaded()
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (len_ > 0) { // hand the drained chunk back to the producer
            filled_[cur_] = false;
            len_ = 0;
            cv_.notify_all();
            cur_ ^= 1;
        }
        cv_.wait(lk, [this] {
            return filled_[cur_] || producerDone_;
        });
        if (!filled_[cur_])
            return false;
        pos_ = 0;
        len_ = chunkLen_[cur_];
        return len_ > 0;
    }

    /** Producer-thread body: fill free chunks in order until the
     * budget is delivered, the source runs dry, or the consumer
     * abandons the run. */
    void
    produce()
    {
        std::size_t fill = 0;
        std::uint64_t budget = budget_;
        while (budget > 0) {
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [&] { return !filled_[fill] || stop_; });
                if (stop_)
                    return;
            }
            const std::size_t want = static_cast<std::size_t>(
                budget < kChunkRecords ? budget : kChunkRecords);
            const std::size_t got =
                src_.nextBatch(chunks_[fill]->data(), want);
            budget -= got;
            if (got < want)
                budget = 0;
            {
                std::lock_guard<std::mutex> lk(mu_);
                chunkLen_[fill] = got;
                filled_[fill] = true;
                if (budget == 0)
                    producerDone_ = true;
            }
            cv_.notify_all();
            fill ^= 1;
        }
    }

    TraceSource &src_;
    std::uint64_t budget_;
    std::unique_ptr<std::vector<TraceRecord>> chunks_[2];
    const bool spanMode_;
    const bool threaded_;

    // Consumer cursor into the current chunk.
    std::size_t cur_ = 0;
    std::size_t pos_ = 0;
    std::size_t len_ = 0;

    // Threaded-mode handoff state, all guarded by mu_.
    std::mutex mu_;
    std::condition_variable cv_;
    bool filled_[2] = {false, false};
    std::size_t chunkLen_[2] = {0, 0};
    bool producerDone_ = false;
    bool stop_ = false;
    std::thread producer_;
};

} // namespace ebcp

#endif // EBCP_CPU_DECODE_AHEAD_HH
