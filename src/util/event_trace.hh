/**
 * @file
 * Lifecycle event tracing with Chrome trace_event export.
 *
 * The paper's argument is temporal: a trigger observed in epoch i
 * must land its prefetches before epoch i+2 begins. End-of-run
 * aggregates cannot show whether that pipeline actually ran ahead of
 * the demand stream, so components record typed events (epoch spans,
 * EMAB inserts/evictions, correlation-table reads, the full
 * issue->fill->first-use life of every prefetch, demand misses) into
 * per-writer TraceSink ring buffers, and a TraceLog exports the
 * merged stream as Chrome trace_event JSON that chrome://tracing and
 * Perfetto load directly -- one timeline row per writer, one span per
 * epoch, so the i -> i+2 pipeline is visible at a glance.
 *
 * Overhead discipline:
 *  - recording is observation-only: no event ever feeds back into
 *    timing, so traced and untraced runs produce bit-identical
 *    SimResults (tests/test_observability.cc proves it);
 *  - every record site goes through EBCP_TRACE_EVENT, which is a
 *    null-pointer test when tracing is off at runtime;
 *  - a sink is single-writer by construction (each simulated
 *    component owns its sink; sweep threads never share one), so the
 *    ring needs no locks or atomics -- "lock-free" the cheap way;
 *  - the ring keeps the newest events and counts what it overwrote,
 *    so tracing never allocates after construction.
 */

#ifndef EBCP_UTIL_EVENT_TRACE_HH
#define EBCP_UTIL_EVENT_TRACE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.hh"
#include "util/types.hh"

namespace ebcp
{

/** Everything the timeline distinguishes. */
enum class TraceEventKind : std::uint8_t
{
    EpochSpan,         //!< one epoch [start, end); a0=epoch, a1=misses
    EmabInsert,        //!< epoch opened in the EMAB; a0=epoch, a1=key
    EmabEvict,         //!< oldest epoch aged out; a0=epoch, a1=misses
    TableRead,         //!< correlation read issue->complete; a0=key
    TableWrite,        //!< correlation write issued; a0=key
    PrefetchIssue,     //!< read sent to memory; a0=line, a1=corr index
    PrefetchFill,      //!< line lands in the buffer; a0=line
    PrefetchHitTimely, //!< demand hit, data on chip; a0=line
    PrefetchHitLate,   //!< demand hit, in flight; a0=line, a1=residual
    PrefetchEvict,     //!< evicted before any use; a0=line
    DemandMiss,        //!< off-chip demand issue->fill; a0=line
};

/** Number of distinct TraceEventKind values. */
constexpr std::size_t NumTraceEventKinds =
    static_cast<std::size_t>(TraceEventKind::DemandMiss) + 1;

/** One recorded event. POD; 40 bytes. */
struct TraceEvent
{
    Tick tick = 0;          //!< start tick
    Tick dur = 0;           //!< duration in ticks (0 for instants)
    std::uint64_t a0 = 0;   //!< kind-specific payload
    std::uint64_t a1 = 0;
    TraceEventKind kind = TraceEventKind::DemandMiss;
};

/**
 * A single-writer bounded event ring. Owned by a TraceLog; components
 * hold a raw pointer and record through EBCP_TRACE_EVENT.
 */
class TraceSink
{
  public:
    /**
     * @param name Perfetto thread name for this writer's row
     * @param tid trace-level thread id (core id for per-core writers)
     * @param capacity events retained (newest win); power of two
     */
    TraceSink(std::string name, std::uint32_t tid, std::size_t capacity);

    void
    record(TraceEventKind kind, Tick tick, Tick dur = 0,
           std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        TraceEvent &e = ring_[head_ & mask_];
        e.tick = tick;
        e.dur = dur;
        e.a0 = a0;
        e.a1 = a1;
        e.kind = kind;
        ++head_;
    }

    const std::string &name() const { return name_; }
    std::uint32_t tid() const { return tid_; }

    /** Events currently retained. */
    std::size_t size() const;

    /** Events overwritten because the ring wrapped. */
    std::uint64_t dropped() const;

    /** Retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

  private:
    std::string name_;
    std::uint32_t tid_;
    std::uint64_t head_ = 0; //!< total events ever recorded
    std::size_t mask_;
    std::vector<TraceEvent> ring_;
};

/**
 * The per-run collection of sinks plus the Chrome trace_event
 * exporter. One TraceLog per Simulator; never shared across
 * sweep threads.
 */
class TraceLog
{
  public:
    /** @param events_per_sink ring capacity (rounded up to pow2). */
    explicit TraceLog(std::size_t events_per_sink = 1u << 16);

    /**
     * Create (or return the existing) sink named @p name on timeline
     * row @p tid. Pointers remain stable for the log's lifetime.
     */
    TraceSink *sink(const std::string &name, std::uint32_t tid);

    const std::vector<std::unique_ptr<TraceSink>> &sinks() const
    {
        return sinks_;
    }

    /** Total events dropped across all sinks. */
    std::uint64_t totalDropped() const;

    /** Total events currently retained across all sinks. */
    std::size_t totalEvents() const;

    /**
     * Record one sample of the named counter track (exported as a
     * Chrome "C" event on pid 0, merged into the tick-ordered
     * stream). The Simulator samples occupancy-style values on the
     * IntervalSampler cadence, so Perfetto shows time-series next to
     * the lifecycle spans.
     */
    void counterSample(std::string name, Tick tick, double value);

    /** Counter samples recorded so far (insertion order). */
    std::size_t counterSamples() const { return counters_.size(); }

    /**
     * Append one pre-placed "X" span on an arbitrary (pid, tid)
     * track; used by the self-profiler to attach its host-time flame
     * (ts/dur in nanoseconds on its own pid). Spans are written in
     * insertion order after the merged tick stream, so the caller
     * must insert each track's spans in non-decreasing ts order.
     */
    void addSpan(std::string name, std::string cat, std::uint32_t pid,
                 std::uint32_t tid, double ts, double dur);

    /** Label @p pid with a process_name metadata row. */
    void setProcessName(std::uint32_t pid, std::string name);

    /**
     * Write the merged event stream as a Chrome trace_event JSON
     * document ("traceEvents" array object form, ts in simulated
     * ticks). Loadable by chrome://tracing and Perfetto.
     */
    void writeChromeJson(std::ostream &os) const;

    /** writeChromeJson() to @p path, then re-read and validate. */
    Status exportChromeJson(const std::string &path) const;

  private:
    struct CounterSample
    {
        std::string name;
        Tick tick;
        double value;
    };

    struct ExtraSpan
    {
        std::string name;
        std::string cat;
        std::uint32_t pid;
        std::uint32_t tid;
        double ts;
        double dur;
    };

    std::size_t capacity_;
    std::vector<std::unique_ptr<TraceSink>> sinks_;
    std::vector<CounterSample> counters_;
    std::vector<ExtraSpan> extraSpans_;
    std::vector<std::pair<std::uint32_t, std::string>> processNames_;
};

/**
 * Schema check for an exported timeline: well-formed JSON, a
 * "traceEvents" array whose entries carry the mandatory trace_event
 * members (name/ph/ts/pid/tid), and per-(pid, tid)-track monotone
 * non-negative ts -- which is what Perfetto's importer requires;
 * tracks on different pids (e.g. the self-profiler's flame) may use
 * different time units and need not interleave monotonically.
 */
Status validateChromeTraceJson(const std::string &text);

} // namespace ebcp

/**
 * Record an event through a possibly-null TraceSink*. The macro is
 * the only sanctioned record path: it keeps the disabled cost to one
 * predictable branch, and the event's arguments are not evaluated
 * when the sink is null.
 */
#define EBCP_TRACE_EVENT(sink, ...)                                        \
    do {                                                                   \
        if (sink)                                                          \
            (sink)->record(__VA_ARGS__);                                   \
    } while (0)

#endif // EBCP_UTIL_EVENT_TRACE_HH
