/**
 * @file
 * Hierarchical scoped self-profiler: where do the simulator's own
 * cycles go?
 *
 * The event-trace layer answers questions about *simulated* time;
 * this module answers the complementary host-side question -- how
 * much wall and CPU time the process spends decoding the trace,
 * running the core loop, training the prefetcher, issuing prefetches,
 * auditing, checkpointing and exporting stats. Each phase is an RAII
 * Scope; scopes nest, and every thread accumulates its own phase
 * *tree* (core_loop/prefetch_train is distinct from a bare
 * prefetch_train), so attribution survives arbitrary nesting without
 * double counting.
 *
 * Overhead discipline (the perf-smoke gate holds this under 2%):
 *  - the fast path is a relaxed atomic load, one table lookup, one
 *    increment and one masked compare -- no clock read;
 *  - hot phases (prefetch_train fires per L2 access) only read the
 *    clocks on a stride of their visits; visit counts stay exact and
 *    times are scaled estimates flagged "sampled" in the report;
 *  - accumulators are thread_local, so there is no sharing, no
 *    locking, and no cross-thread data race to report: a snapshot is
 *    explicitly *this thread's* tree, which matches how the sweep
 *    runner executes each simulation on a single worker thread.
 */

#ifndef EBCP_UTIL_PROFILER_HH
#define EBCP_UTIL_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace ebcp
{

class JsonWriter;
class TraceLog;

namespace prof
{

/** The instrumented phases. Order is the child-table index. */
enum class Phase : std::uint8_t
{
    Decode,        //!< trace decode / batch refill
    CoreLoop,      //!< a warm or measure phase of every core's loop
    PrefetchTrain, //!< prefetcher observeAccess
    PrefetchIssue, //!< L2Subsystem::issuePrefetch
    Audit,         //!< Auditor::runNow
    Ckpt,          //!< checkpoint serialize/restore
    Stats,         //!< stats dump/export
};

/** Number of distinct Phase values. */
inline constexpr unsigned NumPhases =
    static_cast<unsigned>(Phase::Stats) + 1;

/** JSON / display name of @p p ("decode", "core_loop", ...). */
const char *phaseName(Phase p);

/** Runtime switch (process-wide, default on). Scopes opened while
 * disabled record nothing; re-enabling resumes accumulation. */
void setEnabled(bool on);
bool enabled();

/** Drop this thread's accumulated tree (for paired A/B timing). */
void resetThisThread();

/** One node of the snapshotted phase tree. */
struct NodeReport
{
    std::string path;  //!< "core_loop/prefetch_train"
    Phase phase = Phase::Decode;
    unsigned depth = 0;          //!< 1 for top-level phases
    std::uint64_t visits = 0;      //!< exact scope entries
    std::uint64_t timedVisits = 0; //!< entries that read the clocks
    std::uint64_t wallNs = 0;      //!< measured over timed visits
    std::uint64_t cpuNs = 0;       //!< thread CPU, timed visits
    /** Measured time minus the calibrated self-cost of the clock
     * reads, scaled to all visits (>= 0). */
    double estWallNs = 0.0;
    double estCpuNs = 0.0;
    bool sampled = false; //!< timedVisits < visits (times estimated)
};

/** This thread's phase tree, preorder (parents before children). */
struct Report
{
    bool enabled = false;
    std::vector<NodeReport> nodes;
};

Report snapshotThisThread();

/** Write this thread's profile as one JSON object value:
 * {"enabled": ..., "clock": ..., "nodes": [...]}. Always writes a
 * valid object, even when the profiler is switched off. */
void writeProfileJson(JsonWriter &w);

/** writeProfileJson() rendered to a string (for rawValue splicing
 * into an ebcp-stats-v1 document). */
std::string profileJsonString();

/** Add this thread's phase tree to @p log as a flame of "X" spans on
 * its own process row (pid 1, ts in nanoseconds), so Perfetto shows
 * host-side attribution next to the simulated timeline. No-op when
 * the tree is empty. */
void exportProfileSpans(TraceLog &log);

namespace detail
{

/** Per-phase visit stride between clock reads (mask form: time when
 * (visits & mask) == (1 & mask)). Hot phases sample sparsely; rare
 * phases (mask 0) are always timed. */
// Strides are sized so the CPU clock read -- a genuine syscall
// (CLOCK_THREAD_CPUTIME_ID has no vDSO path) that can cost microseconds
// under a container's seccomp filter -- stays far off the hot paths;
// the perf-smoke max_profiler_overhead gate is what holds this honest.
inline constexpr std::uint32_t StrideMask[NumPhases] = {
    255,  // Decode: one refill per 1024 records, still frequent
    0,    // CoreLoop: once per run() call
    1023, // PrefetchTrain: fires per L2 access
    1023, // PrefetchIssue: fires per issued prefetch
    0,    // Audit
    0,    // Ckpt
    0,    // Stats
};

inline constexpr std::uint8_t NoChild = 0xff;
inline constexpr unsigned MaxNodes = 64;

struct Node
{
    std::uint64_t visits = 0;
    std::uint64_t timedVisits = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t cpuNs = 0;
    std::uint8_t parent = 0;
    std::uint8_t phase = 0;
    std::uint8_t depth = 0;
    std::uint8_t child[NumPhases] = {}; //!< index table, NoChild=absent
};

struct ThreadState
{
    Node nodes[MaxNodes];
    std::uint8_t cur = 0;   //!< innermost open scope (0 = root)
    std::uint8_t count = 1; //!< node 0 is the root
    // constexpr: the thread_local is constant-initialized, so the
    // per-call init-guard branch vanishes from the Scope fast path.
    constexpr ThreadState()
    {
        for (Node &n : nodes)
            for (std::uint8_t &c : n.child)
                c = NoChild;
    }
};

inline ThreadState &
tls()
{
    thread_local ThreadState state;
    return state;
}

extern std::atomic<bool> gEnabled;

/** Materialize the child of @p parent for @p p; NoChild on overflow
 * (the tree is full -- the scope simply goes unrecorded). */
std::uint8_t addChild(ThreadState &s, std::uint8_t parent, Phase p);

inline std::uint64_t
nowWallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline std::uint64_t
nowCpuNs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
#endif
    return 0;
}

} // namespace detail

/** RAII phase scope. Construction enters the phase (descending the
 * thread's tree); destruction leaves it. */
class Scope
{
  public:
    explicit Scope(Phase p)
    {
        if (!detail::gEnabled.load(std::memory_order_relaxed))
            return;
        detail::ThreadState &s = detail::tls();
        prev_ = s.cur;
        std::uint8_t idx =
            s.nodes[prev_].child[static_cast<unsigned>(p)];
        if (idx == detail::NoChild) {
            idx = detail::addChild(s, prev_, p);
            if (idx == detail::NoChild)
                return; // tree full: leave this scope unrecorded
        }
        s.cur = idx;
        node_ = idx;
        s_ = &s; // cached: the exit path must not re-resolve the TLS
        detail::Node &n = s.nodes[idx];
        ++n.visits;
        const std::uint32_t mask =
            detail::StrideMask[static_cast<unsigned>(p)];
        if ((n.visits & mask) == (1u & mask)) {
            timed_ = true;
            wall0_ = detail::nowWallNs();
            cpu0_ = detail::nowCpuNs();
        }
    }

    ~Scope()
    {
        if (!s_)
            return;
        if (timed_) {
            detail::Node &n = s_->nodes[node_];
            ++n.timedVisits;
            n.wallNs += detail::nowWallNs() - wall0_;
            n.cpuNs += detail::nowCpuNs() - cpu0_;
        }
        s_->cur = prev_;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    detail::ThreadState *s_ = nullptr; //!< null when not recording
    std::uint64_t wall0_ = 0;
    std::uint64_t cpu0_ = 0;
    std::uint8_t prev_ = 0;
    std::uint8_t node_ = 0;
    bool timed_ = false;
};

} // namespace prof
} // namespace ebcp

/**
 * Open a profiler phase scope for the rest of the enclosing block.
 * The only sanctioned instrumentation path: it names the scope
 * variable, so a site cannot open a temporary that closes at once.
 */
#define EBCP_PROF_CONCAT2(a, b) a##b
#define EBCP_PROF_CONCAT(a, b) EBCP_PROF_CONCAT2(a, b)
#define EBCP_PROFILE_SCOPE(phase)                                          \
    ::ebcp::prof::Scope EBCP_PROF_CONCAT(ebcp_prof_scope_, __LINE__)(      \
        ::ebcp::prof::Phase::phase)

#endif // EBCP_UTIL_PROFILER_HH
