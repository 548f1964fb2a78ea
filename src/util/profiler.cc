#include "util/profiler.hh"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/event_trace.hh"
#include "util/json.hh"

namespace ebcp
{
namespace prof
{

const char *
phaseName(Phase p)
{
    static const char *const names[NumPhases] = {
        "decode",         "core_loop", "prefetch_train",
        "prefetch_issue", "audit",     "ckpt",
        "stats",
    };
    return names[static_cast<unsigned>(p)];
}

namespace detail
{

std::atomic<bool> gEnabled{true};

std::uint8_t
addChild(ThreadState &s, std::uint8_t parent, Phase p)
{
    if (s.count >= MaxNodes)
        return NoChild;
    const std::uint8_t idx = s.count++;
    Node &n = s.nodes[idx];
    n.parent = parent;
    n.phase = static_cast<std::uint8_t>(p);
    n.depth = static_cast<std::uint8_t>(s.nodes[parent].depth + 1);
    s.nodes[parent].child[static_cast<unsigned>(p)] = idx;
    return idx;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

void
resetThisThread()
{
    detail::tls() = detail::ThreadState();
}

namespace
{

/** What a timed visit's own clock reads add to its measurement. */
struct ClockCost
{
    double wallNs = 0.0;
    double cpuNs = 0.0;
};

/**
 * Calibrated self-cost of one timed visit, measured once per process
 * with the exact read sequence a zero-body Scope performs (wall, cpu,
 * wall, cpu). The thread-CPU clock is a genuine syscall that can cost
 * microseconds under a container's seccomp filter, so without this
 * subtraction a stride-sampled estimate of a sub-microsecond phase is
 * mostly clock, scaled to every visit.
 */
const ClockCost &
clockCost()
{
    static const ClockCost cost = [] {
        constexpr int kReps = 33;
        std::array<std::uint64_t, kReps> wall{}, cpu{};
        for (int i = 0; i < kReps; ++i) {
            const std::uint64_t w0 = detail::nowWallNs();
            const std::uint64_t c0 = detail::nowCpuNs();
            const std::uint64_t w1 = detail::nowWallNs();
            const std::uint64_t c1 = detail::nowCpuNs();
            wall[i] = w1 - w0;
            cpu[i] = c1 - c0;
        }
        std::sort(wall.begin(), wall.end());
        std::sort(cpu.begin(), cpu.end());
        return ClockCost{static_cast<double>(wall[kReps / 2]),
                         static_cast<double>(cpu[kReps / 2])};
    }();
    return cost;
}

/** Preorder DFS over one thread's tree, children in phase order. */
void
collect(const detail::ThreadState &s, std::uint8_t idx,
        const std::string &prefix, Report &out)
{
    for (unsigned p = 0; p < NumPhases; ++p) {
        const std::uint8_t c = s.nodes[idx].child[p];
        if (c == detail::NoChild)
            continue;
        const detail::Node &n = s.nodes[c];
        if (n.visits == 0) {
            // Materialized but never entered (enable raced off):
            // still descend, children may have counts.
            collect(s, c, prefix, out);
            continue;
        }
        NodeReport r;
        r.phase = static_cast<Phase>(n.phase);
        r.path = prefix.empty()
                     ? phaseName(r.phase)
                     : prefix + "/" + phaseName(r.phase);
        r.depth = n.depth;
        r.visits = n.visits;
        r.timedVisits = n.timedVisits;
        r.wallNs = n.wallNs;
        r.cpuNs = n.cpuNs;
        r.sampled = n.timedVisits < n.visits;
        if (n.timedVisits > 0) {
            const double scale = static_cast<double>(n.visits) /
                                 static_cast<double>(n.timedVisits);
            const ClockCost &cc = clockCost();
            const double timed = static_cast<double>(n.timedVisits);
            r.estWallNs = std::max(
                0.0, (static_cast<double>(n.wallNs) - cc.wallNs * timed) *
                         scale);
            r.estCpuNs = std::max(
                0.0, (static_cast<double>(n.cpuNs) - cc.cpuNs * timed) *
                         scale);
        }
        out.nodes.push_back(r);
        // Recurse with the local copy: pushing into out.nodes can
        // reallocate, so a reference into it would dangle.
        collect(s, c, r.path, out);
    }
}

} // namespace

Report
snapshotThisThread()
{
    Report rep;
    rep.enabled = enabled();
    collect(detail::tls(), 0, "", rep);
    return rep;
}

void
writeProfileJson(JsonWriter &w)
{
    const Report rep = snapshotThisThread();
    w.beginObject();
    w.kv("enabled", rep.enabled);
    w.kv("clock", "steady_wall+thread_cpu");
    w.key("nodes").beginArray();
    for (const NodeReport &n : rep.nodes) {
        w.beginObject();
        w.kv("path", n.path);
        w.kv("phase", phaseName(n.phase));
        w.kv("depth", n.depth);
        w.kv("visits", n.visits);
        w.kv("timed_visits", n.timedVisits);
        w.kv("sampled", n.sampled);
        w.kv("wall_ns", n.wallNs);
        w.kv("cpu_ns", n.cpuNs);
        w.kv("est_wall_ns", n.estWallNs);
        w.kv("est_cpu_ns", n.estCpuNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
exportProfileSpans(TraceLog &log)
{
    const Report rep = snapshotThisThread();
    if (rep.nodes.empty())
        return;
    log.setProcessName(1, "ebcp self-profile");

    // Flame layout: siblings packed left to right, children nested
    // inside (and clamped to) their parent's span, so the per-track
    // ts order of the preorder emission below is monotone even when
    // sampled child estimates overshoot the parent.
    struct Placed
    {
        double ts = 0.0;
        double end = 0.0;
        double cursor = 0.0;
    };
    std::vector<Placed> placed(rep.nodes.size());
    std::vector<std::size_t> stack;
    double root_cursor = 0.0;
    for (std::size_t i = 0; i < rep.nodes.size(); ++i) {
        const NodeReport &n = rep.nodes[i];
        stack.resize(n.depth - 1);
        double ts = root_cursor;
        double avail = n.estWallNs;
        if (!stack.empty()) {
            Placed &par = placed[stack.back()];
            ts = par.cursor;
            if (avail > par.end - par.cursor)
                avail = par.end - par.cursor;
        }
        if (avail < 0.0)
            avail = 0.0;
        placed[i] = {ts, ts + avail, ts};
        if (stack.empty())
            root_cursor = ts + avail;
        else
            placed[stack.back()].cursor = ts + avail;
        stack.push_back(i);
        log.addSpan(phaseName(n.phase), "profile", 1, 0, ts, avail);
    }
}

std::string
profileJsonString()
{
    std::ostringstream os;
    JsonWriter w(os);
    writeProfileJson(w);
    return os.str();
}

} // namespace prof
} // namespace ebcp
