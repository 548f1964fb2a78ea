#include "util/event_trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "util/bitfield.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace ebcp
{

namespace
{

/** Static per-kind export metadata. */
struct KindInfo
{
    const char *name; //!< event name shown on the timeline
    const char *cat;  //!< trace_event category (Perfetto filtering)
    bool span;        //!< "X" complete event (has dur) vs "i" instant
    const char *arg0; //!< display name of a0 (nullptr: omit)
    const char *arg1; //!< display name of a1 (nullptr: omit)
    bool hex0;        //!< render a0 as a hex address
    bool hex1;
};

const KindInfo &
kindInfo(TraceEventKind kind)
{
    static const KindInfo table[NumTraceEventKinds] = {
        {"epoch", "epoch", true, "epoch", "misses", false, false},
        {"emab_insert", "emab", false, "epoch", "key", false, true},
        {"emab_evict", "emab", false, "epoch", "misses", false, false},
        {"table_read", "table", true, "key", nullptr, true, false},
        {"table_write", "table", false, "key", nullptr, true, false},
        {"pf_issue", "prefetch", false, "line", "corr_index", true, false},
        {"pf_fill", "prefetch", false, "line", nullptr, true, false},
        {"pf_hit_timely", "prefetch", false, "line", nullptr, true, false},
        {"pf_hit_late", "prefetch", false, "line", "residual_ticks", true,
         false},
        {"pf_evict", "prefetch", false, "line", nullptr, true, false},
        {"demand_miss", "demand", true, "line", nullptr, true, false},
    };
    return table[static_cast<std::size_t>(kind)];
}

std::string
hexAddr(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

void
writeArg(JsonWriter &w, const char *name, std::uint64_t v, bool hex)
{
    if (!name)
        return;
    if (hex)
        w.kv(name, hexAddr(v));
    else
        w.kv(name, v);
}

} // namespace

TraceSink::TraceSink(std::string name, std::uint32_t tid,
                     std::size_t capacity)
    : name_(std::move(name)), tid_(tid),
      mask_(capacity - 1), ring_(capacity)
{
    panic_if(!isPowerOf2(capacity) || capacity == 0,
             "TraceSink capacity must be a nonzero power of two");
}

std::size_t
TraceSink::size() const
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(head_, ring_.size()));
}

std::uint64_t
TraceSink::dropped() const
{
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
}

std::vector<TraceEvent>
TraceSink::snapshot() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    // Oldest retained event first: when the ring has wrapped, the
    // slot at head_ & mask_ is the oldest survivor.
    const std::uint64_t start = head_ - n;
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) & mask_]);
    return out;
}

TraceLog::TraceLog(std::size_t events_per_sink)
    : capacity_(std::size_t(1)
                << ceilLog2(std::max<std::size_t>(events_per_sink, 16)))
{}

TraceSink *
TraceLog::sink(const std::string &name, std::uint32_t tid)
{
    for (const auto &s : sinks_)
        if (s->name() == name && s->tid() == tid)
            return s.get();
    sinks_.push_back(std::make_unique<TraceSink>(name, tid, capacity_));
    return sinks_.back().get();
}

std::uint64_t
TraceLog::totalDropped() const
{
    std::uint64_t n = 0;
    for (const auto &s : sinks_)
        n += s->dropped();
    return n;
}

std::size_t
TraceLog::totalEvents() const
{
    std::size_t n = 0;
    for (const auto &s : sinks_)
        n += s->size();
    return n;
}

void
TraceLog::counterSample(std::string name, Tick tick, double value)
{
    counters_.push_back({std::move(name), tick, value});
}

void
TraceLog::addSpan(std::string name, std::string cat, std::uint32_t pid,
                  std::uint32_t tid, double ts, double dur)
{
    extraSpans_.push_back(
        {std::move(name), std::move(cat), pid, tid, ts, dur});
}

void
TraceLog::setProcessName(std::uint32_t pid, std::string name)
{
    for (auto &p : processNames_)
        if (p.first == pid) {
            p.second = std::move(name);
            return;
        }
    processNames_.emplace_back(pid, std::move(name));
}

void
TraceLog::writeChromeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Thread-name metadata rows first, so Perfetto labels each
    // writer's track.
    for (const auto &s : sinks_) {
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", 0u);
        w.kv("tid", s->tid());
        w.key("args").beginObject();
        w.kv("name", s->name());
        w.endObject();
        w.endObject();
    }

    // Process-name metadata for any extra-span pids (the sinks all
    // live on pid 0; Perfetto then shows e.g. the self-profiler as
    // its own named process row).
    for (const auto &p : processNames_) {
        w.beginObject();
        w.kv("name", "process_name");
        w.kv("ph", "M");
        w.kv("pid", p.first);
        w.kv("tid", 0u);
        w.key("args").beginObject();
        w.kv("name", p.second);
        w.endObject();
        w.endObject();
    }

    // Merge all sinks' retained events and the counter samples into
    // one tick-ordered stream.
    struct Tagged
    {
        TraceEvent e;
        std::uint32_t tid;
        const CounterSample *counter; //!< non-null: a "C" row
    };
    std::vector<Tagged> all;
    all.reserve(totalEvents() + counters_.size());
    for (const auto &s : sinks_)
        for (const TraceEvent &e : s->snapshot())
            all.push_back({e, s->tid(), nullptr});
    for (const CounterSample &c : counters_) {
        TraceEvent e;
        e.tick = c.tick;
        all.push_back({e, 0, &c});
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Tagged &a, const Tagged &b) {
                         return a.e.tick < b.e.tick;
                     });

    for (const Tagged &t : all) {
        if (t.counter) {
            w.beginObject();
            w.kv("name", t.counter->name);
            w.kv("cat", "counter");
            w.kv("ph", "C");
            w.kv("ts", t.e.tick);
            w.kv("pid", 0u);
            w.kv("tid", 0u);
            w.key("args").beginObject();
            w.kv("value", t.counter->value);
            w.endObject();
            w.endObject();
            continue;
        }
        const KindInfo &k = kindInfo(t.e.kind);
        w.beginObject();
        w.kv("name", k.name);
        w.kv("cat", k.cat);
        w.kv("ph", k.span ? "X" : "i");
        w.kv("ts", t.e.tick);
        if (k.span)
            w.kv("dur", t.e.dur);
        else
            w.kv("s", "t"); // instant scope: thread
        w.kv("pid", 0u);
        w.kv("tid", t.tid);
        w.key("args").beginObject();
        writeArg(w, k.arg0, t.e.a0, k.hex0);
        writeArg(w, k.arg1, t.e.a1, k.hex1);
        w.endObject();
        w.endObject();
    }

    // Extra spans (self-profiler flame) last: their pids carry their
    // own timelines, so they do not interleave with the tick stream.
    for (const ExtraSpan &s : extraSpans_) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("cat", s.cat);
        w.kv("ph", "X");
        w.kv("ts", s.ts);
        w.kv("dur", s.dur);
        w.kv("pid", s.pid);
        w.kv("tid", s.tid);
        w.endObject();
    }
    w.endArray();

    // ts is in simulated core ticks, not microseconds; record that so
    // a human reading the file knows what the axis means.
    w.key("otherData").beginObject();
    w.kv("ts_unit", "core_ticks");
    w.kv("dropped_events", totalDropped());
    w.endObject();
    w.endObject();
    os << "\n";
}

Status
TraceLog::exportChromeJson(const std::string &path) const
{
    {
        std::ofstream out(path, std::ios::binary);
        if (!out)
            return ioError("cannot write '", path, "'");
        writeChromeJson(out);
        if (!out)
            return ioError("short write to '", path, "'");
    }
    // Same pattern as every ebcp-stats-v1 producer: the producer
    // re-reads and validates its own artifact, so a malformed file
    // fails the run that wrote it.
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return validateChromeTraceJson(buf.str()).withContext(path);
}

Status
validateChromeTraceJson(const std::string &text)
{
    StatusOr<JsonValue> doc = parseJson(text);
    if (!doc.ok())
        return doc.status();
    const JsonValue &root = doc.value();
    if (!root.isObject())
        return corruptionError("trace document is not an object");
    const JsonValue *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return corruptionError("missing 'traceEvents' array");

    // ts must be monotone per (pid, tid) track -- the Perfetto
    // importer's requirement. Different tracks (e.g. the profiler
    // flame vs the simulated-tick stream) may use different units and
    // legitimately do not interleave.
    std::map<std::pair<double, double>, double> last_ts;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        if (!e.isObject())
            return corruptionError("traceEvents[", i, "] is not an object");
        const JsonValue *ph = e.find("ph");
        if (!e.find("name") || !ph || !ph->isString() ||
            !e.hasNumber("pid") || !e.hasNumber("tid"))
            return corruptionError("traceEvents[", i,
                                   "] lacks a mandatory member");
        if (ph->string == "M")
            continue; // metadata events carry no timestamp
        if (!e.hasNumber("ts"))
            return corruptionError("traceEvents[", i, "] lacks 'ts'");
        const double ts = e.find("ts")->number;
        if (ts < 0.0)
            return corruptionError("traceEvents[", i, "] has negative ts");
        const std::pair<double, double> track(e.find("pid")->number,
                                              e.find("tid")->number);
        auto it = last_ts.find(track);
        if (it != last_ts.end() && ts < it->second)
            return corruptionError("traceEvents[", i,
                                   "] breaks per-track ts monotonicity");
        last_ts[track] = ts;
        if (ph->string == "X" && !e.hasNumber("dur"))
            return corruptionError("traceEvents[", i,
                                   "] is 'X' without 'dur'");
        if (ph->string == "C") {
            const JsonValue *args = e.find("args");
            if (!args || !args->isObject() || !args->hasNumber("value"))
                return corruptionError("traceEvents[", i,
                                       "] is 'C' without a numeric "
                                       "args.value");
        }
    }
    return Status();
}

} // namespace ebcp
