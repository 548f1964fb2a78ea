#include "harness/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace ebcp::harness
{

namespace
{

/** @return true and set @p out when @p v is an integer in [0, max]. */
bool
integerUpTo(double v, double max, std::uint64_t &out)
{
    if (!(v >= 0.0 && v <= max) || v != std::floor(v))
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

} // namespace

TelemetryStream::TelemetryStream(const std::string &path)
{
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        openStatus_ = ioError("cannot open telemetry stream '", path,
                              "' for writing");
}

std::string
TelemetryStream::formatLine(std::uint64_t seq, const std::string &type,
                            bool live, const std::string &data_raw)
{
    std::ostringstream os;
    // Hand-rolled envelope so the `data` splice point (and therefore
    // the CRC-covered byte range) is exact: `data` is always the last
    // member and the line ends with its closing brace plus one '}'.
    os << "{\"v\":1,\"seq\":" << seq << ",\"type\":\""
       << jsonEscape(type) << "\",\"live\":" << (live ? "true" : "false")
       << ",\"crc\":" << crc32(data_raw.data(), data_raw.size())
       << ",\"data\":" << data_raw << "}";
    return os.str();
}

bool
TelemetryStream::parseLine(const std::string &line, TelemetryRecord &out)
{
    // Recover the CRC-covered bytes positionally: `data` is the last
    // member, so its rendering spans from after `"data":` to the
    // line's final '}'.
    static const std::string kDataKey = "\"data\":";
    const std::size_t pos = line.find(kDataKey);
    if (pos == std::string::npos || line.empty() || line.back() != '}')
        return false;
    const std::size_t start = pos + kDataKey.size();
    if (start >= line.size() - 1)
        return false;
    const std::string data_raw =
        line.substr(start, line.size() - 1 - start);

    StatusOr<JsonValue> doc = parseJson(line);
    if (!doc.ok() || !doc.value().isObject())
        return false;
    const JsonValue &root = doc.value();
    if (!root.hasNumber("v") || root.find("v")->number != 1.0)
        return false;
    if (!root.hasNumber("seq") || !root.hasNumber("crc"))
        return false;
    const JsonValue *type = root.find("type");
    const JsonValue *live = root.find("live");
    const JsonValue *data = root.find("data");
    if (!type || !type->isString() || !live || !live->isBool() ||
        !data || !data->isObject())
        return false;
    // A crc is a u32 and a seq a counter no double rounds (2^53);
    // any other number is damage, not a value to convert.
    std::uint64_t want = 0, seq = 0;
    if (!integerUpTo(root.find("crc")->number, 4294967295.0, want) ||
        !integerUpTo(root.find("seq")->number, 9007199254740992.0, seq))
        return false;
    if (crc32(data_raw.data(), data_raw.size()) != want)
        return false;

    out.seq = seq;
    out.type = type->string;
    out.live = live->boolean;
    out.data = *data;
    out.dataRaw = data_raw;
    return true;
}

void
TelemetryStream::emit(const std::string &type, bool live,
                      const std::string &data_raw)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!out_)
        return;
    const std::uint64_t seq = live ? liveSeq_++ : detSeq_++;
    out_ << formatLine(seq, type, live, data_raw) << "\n";
    // Flushed line-at-a-time, so a killed sweep tears at most the
    // final line -- which parseLine() then skips.
    out_.flush();
    ++lines_;
}

void
TelemetryStream::emitDeterministic(const std::string &type,
                                   const std::string &data_raw)
{
    emit(type, false, data_raw);
}

void
TelemetryStream::emitLive(const std::string &type,
                          const std::string &data_raw)
{
    emit(type, true, data_raw);
}

std::uint64_t
TelemetryStream::linesWritten() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
}

StatusOr<TelemetryFile>
readTelemetryFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return ioError("cannot open telemetry stream '", path, "'");
    TelemetryFile out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        TelemetryRecord rec;
        if (TelemetryStream::parseLine(line, rec))
            out.records.push_back(std::move(rec));
        else
            ++out.skipped;
    }
    return out;
}

std::string
formatPrometheus(const MetricsSnapshot &m)
{
    std::ostringstream os;
    auto gauge = [&](const char *name, const char *help, double v) {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " gauge\n"
           << name << " " << v << "\n";
    };
    gauge("ebcp_sweep_runs_total", "descriptors submitted to the sweep",
          static_cast<double>(m.runsTotal));
    gauge("ebcp_sweep_runs_completed", "runs finished OK",
          static_cast<double>(m.completed));
    gauge("ebcp_sweep_runs_failed", "runs finished with a non-OK status",
          static_cast<double>(m.failed));
    gauge("ebcp_sweep_measured_insts",
          "instructions measured across completed runs",
          static_cast<double>(m.measuredInsts));
    gauge("ebcp_sweep_insts_per_sec",
          "aggregate simulated instructions per wall second",
          m.instsPerSec);
    gauge("ebcp_sweep_warm_builds", "warm checkpoints built",
          static_cast<double>(m.warmBuilds));
    gauge("ebcp_sweep_warm_forks", "runs forked from a warm checkpoint",
          static_cast<double>(m.warmForks));
    gauge("ebcp_sweep_cold_fallbacks",
          "warm restores that degraded to cold runs",
          static_cast<double>(m.coldFallbacks));
    gauge("ebcp_sweep_jobs", "worker threads in use",
          static_cast<double>(m.jobs));
    gauge("ebcp_sweep_elapsed_seconds", "wall seconds since sweep start",
          m.elapsedSeconds);
    gauge("ebcp_sweep_done", "1 once the sweep has finished",
          m.done ? 1.0 : 0.0);
    return os.str();
}

Status
writeMetricsSnapshot(const std::string &path, const MetricsSnapshot &m)
{
    return ckpt::atomicWriteFile(path, formatPrometheus(m));
}

std::string
sweepBeginJson(std::uint64_t runs)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("runs", runs);
    w.endObject();
    return os.str();
}

std::string
liveRunStateJson(const std::string &label, const char *state)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("label", label);
    w.kv("state", state);
    w.endObject();
    return os.str();
}

std::string
terminalRunStateJson(std::uint64_t index, const std::string &label,
                     const Status &status, std::uint64_t insts,
                     bool warm_forked, bool cold_fallback)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("index", index);
    w.kv("label", label);
    w.kv("state", status.ok() ? "done" : "failed");
    w.kv("ok", status.ok());
    w.kv("code", statusCodeName(status.code()));
    w.kv("warm_forked", warm_forked);
    w.kv("cold_fallback", cold_fallback);
    w.kv("insts", status.ok() ? insts : std::uint64_t(0));
    w.endObject();
    return os.str();
}

std::string
heartbeatJson(const MetricsSnapshot &m)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("runs", m.runsTotal);
    w.kv("completed", m.completed);
    w.kv("failed", m.failed);
    w.kv("measured_insts", m.measuredInsts);
    w.kv("insts_per_sec", m.instsPerSec);
    w.kv("elapsed_seconds", m.elapsedSeconds);
    // Naive proportional ETA: wrong early, honest late -- and never
    // pretends precision it does not have.
    const std::uint64_t finished = m.completed + m.failed;
    const std::uint64_t remaining =
        m.runsTotal - std::min(m.runsTotal, finished);
    w.kv("eta_seconds", finished > 0
                            ? m.elapsedSeconds *
                                  static_cast<double>(remaining) /
                                  static_cast<double>(finished)
                            : 0.0);
    w.endObject();
    return os.str();
}

std::string
sweepEndJson(const MetricsSnapshot &m)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("runs", m.runsTotal);
    w.kv("completed", m.completed);
    w.kv("failed", m.failed);
    w.kv("measured_insts", m.measuredInsts);
    w.kv("warm_builds", m.warmBuilds);
    w.kv("warm_forks", m.warmForks);
    w.kv("cold_fallbacks", m.coldFallbacks);
    w.endObject();
    return os.str();
}

} // namespace ebcp::harness
