/**
 * @file
 * Sweep telemetry streaming: CRC-tagged JSON-lines progress records
 * plus a Prometheus-style text metrics snapshot.
 *
 * SweepRunner, and the CLI as a one-run sweep, emit two interleaved
 * record classes into one `telemetry_out=` stream:
 *
 *  - deterministic records (`"live": false`): sweep_begin, one
 *    terminal run_state per descriptor *in submission order* (a
 *    reorder buffer holds finished runs until their turn), and
 *    sweep_end. These carry no wall-clock fields and have their own
 *    seq counter, so the deterministic subsequence is byte-identical
 *    at jobs=1 and jobs=N (tests/test_telemetry.cc pins it);
 *  - live records (`"live": true`): transient run states (queued /
 *    warm-building / warm-forked / running) and periodic heartbeats
 *    (insts/s, ETA). Ordering and timing are scheduling-dependent by
 *    nature; consumers wanting determinism filter them.
 *
 * Line format (append-only, one record per line, flushed per line so
 * at most the final line can be torn):
 *
 *   {"v":1,"seq":N,"type":"<type>","live":<bool>,"crc":<u32>,
 *    "data":{...}}
 *
 * `crc` is the CRC-32 of the rendered `data` object exactly as it
 * appears in the line; `data` is always the last member, so a reader
 * recovers the covered bytes without re-serializing. A torn or
 * damaged line is skipped and counted, never fatal. The `data` object
 * of every record type is rendered by the *Json() functions below, so
 * both emitters speak one schema.
 *
 * The metrics side (`metrics_out=`) is a whole-file snapshot in
 * Prometheus text exposition format, rewritten atomically (temp +
 * rename) on each heartbeat and at completion, so a scraper never
 * sees a half-written file.
 */

#ifndef EBCP_HARNESS_TELEMETRY_HH
#define EBCP_HARNESS_TELEMETRY_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/status.hh"

namespace ebcp::harness
{

/** One parsed telemetry line. */
struct TelemetryRecord
{
    std::uint64_t seq = 0;
    std::string type;
    bool live = false;
    JsonValue data;
    std::string dataRaw; //!< the CRC-covered rendering of `data`
};

/** Parsed stream plus the damaged-line count. */
struct TelemetryFile
{
    std::vector<TelemetryRecord> records;
    std::size_t skipped = 0;
};

/** Append-only JSON-lines telemetry writer. Thread-safe. */
class TelemetryStream
{
  public:
    /** Opens (truncating) @p path; a failure disables the stream --
     * telemetry must never fail a sweep -- and is reported once
     * through openStatus(). */
    explicit TelemetryStream(const std::string &path);

    Status openStatus() const { return openStatus_; }

    /** Emit one deterministic record (its own seq space, in emission
     * order -- the caller guarantees emission order is submission
     * order). @p data_raw must be a complete JSON object. */
    void emitDeterministic(const std::string &type,
                           const std::string &data_raw);

    /** Emit one live (scheduling-dependent) record. */
    void emitLive(const std::string &type, const std::string &data_raw);

    /** Lines successfully written so far. */
    std::uint64_t linesWritten() const;

    /** Render one telemetry line (no trailing newline); exposed for
     * tests that build damaged streams. */
    static std::string formatLine(std::uint64_t seq,
                                  const std::string &type, bool live,
                                  const std::string &data_raw);

    /** Parse one line; false when torn/corrupt/unparseable. */
    static bool parseLine(const std::string &line, TelemetryRecord &out);

  private:
    void emit(const std::string &type, bool live,
              const std::string &data_raw);

    mutable std::mutex mu_;
    std::ofstream out_;
    Status openStatus_;
    std::uint64_t detSeq_ = 0;
    std::uint64_t liveSeq_ = 0;
    std::uint64_t lines_ = 0;
};

/** Read @p path, parse every line, count the damaged ones. A missing
 * file is an IoError; damage is not. */
StatusOr<TelemetryFile> readTelemetryFile(const std::string &path);

/** Point-in-time sweep metrics for the Prometheus snapshot. */
struct MetricsSnapshot
{
    std::uint64_t runsTotal = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t measuredInsts = 0;
    std::uint64_t warmBuilds = 0;
    std::uint64_t warmForks = 0;
    std::uint64_t coldFallbacks = 0;
    unsigned jobs = 0;
    double elapsedSeconds = 0.0;
    double instsPerSec = 0.0;
    bool done = false;
};

/** Render @p m in Prometheus text exposition format. */
std::string formatPrometheus(const MetricsSnapshot &m);

/** formatPrometheus() + atomic whole-file replace (temp + rename). */
Status writeMetricsSnapshot(const std::string &path,
                            const MetricsSnapshot &m);

/** `data` of sweep_begin: {runs}. */
std::string sweepBeginJson(std::uint64_t runs);

/** `data` of a live run_state: {label, state}. */
std::string liveRunStateJson(const std::string &label, const char *state);

/** `data` of run @p index's terminal run_state: {index, label, state
 * ("done" | "failed"), ok, code, warm_forked, cold_fallback, insts};
 * insts reads 0 unless @p status is OK. */
std::string terminalRunStateJson(std::uint64_t index,
                                 const std::string &label,
                                 const Status &status, std::uint64_t insts,
                                 bool warm_forked, bool cold_fallback);

/** `data` of a heartbeat: @p m's progress, rate and a proportional
 * ETA. */
std::string heartbeatJson(const MetricsSnapshot &m);

/** `data` of sweep_end: @p m's counters, without its wall-clock
 * fields. */
std::string sweepEndJson(const MetricsSnapshot &m);

} // namespace ebcp::harness

#endif // EBCP_HARNESS_TELEMETRY_HH
