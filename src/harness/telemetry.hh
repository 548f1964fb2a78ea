/**
 * @file
 * Sweep telemetry streaming: CRC-tagged JSON-lines progress records
 * plus a Prometheus-style text metrics snapshot.
 *
 * One emitter, SweepTelemetry, writes every record for SweepRunner
 * and for the CLI (a one-run sweep). A `telemetry_out=` stream holds
 * two interleaved record classes:
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
 * damaged line is skipped and counted, never fatal. The `data`
 * objects, rendered only in telemetry.cc:
 *
 *   sweep_begin         {runs}
 *   run_state (live)    {label, state}
 *   run_state (final)   {index, label, state ("done" | "failed"), ok,
 *                        code, warm_forked, cold_fallback, insts}
 *   heartbeat           {runs, completed, failed, measured_insts,
 *                        insts_per_sec, elapsed_seconds, eta_seconds}
 *   sweep_end           {runs, completed, failed, measured_insts,
 *                        warm_builds, warm_forks, cold_fallbacks}
 *
 * The metrics side (`metrics_out=`) is a whole-file snapshot in
 * Prometheus text exposition format, rewritten atomically (temp +
 * rename) on each heartbeat and at completion, so a scraper never
 * sees a half-written file.
 */

#ifndef EBCP_HARNESS_TELEMETRY_HH
#define EBCP_HARNESS_TELEMETRY_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
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

    /** Emit one record. Deterministic (@p live false) and live
     * records count in separate seq spaces, in emission order; for
     * deterministic ones the caller makes that submission order.
     * @p data_raw must be a complete JSON object. */
    void emit(const std::string &type, bool live,
              const std::string &data_raw);

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

/**
 * One sweep's counters: what SweepRunner::stats() returns, what the
 * heartbeat and sweep_end records carry, and what the Prometheus
 * snapshot exposes. A sweep fills one as its runs finish.
 */
struct SweepStats
{
    std::size_t launched = 0;  //!< descriptors submitted
    std::size_t completed = 0; //!< runs that returned OK
    std::size_t failed = 0;    //!< runs that returned a non-OK Status
    unsigned jobs = 1;         //!< workers, capped at the run count (min 1)
    double wallSeconds = 0.0;

    /** Instructions measured across successful runs (warm excluded). */
    std::uint64_t measuredInsts = 0;

    std::size_t warmBuilds = 0;    //!< warm checkpoints built
    std::size_t warmForks = 0;     //!< runs forked from a warm ckpt
    std::size_t coldFallbacks = 0; //!< warm restores degraded to cold

    /** Aggregate simulation throughput over the sweep's wall clock. */
    double instsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(measuredInsts) / wallSeconds
                   : 0.0;
    }

    /** Count one finished run: its @p status, the @p insts it
     * measured (counted only when OK) and how it warmed up. */
    void addRun(const Status &status, std::uint64_t insts,
                bool warm_forked, bool cold_fallback);
};

/** Render @p s in Prometheus text exposition format; @p done is the
 * ebcp_sweep_done gauge. */
std::string formatPrometheus(const SweepStats &s, bool done);

/** formatPrometheus() + atomic whole-file replace (temp + rename). */
Status writeMetricsSnapshot(const std::string &path, const SweepStats &s,
                            bool done);

/**
 * The one writer of the record contract above, for SweepRunner and
 * for the CLI's one-run sweep. It owns the stream (an unopenable one
 * warns once and degrades to none), the submission-order reorder
 * buffer for terminal run states, and the metrics snapshot. The
 * caller owns the counters and the clock, and hands a SweepStats to
 * heartbeat() and end().
 *
 * Run states may be reported from any thread. Without a stream the
 * per-run calls return at once: no record, no label, no buffer.
 */
class SweepTelemetry
{
  public:
    /** Renders run @p i's display label; called only while a stream
     * is open. */
    using Labeler = std::function<std::string(std::size_t)>;

    /** @p telemetry_path and @p metrics_path may each be empty (off). */
    SweepTelemetry(const std::string &telemetry_path,
                   std::string metrics_path);

    /** Whether heartbeats have anywhere to go. */
    bool enabled() const { return stream_ || !metricsPath_.empty(); }

    /** sweep_begin for @p runs runs, then each run's live `queued`
     * state. Call once, before any other record. */
    void begin(std::size_t runs, Labeler label);

    /** Live transient state of run @p i: "running", "warm-building"
     * or "warm-forked". */
    void runState(std::size_t i, const char *state);

    /** Run @p i's terminal run_state, held back until every earlier
     * run has reported. @p insts is ignored unless @p status is OK. */
    void runDone(std::size_t i, const Status &status, std::uint64_t insts,
                 bool warm_forked, bool cold_fallback);

    /** A live heartbeat from @p s plus a metrics rewrite. */
    void heartbeat(const SweepStats &s);

    /** sweep_end from @p s, then the final metrics snapshot with
     * ebcp_sweep_done 1. Every run must have reported. */
    void end(const SweepStats &s);

  private:
    void writeMetrics(const SweepStats &s, bool done);

    std::unique_ptr<TelemetryStream> stream_; //!< null: no stream
    std::string metricsPath_;
    Labeler label_;

    std::mutex mu_; //!< guards the reorder buffer
    std::vector<std::string> parked_; //!< finished runs' records
    std::size_t next_ = 0; //!< first run not yet emitted
};

} // namespace ebcp::harness

#endif // EBCP_HARNESS_TELEMETRY_HH
