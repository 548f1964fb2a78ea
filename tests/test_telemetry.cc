/**
 * @file
 * Sweep telemetry stream tests.
 *
 * Pins the JSON-lines record contract (harness/telemetry.hh): framing
 * and CRC round-trip, torn-line, corruption and out-of-range-number
 * tolerance, schema of every record type a real sweep emits, the
 * Prometheus snapshot, and the headline determinism guarantee -- the
 * deterministic (live:false) record subsequence of a sweep is
 * byte-identical at jobs=1 and jobs=4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/telemetry.hh"
#include "util/crc32.hh"
#include "util/json.hh"

#include "temp_path.hh"

using namespace ebcp;
using namespace ebcp::harness;
using ebcp_test::TempFile;

namespace
{

/** Small sweep over distinct run lengths so jobs=4 finishes them out
 * of submission order. */
std::vector<RunDesc>
makeDescriptors(std::size_t n)
{
    const char *workloads[] = {"database", "tpcw", "specjbb", "specjas"};
    std::vector<RunDesc> descs;
    for (std::size_t i = 0; i < n; ++i) {
        RunDesc d;
        d.workload = workloads[i % 4];
        d.pf.name = (i % 2 == 0) ? "ebcp" : "null";
        d.scale.warm = 20'000;
        // Longest run first: submission order != completion order.
        d.scale.measure = 40'000 + 20'000 * (n - i);
        descs.push_back(std::move(d));
    }
    return descs;
}

std::vector<std::string>
rawLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** The raw det (live:false) lines of a stream, parse-checked. */
std::vector<std::string>
deterministicLines(const std::string &path)
{
    std::vector<std::string> det;
    for (const std::string &line : rawLines(path)) {
        TelemetryRecord rec;
        EXPECT_TRUE(TelemetryStream::parseLine(line, rec)) << line;
        if (!rec.live)
            det.push_back(line);
    }
    return det;
}

/** The det lines of one sweep of @p descs at @p jobs workers. */
std::vector<std::string>
sweepDeterministicLines(const std::vector<RunDesc> &descs, unsigned jobs,
                        SweepOptions opts = {})
{
    TempFile tmp("telemetry_jobs" + std::to_string(jobs) + ".jsonl");
    opts.telemetryPath = tmp.path;
    SweepRunner runner(jobs, opts);
    runner.run(descs);
    return deterministicLines(tmp.path);
}

/** A telemetry line built by hand around the `data` object
 * {"runs":1}, with @p seq and @p crc spliced in as written. */
std::string
handBuiltLine(const std::string &seq, const std::string &crc)
{
    return "{\"v\":1,\"seq\":" + seq +
           ",\"type\":\"sweep_begin\",\"live\":false,\"crc\":" + crc +
           ",\"data\":{\"runs\":1}}";
}

/** The true CRC of handBuiltLine()'s `data` object. */
std::uint64_t
handBuiltCrc()
{
    const std::string data = "{\"runs\":1}";
    return crc32(data.data(), data.size());
}

} // namespace

TEST(TelemetryLine, FormatParseRoundTrip)
{
    const std::string line = TelemetryStream::formatLine(
        7, "run_state", true, "{\"label\":\"x\",\"state\":\"running\"}");
    TelemetryRecord rec;
    ASSERT_TRUE(TelemetryStream::parseLine(line, rec));
    EXPECT_EQ(rec.seq, 7u);
    EXPECT_EQ(rec.type, "run_state");
    EXPECT_TRUE(rec.live);
    EXPECT_EQ(rec.dataRaw, "{\"label\":\"x\",\"state\":\"running\"}");
    const JsonValue *state = rec.data.find("state");
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->string, "running");
}

TEST(TelemetryLine, RejectsTornLines)
{
    const std::string line = TelemetryStream::formatLine(
        3, "heartbeat", true, "{\"runs\":4,\"completed\":1}");
    TelemetryRecord rec;
    ASSERT_TRUE(TelemetryStream::parseLine(line, rec));
    // Any torn suffix must be rejected, not misparsed.
    for (std::size_t cut = 1; cut < line.size(); ++cut)
        EXPECT_FALSE(
            TelemetryStream::parseLine(line.substr(0, cut), rec))
            << "accepted a line torn at byte " << cut;
    EXPECT_FALSE(TelemetryStream::parseLine("", rec));
    EXPECT_FALSE(TelemetryStream::parseLine("not json", rec));
}

TEST(TelemetryLine, FormatLineWritesTheDocumentedEnvelope)
{
    // formatLine() writes the envelope telemetry.hh documents, byte
    // for byte. This is also the control for the three cases below:
    // with an in-range seq and the true CRC, the hand-built line
    // parses.
    const std::string line =
        handBuiltLine("0", std::to_string(handBuiltCrc()));
    EXPECT_EQ(line, TelemetryStream::formatLine(0, "sweep_begin", false,
                                                "{\"runs\":1}"));
    TelemetryRecord rec;
    EXPECT_TRUE(TelemetryStream::parseLine(line, rec));
}

TEST(TelemetryLine, RejectsCrcBeyond32Bits)
{
    // The true CRC plus 2^32 is not a u32: damage, not a CRC that
    // happens to match after truncation.
    TelemetryRecord rec;
    EXPECT_FALSE(TelemetryStream::parseLine(
        handBuiltLine("0", std::to_string(handBuiltCrc() + (1ULL << 32))),
        rec));
}

TEST(TelemetryLine, RejectsNegativeSeq)
{
    TelemetryRecord rec;
    EXPECT_FALSE(TelemetryStream::parseLine(
        handBuiltLine("-1", std::to_string(handBuiltCrc())), rec));
}

TEST(TelemetryLine, RejectsFractionalCrc)
{
    TelemetryRecord rec;
    EXPECT_FALSE(TelemetryStream::parseLine(
        handBuiltLine("0", std::to_string(handBuiltCrc()) + ".9"), rec));
}

TEST(TelemetryLine, RejectsCrcMismatch)
{
    std::string line = TelemetryStream::formatLine(
        0, "sweep_begin", false, "{\"runs\":8}");
    // Flip one digit inside the CRC-covered data object.
    const std::size_t pos = line.rfind('8');
    ASSERT_NE(pos, std::string::npos);
    line[pos] = '9';
    TelemetryRecord rec;
    EXPECT_FALSE(TelemetryStream::parseLine(line, rec));
}

TEST(TelemetryStreamTest, OpenFailureDisablesButNeverThrows)
{
    TelemetryStream stream("/nonexistent-dir-ebcp/telemetry.jsonl");
    EXPECT_FALSE(stream.openStatus().ok());
    stream.emitDeterministic("sweep_begin", "{\"runs\":1}");
    stream.emitLive("heartbeat", "{\"runs\":1}");
    EXPECT_EQ(stream.linesWritten(), 0u);
}

TEST(TelemetryStreamTest, TornTailIsSkippedNotFatal)
{
    TempFile tmp("telemetry_torn.jsonl");
    {
        TelemetryStream stream(tmp.path);
        ASSERT_TRUE(stream.openStatus().ok());
        stream.emitDeterministic("sweep_begin", "{\"runs\":2}");
        stream.emitDeterministic("sweep_end",
                                 "{\"runs\":2,\"completed\":2}");
    }
    // Simulate a crash mid-write: append a truncated record.
    const std::string torn = TelemetryStream::formatLine(
        9, "heartbeat", true, "{\"runs\":2,\"completed\":1}");
    {
        std::ofstream out(tmp.path, std::ios::app);
        out << torn.substr(0, torn.size() / 2);
    }

    StatusOr<TelemetryFile> file = readTelemetryFile(tmp.path);
    ASSERT_TRUE(file.ok()) << file.status().toString();
    EXPECT_EQ(file.value().records.size(), 2u);
    EXPECT_EQ(file.value().skipped, 1u);
    EXPECT_EQ(file.value().records[0].type, "sweep_begin");
    EXPECT_EQ(file.value().records[1].type, "sweep_end");
}

TEST(TelemetryStreamTest, MissingFileIsAnError)
{
    StatusOr<TelemetryFile> file =
        readTelemetryFile("/nonexistent-dir-ebcp/telemetry.jsonl");
    EXPECT_FALSE(file.ok());
}

TEST(TelemetrySweep, EmitsSchemaValidRecordsOfEveryType)
{
    TempFile tmp("telemetry_sweep.jsonl");
    TempFile metrics("telemetry_sweep.prom");

    SweepOptions opts;
    opts.telemetryPath = tmp.path;
    opts.metricsPath = metrics.path;
    // Aggressive cadence so even this small sweep gets heartbeats.
    opts.heartbeatSeconds = 0.005;
    const std::vector<RunDesc> descs = makeDescriptors(8);
    SweepRunner runner(1, opts);
    const std::vector<RunResult> results = runner.run(descs);
    for (const RunResult &r : results)
        ASSERT_TRUE(r.ok()) << r.status.toString();

    StatusOr<TelemetryFile> file = readTelemetryFile(tmp.path);
    ASSERT_TRUE(file.ok()) << file.status().toString();
    EXPECT_EQ(file.value().skipped, 0u);
    const std::vector<TelemetryRecord> &recs = file.value().records;
    ASSERT_FALSE(recs.empty());

    // Per-class seq spaces: each counts 0,1,2,... independently.
    std::uint64_t next_det = 0, next_live = 0;
    std::size_t heartbeats = 0, terminal = 0;
    std::map<std::string, std::size_t> live_states;
    for (const TelemetryRecord &r : recs) {
        EXPECT_EQ(r.seq, r.live ? next_live++ : next_det++);
        ASSERT_TRUE(r.data.isObject()) << r.dataRaw;
        if (r.type == "sweep_begin") {
            EXPECT_FALSE(r.live);
            ASSERT_TRUE(r.data.hasNumber("runs"));
            EXPECT_EQ(r.data.find("runs")->number, 8.0);
        } else if (r.type == "sweep_end") {
            EXPECT_FALSE(r.live);
            for (const char *k :
                 {"runs", "completed", "failed", "measured_insts",
                  "warm_builds", "warm_forks", "cold_fallbacks"})
                EXPECT_TRUE(r.data.hasNumber(k)) << k;
            EXPECT_EQ(r.data.find("completed")->number, 8.0);
        } else if (r.type == "heartbeat") {
            EXPECT_TRUE(r.live);
            ++heartbeats;
            for (const char *k :
                 {"runs", "completed", "failed", "measured_insts",
                  "insts_per_sec", "elapsed_seconds"})
                EXPECT_TRUE(r.data.hasNumber(k)) << k;
        } else if (r.type == "run_state") {
            const JsonValue *state = r.data.find("state");
            ASSERT_NE(state, nullptr);
            ASSERT_TRUE(state->isString());
            const JsonValue *label = r.data.find("label");
            ASSERT_NE(label, nullptr);
            EXPECT_TRUE(label->isString());
            if (r.live) {
                ++live_states[state->string];
            } else {
                // Terminal record: the full result schema.
                ++terminal;
                EXPECT_TRUE(state->string == "done" ||
                            state->string == "failed");
                for (const char *k : {"index", "insts"})
                    EXPECT_TRUE(r.data.hasNumber(k)) << k;
                const JsonValue *ok = r.data.find("ok");
                ASSERT_NE(ok, nullptr);
                EXPECT_TRUE(ok->isBool());
                const JsonValue *code = r.data.find("code");
                ASSERT_NE(code, nullptr);
                EXPECT_TRUE(code->isString());
                for (const char *k : {"warm_forked", "cold_fallback"}) {
                    const JsonValue *b = r.data.find(k);
                    ASSERT_NE(b, nullptr) << k;
                    EXPECT_TRUE(b->isBool()) << k;
                }
            }
        } else {
            ADD_FAILURE() << "unknown record type: " << r.type;
        }
    }
    EXPECT_EQ(recs.front().type, "sweep_begin");
    EXPECT_EQ(recs.back().type, "sweep_end");
    EXPECT_EQ(terminal, 8u);
    EXPECT_EQ(live_states["queued"], 8u);
    EXPECT_EQ(live_states["running"], 8u);
    EXPECT_GE(heartbeats, 1u);

    // The metrics snapshot is final and scraper-parseable.
    std::ifstream prom(metrics.path);
    ASSERT_TRUE(prom.is_open());
    std::string text((std::istreambuf_iterator<char>(prom)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("# TYPE ebcp_sweep_runs_total gauge"),
              std::string::npos);
    EXPECT_NE(text.find("ebcp_sweep_runs_total 8"), std::string::npos);
    EXPECT_NE(text.find("ebcp_sweep_done 1"), std::string::npos);
}

TEST(TelemetrySweep, TerminalRecordsFollowSubmissionOrder)
{
    TempFile tmp("telemetry_order.jsonl");
    SweepOptions opts;
    opts.telemetryPath = tmp.path;
    opts.heartbeatSeconds = 0.0;
    const std::vector<RunDesc> descs = makeDescriptors(6);
    SweepRunner runner(4, opts);
    runner.run(descs);

    StatusOr<TelemetryFile> file = readTelemetryFile(tmp.path);
    ASSERT_TRUE(file.ok()) << file.status().toString();
    std::vector<double> indices;
    for (const TelemetryRecord &r : file.value().records) {
        if (r.live || r.type != "run_state")
            continue;
        ASSERT_TRUE(r.data.hasNumber("index"));
        indices.push_back(r.data.find("index")->number);
        const JsonValue *label = r.data.find("label");
        ASSERT_NE(label, nullptr);
        EXPECT_EQ(label->string,
                  runLabel(descs[static_cast<std::size_t>(
                      indices.back())]));
    }
    ASSERT_EQ(indices.size(), 6u);
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(indices[i], static_cast<double>(i));
}

TEST(TelemetryDeterminism, DetSubsequenceIdenticalAcrossJobCounts)
{
    const std::vector<RunDesc> descs = makeDescriptors(8);
    const std::vector<std::string> det1 = sweepDeterministicLines(descs, 1);
    const std::vector<std::string> det4 = sweepDeterministicLines(descs, 4);
    ASSERT_FALSE(det1.empty());
    // Byte-identical: same records, same rendering, same det seqs.
    EXPECT_EQ(det1, det4);
}

TEST(TelemetryDeterminism, DetSubsequenceIdenticalWithCostliestRunsLast)
{
    // Run costs rise along submission order and end with a 2-core
    // pair sharing one warm checkpoint, so jobs=4 starts the last
    // runs first and finishes far out of order; warm reuse forks the
    // pair and runs every other point cold.
    std::vector<RunDesc> descs = makeDescriptors(4);
    std::reverse(descs.begin(), descs.end());
    RunDesc cmp = descs.back();
    cmp.cores = 2;
    cmp.pf.ebcp.numCoreStates = 2;
    descs.push_back(cmp);
    cmp.scale.measure *= 2;
    descs.push_back(cmp);
    ASSERT_EQ(dispatchOrder(descs).front(), descs.size() - 1);

    SweepOptions opts;
    opts.warmReuse = true;
    opts.heartbeatSeconds = 0.0;
    const std::vector<std::string> det1 =
        sweepDeterministicLines(descs, 1, opts);
    const std::vector<std::string> det4 =
        sweepDeterministicLines(descs, 4, opts);
    ASSERT_EQ(det1.size(), descs.size() + 2); // + sweep_begin/_end
    EXPECT_NE(det1.back().find("\"warm_builds\": 1, \"warm_forks\": 2"),
              std::string::npos)
        << det1.back();
    EXPECT_EQ(det1, det4);
}

TEST(TelemetryMetrics, PrometheusFormatIsComplete)
{
    MetricsSnapshot m;
    m.runsTotal = 5;
    m.completed = 3;
    m.failed = 1;
    m.measuredInsts = 123456;
    m.warmBuilds = 1;
    m.warmForks = 4;
    m.coldFallbacks = 0;
    m.jobs = 4;
    m.elapsedSeconds = 1.5;
    m.instsPerSec = 82304.0;
    m.done = false;

    const std::string text = formatPrometheus(m);
    for (const char *gauge :
         {"ebcp_sweep_runs_total 5", "ebcp_sweep_runs_completed 3",
          "ebcp_sweep_runs_failed 1", "ebcp_sweep_measured_insts 123456",
          "ebcp_sweep_warm_builds 1", "ebcp_sweep_warm_forks 4",
          "ebcp_sweep_cold_fallbacks 0", "ebcp_sweep_jobs 4",
          "ebcp_sweep_done 0"})
        EXPECT_NE(text.find(gauge), std::string::npos) << gauge;
    // Every sample is preceded by # HELP / # TYPE metadata.
    EXPECT_NE(text.find("# HELP ebcp_sweep_runs_total"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ebcp_sweep_insts_per_sec gauge"),
              std::string::npos);

    TempFile tmp("metrics_snapshot.prom");
    Status s = writeMetricsSnapshot(tmp.path, m);
    ASSERT_TRUE(s.ok()) << s.toString();
    std::ifstream in(tmp.path);
    std::string written((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(written, text);
}
