/**
 * @file
 * The one stats.json schema ("ebcp-stats-v1").
 *
 * ebcp_cli, the benches and the sweep runner all used to print
 * results in their own ad-hoc shapes; anything downstream (plots,
 * regression diffing) had to know each format. This module is the
 * single definition: every producer frames its document with
 * beginStatsJson()/endStatsJson() and emits each run's SimResults
 * through writeSimResultsJson(), and every producer re-reads its own
 * artifact through validateStatsJson() before exiting.
 *
 * Document shape:
 *
 *   {
 *     "schema": "ebcp-stats-v1",
 *     "source": "<producer name>",
 *     "runs": [
 *       {
 *         "label": "<workload/prefetcher/...>",
 *         "results": { ...SimResults fields... },
 *         "stats": { ... },      // optional full StatGroup tree
 *         "intervals": { ... }   // optional IntervalSampler series
 *       }, ...
 *     ],
 *     "diagnostic": { ... },     // optional (stalled runs)
 *     "audit": { ... },          // optional (invariant-audit summary)
 *     "profile": { ... }         // optional (self-profiler phase tree)
 *   }
 */

#ifndef EBCP_HARNESS_STATS_JSON_HH
#define EBCP_HARNESS_STATS_JSON_HH

#include <string>
#include <string_view>

#include "sim/api.hh"
#include "util/json.hh"
#include "util/status.hh"

namespace ebcp
{

/** Schema identifier stamped into every document. */
inline constexpr std::string_view StatsJsonSchema = "ebcp-stats-v1";

/**
 * Open the document: "{ schema, source, runs: [". The caller then
 * emits run objects and finishes with endStatsJson().
 */
void beginStatsJson(JsonWriter &w, std::string_view source);

/**
 * Close the runs array and the document. @p diagnostic_raw, when
 * non-empty, must be a complete JSON value (e.g. a watchdog
 * diagnostic object) and becomes the top-level "diagnostic" member;
 * @p audit_raw likewise (an Auditor::summaryJson() object) becomes
 * the top-level "audit" member; and @p profile_raw (a
 * prof::profileJsonString() object) becomes "profile".
 */
void endStatsJson(JsonWriter &w, std::string_view diagnostic_raw = {},
                  std::string_view audit_raw = {},
                  std::string_view profile_raw = {});

/** Emit @p r as one JSON object value (a run's "results" member). */
void writeSimResultsJson(JsonWriter &w, const SimResults &r);

/**
 * Schema check: well-formed JSON, schema tag, source string, runs
 * array whose entries have a label and a results object carrying the
 * required numeric fields.
 */
Status validateStatsJson(const std::string &text);

/** Read @p path and validateStatsJson() its contents. */
Status validateStatsJsonFile(const std::string &path);

} // namespace ebcp

#endif // EBCP_HARNESS_STATS_JSON_HH
