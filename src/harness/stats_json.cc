#include "harness/stats_json.hh"

#include <fstream>
#include <sstream>

namespace ebcp
{

void
beginStatsJson(JsonWriter &w, std::string_view source)
{
    w.beginObject();
    w.kv("schema", StatsJsonSchema);
    w.kv("source", source);
    w.key("runs").beginArray();
}

void
endStatsJson(JsonWriter &w, std::string_view diagnostic_raw,
             std::string_view audit_raw, std::string_view profile_raw)
{
    w.endArray();
    if (!diagnostic_raw.empty()) {
        w.key("diagnostic");
        w.rawValue(diagnostic_raw);
    }
    if (!audit_raw.empty()) {
        w.key("audit");
        w.rawValue(audit_raw);
    }
    if (!profile_raw.empty()) {
        w.key("profile");
        w.rawValue(profile_raw);
    }
    w.endObject();
}

void
writeSimResultsJson(JsonWriter &w, const SimResults &r)
{
    w.beginObject();
    w.kv("insts", r.insts);
    w.kv("cycles", r.cycles);
    w.kv("epochs", r.epochs);
    w.kv("cpi", r.cpi);
    w.kv("epochs_per_1k", r.epochsPer1k);
    w.kv("l2_inst_miss_per_1k", r.l2InstMissPer1k);
    w.kv("l2_load_miss_per_1k", r.l2LoadMissPer1k);
    w.kv("useful_prefetches", r.usefulPrefetches);
    w.kv("issued_prefetches", r.issuedPrefetches);
    w.kv("dropped_prefetches", r.droppedPrefetches);
    w.kv("timely_prefetches", r.timelyPrefetches);
    w.kv("late_prefetches", r.latePrefetches);
    w.kv("early_evicted_prefetches", r.earlyEvictedPrefetches);
    w.kv("coverage", r.coverage);
    w.kv("accuracy", r.accuracy);
    w.kv("timeliness", r.timeliness);
    w.kv("read_bus_util", r.readBusUtil);
    w.kv("write_bus_util", r.writeBusUtil);
    w.endObject();
}

Status
validateStatsJson(const std::string &text)
{
    StatusOr<JsonValue> doc = parseJson(text);
    if (!doc.ok())
        return doc.status();
    const JsonValue &root = doc.value();
    if (!root.isObject())
        return corruptionError("stats document is not an object");

    const JsonValue *schema = root.find("schema");
    if (!schema || !schema->isString() ||
        schema->string != StatsJsonSchema)
        return corruptionError("missing or wrong 'schema' tag (want '",
                               StatsJsonSchema, "')");
    const JsonValue *source = root.find("source");
    if (!source || !source->isString())
        return corruptionError("missing 'source' string");

    const JsonValue *runs = root.find("runs");
    if (!runs || !runs->isArray())
        return corruptionError("missing 'runs' array");

    static const char *required[] = {
        "insts", "cycles", "cpi", "issued_prefetches",
        "timely_prefetches", "late_prefetches",
        "early_evicted_prefetches", "coverage", "accuracy", "timeliness",
    };
    for (std::size_t i = 0; i < runs->array.size(); ++i) {
        const JsonValue &run = runs->array[i];
        if (!run.isObject())
            return corruptionError("runs[", i, "] is not an object");
        const JsonValue *label = run.find("label");
        if (!label || !label->isString())
            return corruptionError("runs[", i, "] lacks a 'label' string");
        const JsonValue *results = run.find("results");
        if (!results || !results->isObject())
            return corruptionError("runs[", i,
                                   "] lacks a 'results' object");
        for (const char *key : required)
            if (!results->hasNumber(key))
                return corruptionError("runs[", i, "].results lacks '",
                                       key, "'");
    }

    if (const JsonValue *diag = root.find("diagnostic");
        diag && !diag->isObject())
        return corruptionError("'diagnostic' is not an object");

    if (const JsonValue *audit = root.find("audit")) {
        if (!audit->isObject())
            return corruptionError("'audit' is not an object");
        if (!audit->hasNumber("passes"))
            return corruptionError("'audit' lacks a 'passes' number");
        const JsonValue *result = audit->find("result");
        if (!result || !result->isObject())
            return corruptionError("'audit' lacks a 'result' object");
        if (!result->hasNumber("checks") ||
            !result->hasNumber("violation_count"))
            return corruptionError(
                "'audit.result' lacks 'checks'/'violation_count'");
        const JsonValue *violations = result->find("violations");
        if (!violations || !violations->isArray())
            return corruptionError(
                "'audit.result' lacks a 'violations' array");
    }

    if (const JsonValue *profile = root.find("profile")) {
        if (!profile->isObject())
            return corruptionError("'profile' is not an object");
        const JsonValue *enabled = profile->find("enabled");
        if (!enabled || !enabled->isBool())
            return corruptionError(
                "'profile' lacks an 'enabled' boolean");
        const JsonValue *nodes = profile->find("nodes");
        if (!nodes || !nodes->isArray())
            return corruptionError("'profile' lacks a 'nodes' array");
        for (std::size_t i = 0; i < nodes->array.size(); ++i) {
            const JsonValue &n = nodes->array[i];
            if (!n.isObject())
                return corruptionError("profile.nodes[", i,
                                       "] is not an object");
            const JsonValue *path = n.find("path");
            if (!path || !path->isString())
                return corruptionError("profile.nodes[", i,
                                       "] lacks a 'path' string");
            for (const char *key : {"visits", "timed_visits",
                                    "est_wall_ns", "est_cpu_ns"})
                if (!n.hasNumber(key))
                    return corruptionError("profile.nodes[", i,
                                           "] lacks '", key, "'");
            const JsonValue *sampled = n.find("sampled");
            if (!sampled || !sampled->isBool())
                return corruptionError("profile.nodes[", i,
                                       "] lacks a 'sampled' boolean");
        }
    }

    return Status();
}

Status
validateStatsJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return ioError("cannot open '", path, "' for reading");
    std::ostringstream buf;
    buf << in.rdbuf();
    return validateStatsJson(buf.str()).withContext(path);
}

} // namespace ebcp
