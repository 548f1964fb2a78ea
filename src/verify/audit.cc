#include "verify/audit.hh"

#include <charconv>
#include <sstream>

#include "util/json.hh"
#include "util/profiler.hh"

namespace ebcp
{

Status
parseAuditCadence(std::string_view spec, AuditOptions &out)
{
    if (spec == "off") {
        out.cadence = AuditCadence::Off;
        out.everyTicks = 0;
        return Status();
    }
    if (spec == "retire") {
        out.cadence = AuditCadence::Retire;
        out.everyTicks = 0;
        return Status();
    }
    if (spec == "epoch") {
        out.cadence = AuditCadence::Epoch;
        out.everyTicks = 0;
        return Status();
    }
    constexpr std::string_view prefix = "every:";
    if (spec.substr(0, prefix.size()) == prefix) {
        const std::string_view num = spec.substr(prefix.size());
        std::uint64_t n = 0;
        const auto [ptr, ec] =
            std::from_chars(num.data(), num.data() + num.size(), n);
        if (ec != std::errc() || ptr != num.data() + num.size() || n == 0)
            return invalidArgError("audit=every:N needs a positive tick "
                                   "count, got '", std::string(num), "'");
        out.cadence = AuditCadence::EveryN;
        out.everyTicks = n;
        return Status();
    }
    return invalidArgError("unknown audit cadence '", std::string(spec),
                           "' (expected off, retire, epoch, or every:N)");
}

Status
parseAuditPolicy(std::string_view spec, AuditOptions &out)
{
    if (spec == "collect") {
        out.policy = AuditPolicy::Collect;
        return Status();
    }
    if (spec == "abort") {
        out.policy = AuditPolicy::Abort;
        return Status();
    }
    return invalidArgError("unknown audit policy '", std::string(spec),
                           "' (expected collect or abort)");
}

// --- AuditContext --------------------------------------------------

void
AuditContext::record(std::string_view invariant, std::string detail)
{
    ++totalViolations_;
    if (violations_.size() >= kMaxRecorded)
        return;
    AuditViolation v;
    v.component = component_;
    v.invariant = std::string(invariant);
    v.detail = std::move(detail);
    v.when = now_;
    violations_.push_back(std::move(v));
}

Status
AuditContext::toStatus() const
{
    if (clean())
        return Status();
    const AuditViolation &first = violations_.front();
    return invariantError(first.component, ": ", first.invariant, ": ",
                          first.detail, " (", totalViolations_,
                          " violation(s) across ", checksRun_, " checks)");
}

void
AuditContext::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("checks", checksRun_);
    w.kv("violation_count", totalViolations_);
    w.kv("violations_dropped",
         totalViolations_ - std::uint64_t(violations_.size()));
    w.key("violations").beginArray();
    for (const AuditViolation &v : violations_) {
        w.beginObject();
        w.kv("component", v.component);
        w.kv("invariant", v.invariant);
        w.kv("detail", v.detail);
        w.kv("tick", v.when);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
AuditContext::reset()
{
    component_ = "?";
    now_ = 0;
    checksRun_ = 0;
    totalViolations_ = 0;
    violations_.clear();
}

// --- Auditor -------------------------------------------------------

void
Auditor::onEpoch(Tick now)
{
    if (opts_.cadence == AuditCadence::Epoch)
        runNow(now);
}

void
Auditor::runNow(Tick now)
{
    EBCP_PROFILE_SCOPE(Audit);
    ctx_.setNow(now);
    registry_.runAll(ctx_);
    ++passes_;
    if (opts_.cadence == AuditCadence::EveryN)
        nextDue_ = now + opts_.everyTicks;
    if (opts_.policy == AuditPolicy::Abort && !ctx_.clean())
        abort_ = true;
}

std::string
Auditor::summaryJson() const
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("passes", passes_);
    w.kv("policy",
         opts_.policy == AuditPolicy::Abort ? "abort" : "collect");
    w.kv("aborted", abort_);
    w.key("result");
    ctx_.writeJson(w);
    w.endObject();
    return os.str();
}

} // namespace ebcp
