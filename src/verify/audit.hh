/**
 * @file
 * Runtime invariant auditing.
 *
 * The timing model leans on structural invariants that goldens cannot
 * see: the ROB retires in age order, the MSHR file never tracks one
 * line twice, the prefetch buffer and L2 never both hold a line, the
 * epoch ids a tracker hands out only grow. A bug (or an injected
 * fault) that breaks one of these can leave every derived figure
 * subtly wrong while the pinned configs still "pass".
 *
 * This layer makes those invariants mechanical. Every stateful
 * component exposes `audit(AuditContext &)`, which re-derives its
 * invariants from live state and records violations; an Auditor owns
 * the cadence (each retire, each epoch boundary, or every N ticks)
 * and the policy (keep collecting vs. abort the run). Violations are
 * structured -- component, invariant, detail, tick -- and surface
 * both as a Status (StatusCode::InvariantViolation) and as an "audit"
 * object inside the ebcp-stats-v1 JSON document.
 *
 * Audits only ever *read* component state, so SimResults are
 * bit-identical whether auditing is on or off. With no auditor
 * attached, the core runs a retirement loop instance with no hook
 * sites at all (CoreModel::runBounded picks it once per call).
 */

#ifndef EBCP_VERIFY_AUDIT_HH
#define EBCP_VERIFY_AUDIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/status.hh"
#include "util/types.hh"

namespace ebcp
{

class JsonWriter;

/** One broken invariant, as observed by a component's audit(). */
struct AuditViolation
{
    std::string component; //!< registry name ("core0", "l2", ...)
    std::string invariant; //!< short stable identifier of the rule
    std::string detail;    //!< human-readable specifics
    Tick when = 0;         //!< simulated tick of the audit pass
};

/** What to do when an audit pass finds violations. */
enum class AuditPolicy : std::uint8_t
{
    Collect, //!< keep simulating; violations surface in results
    Abort,   //!< stop the run; the driver returns the audit Status
};

/** When audit passes run. */
enum class AuditCadence : std::uint8_t
{
    Off,    //!< never (the default; auditing is opt-in)
    Retire, //!< after every retired instruction
    Epoch,  //!< at every epoch boundary
    EveryN, //!< whenever at least N ticks elapsed since the last pass
};

/** Parsed form of the audit= / audit_policy= CLI keys. */
struct AuditOptions
{
    AuditCadence cadence = AuditCadence::Off;
    std::uint64_t everyTicks = 0; //!< period for AuditCadence::EveryN
    AuditPolicy policy = AuditPolicy::Collect;

    bool enabled() const { return cadence != AuditCadence::Off; }
};

/** Parse "off" | "retire" | "epoch" | "every:N" into @p out. */
Status parseAuditCadence(std::string_view spec, AuditOptions &out);

/** Parse "collect" | "abort" into @p out. */
Status parseAuditPolicy(std::string_view spec, AuditOptions &out);

/**
 * Accumulates the outcome of audit passes. Components receive this in
 * audit() and call check()/fail(); violation records are capped so a
 * systematically broken structure cannot balloon memory -- the total
 * count keeps climbing past the cap, only details are dropped.
 */
class AuditContext
{
  public:
    /** Simulated time stamped onto subsequent violations. */
    void setNow(Tick now) { now_ = now; }
    Tick now() const { return now_; }

    /** Name stamped onto subsequent violations (set by the registry). */
    void beginComponent(std::string_view name) { component_ = name; }

    /**
     * Record a violation of @p invariant unless @p holds. Returns
     * @p holds so callers can skip dependent checks.
     */
    template <typename... Args>
    bool
    check(bool holds, std::string_view invariant, Args &&...detail)
    {
        ++checksRun_;
        if (holds)
            return true;
        record(invariant, logFormat(std::forward<Args>(detail)...));
        return false;
    }

    /** Unconditionally record a violation of @p invariant. */
    template <typename... Args>
    void
    fail(std::string_view invariant, Args &&...detail)
    {
        ++checksRun_;
        record(invariant, logFormat(std::forward<Args>(detail)...));
    }

    bool clean() const { return totalViolations_ == 0; }
    std::uint64_t checksRun() const { return checksRun_; }
    std::uint64_t totalViolations() const { return totalViolations_; }
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }

    /** Ok when clean, else an InvariantViolation Status naming the
     * first violation and the total count. */
    Status toStatus() const;

    /** Emit {"checks": n, "violations": [...], ...} via @p w. */
    void writeJson(JsonWriter &w) const;

    /** Forget everything (component names, counts, violations). */
    void reset();

  private:
    void record(std::string_view invariant, std::string detail);

    static constexpr std::size_t kMaxRecorded = 32;

    std::string component_ = "?";
    Tick now_ = 0;
    std::uint64_t checksRun_ = 0;
    std::uint64_t totalViolations_ = 0;
    std::vector<AuditViolation> violations_;
};

/**
 * Named list of audit functions. Drivers register one entry per
 * stateful component plus cross-component lambdas (conservation
 * between a producer and a consumer lives in neither).
 */
class AuditRegistry
{
  public:
    using AuditFn = std::function<void(AuditContext &)>;

    void
    add(std::string name, AuditFn fn)
    {
        entries_.emplace_back(std::move(name), std::move(fn));
    }

    /** Run every entry against @p ctx, tagging each by name. */
    void
    runAll(AuditContext &ctx) const
    {
        for (const auto &[name, fn] : entries_) {
            ctx.beginComponent(name);
            fn(ctx);
        }
    }

    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<std::pair<std::string, AuditFn>> entries_;
};

/**
 * Cadence + policy wrapper the simulators own. Hook sites reach
 * onRetire()/onEpoch() through a pointer that is null when auditing
 * is off. The inline retire cadence test costs one comparison for
 * every:N; onEpoch() is out of line, since epoch triggers are rare
 * and its call site sits on the L2 access path.
 */
class Auditor
{
  public:
    explicit Auditor(const AuditOptions &opts) : opts_(opts) {}

    AuditRegistry &registry() { return registry_; }
    const AuditOptions &options() const { return opts_; }
    bool enabled() const { return opts_.enabled(); }

    void
    onRetire(Tick now)
    {
        if (opts_.cadence == AuditCadence::Retire)
            runNow(now);
        else if (opts_.cadence == AuditCadence::EveryN && now >= nextDue_)
            runNow(now);
    }

    void onEpoch(Tick now);

    /** One full pass over the registry, unconditionally. */
    void runNow(Tick now);

    /** True once a pass found violations under AuditPolicy::Abort. */
    bool abortRequested() const { return abort_; }

    std::uint64_t passes() const { return passes_; }
    const AuditContext &context() const { return ctx_; }
    Status toStatus() const { return ctx_.toStatus(); }

    /** The audit summary as a rendered JSON object (for embedding in
     * the ebcp-stats-v1 document and CLI diagnostics). */
    std::string summaryJson() const;

  private:
    AuditOptions opts_;
    AuditRegistry registry_;
    AuditContext ctx_;
    Tick nextDue_ = 0;
    std::uint64_t passes_ = 0;
    bool abort_ = false;
};

} // namespace ebcp

#endif // EBCP_VERIFY_AUDIT_HH
