#include "sim/prefetcher_factory.hh"

#include "util/logging.hh"
#include "util/str.hh"

namespace ebcp
{

namespace
{

/** Reject a scheme's configuration before running its constructor
 * (whose fatal_if guards remain as a backstop for direct use). */
template <typename Config, typename Fn>
StatusOr<std::unique_ptr<Prefetcher>>
makeValidated(const Config &cfg, Fn &&make)
{
    if (Status s = cfg.validate(); !s.ok())
        return s;
    return make(cfg);
}

} // namespace

StatusOr<std::unique_ptr<Prefetcher>>
tryCreatePrefetcher(const PrefetcherParams &p, const FaultPlan &faults)
{
    const std::string &n = p.name;

    if (n == "null")
        return std::make_unique<NullPrefetcher>();

    if (n == "ebcp" || n == "ebcp-minus") {
        EbcpConfig c = p.ebcp;
        c.minusVariant = c.minusVariant || n == "ebcp-minus";
        return makeValidated(c, [&faults](const EbcpConfig &ec) {
            return std::make_unique<EpochBasedPrefetcher>(ec, faults);
        });
    }

    if (n == "stream")
        return makeValidated(p.stream,
                             [](const StreamPrefetcherConfig &c) {
            return std::make_unique<StreamPrefetcher>(c);
        });

    if (n == "nextline")
        return makeValidated(p.nextline, [](const NextLineConfig &c) {
            return std::make_unique<NextLinePrefetcher>(c);
        });

    if (n == "ghb-small" || n == "ghb-large") {
        const bool large = n == "ghb-large";
        return makeValidated(
            large ? GhbConfig::large() : GhbConfig::small(),
            [large](const GhbConfig &c) {
                return std::make_unique<GhbPrefetcher>(
                    c, large ? "ghb_large" : "ghb_small");
            });
    }

    if (n == "tcp-small" || n == "tcp-large") {
        const bool large = n == "tcp-large";
        return makeValidated(
            large ? TcpConfig::large() : TcpConfig::small(),
            [large](const TcpConfig &c) {
                return std::make_unique<TcpPrefetcher>(
                    c, large ? "tcp_large" : "tcp_small");
            });
    }

    if (n == "sms")
        return makeValidated(p.sms, [](const SmsConfig &c) {
            return std::make_unique<SmsPrefetcher>(c);
        });

    // The two Solihin variants are p.solihin (table size, table
    // latency) with only the chain shape taken from the preset.
    if (n == "solihin-3-2" || n == "solihin-6-1") {
        const bool deep = n == "solihin-6-1";
        const SolihinConfig shape = deep ? SolihinConfig::depth6width1()
                                         : SolihinConfig::depth3width2();
        SolihinConfig c = p.solihin;
        c.depth = shape.depth;
        c.width = shape.width;
        return makeValidated(c, [deep](const SolihinConfig &sc) {
            return std::make_unique<SolihinPrefetcher>(
                sc, deep ? "solihin_6_1" : "solihin_3_2");
        });
    }

    if (n == "dcpt")
        return makeValidated(p.dcpt, [](const DcptConfig &c) {
            return std::make_unique<DcptPrefetcher>(c);
        });

    if (n == "amc")
        return makeValidated(p.amc, [](const AmcConfig &c) {
            return std::make_unique<AmcPrefetcher>(c);
        });

    if (n == "composite") {
        if (Status s = p.composite.validate(); !s.ok())
            return s;
        std::vector<std::unique_ptr<Prefetcher>> children;
        for (const std::string &child : p.composite.engines) {
            PrefetcherParams cp = p;
            cp.name = child;
            StatusOr<std::unique_ptr<Prefetcher>> c =
                tryCreatePrefetcher(cp, faults);
            if (!c.ok())
                return invalidArgError("composite child '", child,
                                       "': ",
                                       c.status().toString());
            children.push_back(c.take());
        }
        return std::make_unique<CompositePrefetcher>(
            p.composite, std::move(children));
    }

    std::string hint = nearestMatch(n, prefetcherNames());
    return notFoundError("unknown prefetcher '", n, "'",
                         hint.empty()
                             ? std::string()
                             : " (did you mean '" + hint + "'?)");
}

std::unique_ptr<Prefetcher>
createPrefetcher(const PrefetcherParams &p, const FaultPlan &faults)
{
    StatusOr<std::unique_ptr<Prefetcher>> r = tryCreatePrefetcher(p, faults);
    fatal_if(!r.ok(), r.status().toString());
    return r.take();
}

std::vector<std::string>
prefetcherNames()
{
    return {"null",      "ebcp",        "ebcp-minus",  "stream",
            "nextline",  "ghb-small",   "ghb-large",   "tcp-small",
            "tcp-large", "sms",         "solihin-3-2", "solihin-6-1",
            "dcpt",      "amc",         "composite"};
}

} // namespace ebcp
