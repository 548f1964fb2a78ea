/**
 * @file
 * Construction of every prefetcher evaluated in the paper, by name.
 *
 * Names follow Figure 9's legend: "null", "stream", "ghb-small",
 * "ghb-large", "tcp-small", "tcp-large", "sms", "solihin-3-2",
 * "solihin-6-1", "ebcp", "ebcp-minus", plus "nextline" (Smith [6]),
 * "dcpt" (delta-correlating prediction tables), "amc" (access-to-
 * miss correlation) and "composite" (the ledger-driven adaptive
 * multiplexer over the others).
 *
 * Every scheme's configuration is validated with a coded Status
 * before construction: nonsense values (a zero degree, a non-power-
 * of-two table) are rejected at the factory boundary instead of
 * crashing inside a constructor or silently running with defaults.
 */

#ifndef EBCP_SIM_PREFETCHER_FACTORY_HH
#define EBCP_SIM_PREFETCHER_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/ebcp.hh"
#include "prefetch/amc.hh"
#include "prefetch/composite.hh"
#include "prefetch/dcpt.hh"
#include "prefetch/ghb.hh"
#include "prefetch/nextline.hh"
#include "prefetch/sms.hh"
#include "prefetch/solihin.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/tcp.hh"
#include "util/fault.hh"
#include "util/status.hh"

namespace ebcp
{

/** Per-scheme parameters. The GHB and TCP presets are fixed paper
 * configurations and take no member. */
struct PrefetcherParams
{
    std::string name = "null";
    EbcpConfig ebcp;
    SolihinConfig solihin;
    NextLineConfig nextline;
    SmsConfig sms;
    StreamPrefetcherConfig stream;
    DcptConfig dcpt;
    AmcConfig amc;
    CompositeConfig composite;
};

/**
 * Build a prefetcher; an unknown name yields NotFound with a
 * nearest-name suggestion. @p faults is the run's fault plan
 * (SimConfig::faults): EBCP, alone or as a composite child, applies
 * its table-read faults.
 */
StatusOr<std::unique_ptr<Prefetcher>>
tryCreatePrefetcher(const PrefetcherParams &p,
                    const FaultPlan &faults = {});

/** As tryCreatePrefetcher(), but an unknown name is fatal. */
std::unique_ptr<Prefetcher> createPrefetcher(const PrefetcherParams &p,
                                             const FaultPlan &faults = {});

/** Every name the factory accepts, and only those (CLI help, name
 * suggestions, tests). */
std::vector<std::string> prefetcherNames();

} // namespace ebcp

#endif // EBCP_SIM_PREFETCHER_FACTORY_HH
