/**
 * @file
 * Fuzz target: whole-simulator checkpoint restore, under both
 * ckpt_policy= modes.
 *
 * Input bytes are treated as an EBCPCKPT container and restored into
 * a freshly built Simulator whose configuration matches the corpus
 * seeds (so inputs that keep the header intact reach section parsing
 * and per-component Archiver loads, not just the fingerprint check).
 *
 *  - Strict mode contract: restoreCheckpoint() either succeeds or
 *    returns a coded Status with a diagnostic; a failed restore must
 *    not crash, leak (ASan), or read out of bounds.
 *  - Rebuild mode contract (ckpt_policy=rebuild, and what SweepRunner
 *    does with a bad warm checkpoint): after a failed restore the
 *    same configuration must still support a cold warm-up +
 *    measurement -- i.e. a corrupt checkpoint poisons nothing beyond
 *    the Simulator instance it was restored into.
 */

#include <cstdint>
#include <cstdlib>
#include <string>

#include "fuzz/sim_fixture.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/status.hh"

using namespace ebcp;
using ebcp_fuzz::fuzzConfig;
using ebcp_fuzz::fuzzPrefetcher;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string blob(reinterpret_cast<const char *>(data), size);

    // Strict leg: restore and, when it succeeds, prove the restored
    // state actually simulates.
    {
        Simulator sim(fuzzConfig(), fuzzPrefetcher());
        auto src = makeWorkload("database");
        const Status s = sim.restoreCheckpoint(blob, *src);
        if (s.ok()) {
            StatusOr<SimResults> r = sim.runMeasure(*src, 1000);
            if (!r.ok() && r.status().message().empty())
                std::abort();
        } else if (s.message().empty()) {
            std::abort(); // coded Status, never a bare failure
        }
    }

    // Rebuild leg: a failed restore must leave the configuration
    // perfectly usable for the cold fallback the sweep performs.
    {
        Simulator sim(fuzzConfig(), fuzzPrefetcher());
        auto src = makeWorkload("database");
        if (!sim.restoreCheckpoint(blob, *src).ok()) {
            Simulator cold(fuzzConfig(), fuzzPrefetcher());
            auto cold_src = makeWorkload("database");
            if (!cold.runWarm(*cold_src, 200).ok())
                std::abort();
            if (!cold.runMeasure(*cold_src, 200).ok())
                std::abort();
        }
    }
    return 0;
}
