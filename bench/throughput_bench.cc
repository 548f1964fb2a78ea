/**
 * @file
 * The perf-smoke gate driver, which is also the opt-in PGO training
 * run. Host cost itself is measured by bench/perfbench; this binary
 * only holds two tier-1 host-cost gates.
 *
 * For each Table 1 workload under the null and ebcp prefetchers it
 * runs `reps` rounds of up to two back-to-back runs -- profiler off
 * and base, the off leg first in even rounds and second in odd ones
 * -- each one Simulator on this thread, timed in thread-CPU seconds.
 * CPU time, not wall, so time slicing on a shared host cannot trip a
 * gate; back-to-back pairing cancels slow drift (frequency, competing
 * load); alternating the order cancels whatever the second run of a
 * pair gains or loses from the first; and the ratio gate reads the
 * median over reps, which discards the reps where a burst of
 * interference landed in one half of a pair.
 *
 * Keys: warm=N measure=N (windows; EBCP_BENCH_SCALE honoured),
 *       reps=N            (rounds per configuration),
 *       min_ips=N         (fail if any configuration's best base run
 *                          simulates fewer than N insts per
 *                          thread-CPU second; 0 disables),
 *       max_profiler_overhead=F (fail if the median base/off ratio,
 *                          i.e. the always-on self-profiler's cost,
 *                          exceeds 1 + F; 0 disables).
 *
 * The profiler-off leg runs only when its gate is set, so a training
 * run (reps=1, no gates) is one base run per configuration.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "util/perf_counters.hh"
#include "util/profiler.hh"
#include "util/str.hh"

using namespace ebcp;
using namespace ebcp::bench;

namespace
{

/** Thread-CPU seconds of one serial run, read from @p counters. */
double
timeRun(PerfCounters &counters, const std::string &workload,
        const std::string &pf_name, const RunScale &scale)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = pf_name;
    Simulator sim(cfg, pf);
    auto src = makeWorkload(workload);

    counters.start();
    sim.run(*src, scale.warm, scale.measure);
    counters.stop();
    const double cpu = counters.sample().cpuSeconds;
    if (cpu <= 0.0) {
        std::cerr << "error: no thread-CPU time for " << workload << "/"
                  << pf_name << "\n";
        std::exit(2);
    }
    return cpu;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Aggregate overhead over configurations: each configuration's
 * median ratio, weighted by its best base CPU time. */
struct Overhead
{
    double base = 0.0;  //!< sum of best base CPU seconds
    double gated = 0.0; //!< the same, scaled by each median ratio

    void
    add(double base_best, const std::vector<double> &ratios)
    {
        base += base_best;
        gated += base_best * median(ratios);
    }

    double fraction() const { return (gated - base) / base; }
};

} // namespace

int
main(int argc, char **argv)
{
    ConfigStore cs = ConfigStore::fromArgs(argc, argv);
    Status known = cs.checkKnownKeys({"warm", "measure", "reps",
                                      "min_ips", "max_profiler_overhead"});
    if (!known.ok()) {
        std::cerr << "error: " << known.toString() << "\n";
        return 2;
    }
    const RunScale scale = resolveScale(argc, argv);
    const double min_ips = cs.getDouble("min_ips", 0.0);
    const double max_profiler_overhead =
        cs.getDouble("max_profiler_overhead", 0.0);
    const std::uint64_t reps = std::max<std::uint64_t>(
        cs.getU64("reps", 1), 1);
    const bool gate_prof = max_profiler_overhead > 0.0;

    banner("perf-smoke: simulated insts per thread-CPU second and the\n"
           "self-profiler overhead gate",
           "infrastructure (no paper figure)", scale);

    const double insts =
        static_cast<double>(scale.warm + scale.measure);
    double worst_ips = 0.0;
    Overhead prof_cost;
    PerfCounters counters;
    for (const auto &w : workloadNames())
        for (const char *pf : {"null", "ebcp"}) {
            double base_best = 0.0;
            std::vector<double> prof_ratios;
            for (std::uint64_t rep = 0; rep < reps; ++rep) {
                double off = 0.0;
                auto runOff = [&] {
                    prof::setEnabled(false);
                    off = timeRun(counters, w, pf, scale);
                    prof::setEnabled(true);
                };
                if (gate_prof && rep % 2 == 0)
                    runOff();
                const double base = timeRun(counters, w, pf, scale);
                if (gate_prof && rep % 2 == 1)
                    runOff();
                if (rep == 0 || base < base_best)
                    base_best = base;
                if (gate_prof)
                    prof_ratios.push_back(base / off);
            }
            const double ips = insts / base_best;
            if (worst_ips == 0.0 || ips < worst_ips)
                worst_ips = ips;
            if (gate_prof)
                prof_cost.add(base_best, prof_ratios);
            std::cout << "  " << w << "/" << pf << ": "
                      << fmtDouble(ips / 1e6, 2)
                      << "M insts/cpu-s (best of " << reps << ")\n";
        }
    const PerfSample &host = counters.sample();
    std::cout << "host perf counters: "
              << (host.available ? "available" : "unavailable")
              << (host.reason.empty() ? "" : " (" + host.reason + ")")
              << "\n";

    int rc = 0;
    if (gate_prof) {
        const char *what = "self-profiler (enabled vs disabled)";
        const double f = prof_cost.fraction();
        std::cout << what << " overhead: " << fmtDouble(f * 100.0, 2)
                  << "% (" << fmtDouble(prof_cost.base, 3) << "s -> "
                  << fmtDouble(prof_cost.gated, 3) << "s, median of "
                  << reps << " paired reps)\n";
        if (f > max_profiler_overhead) {
            std::cerr << "FAIL: " << what << " costs "
                      << fmtDouble(f * 100.0, 2) << "%, above the "
                      << fmtDouble(max_profiler_overhead * 100.0, 2)
                      << "% budget\n";
            rc = 1;
        }
    }
    if (min_ips > 0.0 && worst_ips < min_ips) {
        std::cerr << "FAIL: slowest run " << fmtDouble(worst_ips / 1e6, 2)
                  << "M insts/cpu-s is below the min_ips floor of "
                  << fmtDouble(min_ips / 1e6, 2) << "M insts/cpu-s\n";
        rc = 1;
    } else if (min_ips > 0.0) {
        std::cout << "min_ips floor " << fmtDouble(min_ips / 1e6, 2)
                  << "M insts/cpu-s: passed (slowest run "
                  << fmtDouble(worst_ips / 1e6, 2) << "M)\n";
    }
    return rc;
}
