/**
 * @file
 * gtest printer for SimResults.
 *
 * EXPECT_EQ(a, b) on two results compares every field exactly
 * (SimResults::operator==). On a failure gtest prints both operands
 * through this PrintTo: every field by name, doubles as hex floats,
 * so the fields that differ -- and by how many mantissa bits -- can
 * be read off the two lines.
 */

#ifndef EBCP_TESTS_RESULTS_PRINT_HH
#define EBCP_TESTS_RESULTS_PRINT_HH

#include <cstdio>
#include <ostream>
#include <string>

#include "sim/results.hh"

namespace ebcp
{

inline void
PrintTo(const SimResults &r, std::ostream *os)
{
    auto hex = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%a", v);
        return std::string(buf);
    };
    *os << "{insts=" << r.insts << " cycles=" << r.cycles
        << " epochs=" << r.epochs << " cpi=" << hex(r.cpi)
        << " epochsPer1k=" << hex(r.epochsPer1k)
        << " l2InstMissPer1k=" << hex(r.l2InstMissPer1k)
        << " l2LoadMissPer1k=" << hex(r.l2LoadMissPer1k)
        << " useful=" << r.usefulPrefetches
        << " issued=" << r.issuedPrefetches
        << " dropped=" << r.droppedPrefetches
        << " timely=" << r.timelyPrefetches
        << " late=" << r.latePrefetches
        << " earlyEvicted=" << r.earlyEvictedPrefetches
        << " coverage=" << hex(r.coverage)
        << " accuracy=" << hex(r.accuracy)
        << " timeliness=" << hex(r.timeliness)
        << " readBusUtil=" << hex(r.readBusUtil)
        << " writeBusUtil=" << hex(r.writeBusUtil) << "}";
}

} // namespace ebcp

#endif // EBCP_TESTS_RESULTS_PRINT_HH
