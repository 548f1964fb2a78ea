/**
 * @file
 * Access-to-Miss Correlation (AMC) prefetcher, after the AMC
 * proposal for evolving graph analytics cited in PAPERS.md.
 *
 * Classic miss-correlating prefetchers (Solihin, EBCP) key their
 * tables on *misses*, so a key only trains when its line is off
 * chip; once prefetching succeeds, the key stops missing and the
 * correlation chain starves. AMC instead keys on every L2 *access*
 * (hit or miss): the table maps an access line to the off-chip
 * misses that followed it within a short window. The access stream
 * is stable even while the miss stream it predicts keeps evolving --
 * exactly the property graph workloads with mutating edge lists
 * need, and the same observation that leads the paper to place the
 * EBCP control in front of the crossbar where it sees every request.
 *
 * The table is EBCP's CorrelationTable -- direct-mapped, tag-checked
 * and MRU-ordered -- but held on chip (sized like EBCP's on-chip
 * variant); each entry keeps the `width` most recent successor
 * misses, and prediction chains through successors-of-successors
 * until `degree` lines are named.
 */

#ifndef EBCP_PREFETCH_AMC_HH
#define EBCP_PREFETCH_AMC_HH

#include <cstdint>
#include <vector>

#include "prefetch/correlation_table.hh"
#include "prefetch/prefetcher.hh"
#include "util/circular_buffer.hh"
#include "util/status.hh"

namespace ebcp
{

/** AMC configuration. */
struct AmcConfig
{
    std::uint64_t tableEntries = 1ULL << 16; //!< power of two
    unsigned width = 2;  //!< successor misses kept per key (MRU)
    unsigned window = 3; //!< recent accesses trained per miss
    unsigned degree = 6; //!< prefetches per trigger

    /** Coded rejection of nonsense values (factory gate). */
    Status validate() const;
};

/** The access-to-miss correlating prefetcher. */
class AmcPrefetcher : public Prefetcher
{
  public:
    explicit AmcPrefetcher(const AmcConfig &cfg, std::string name = "amc");

    void observeAccess(const L2AccessInfo &info) override;

    /** Re-derive the table's invariants and the window bound. */
    void audit(AuditContext &ctx) const override;

    /** Serialize or restore all learned state (checkpointing). */
    void ckpt(ckpt::Archiver &ar) override;

  private:
    void train(Addr miss_line);
    void predict(Addr line, Tick when);

    AmcConfig cfg_;
    CorrelationTable table_;
    CircularBuffer<Addr> recentAccesses_;
    // Scratch reused across calls: a lookup's successors, and the
    // one-address payload of a training update.
    std::vector<Addr> succ_;
    std::vector<Addr> miss_;

    Scalar issued_{"issued", "prefetches handed to the engine"};
};

} // namespace ebcp

#endif // EBCP_PREFETCH_AMC_HH
