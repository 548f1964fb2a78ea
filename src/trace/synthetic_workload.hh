/**
 * @file
 * The synthetic commercial-workload trace source.
 *
 * At construction a fixed set of transaction types is generated
 * deterministically from the seed; each type is a sequence of
 * operations (pointer chase / B-tree lookup / record scan / hot
 * work), each bound to a function body whose code the transaction
 * walks while performing the data accesses.
 *
 * At run time, transactions draw a Zipf-popular key; every data
 * address is a pure function of (type, key, op, element), so
 * recurring keys replay recurring miss sequences. A configurable
 * fraction of operations instead uses one-shot keys (transaction-
 * local data), bounding achievable prefetch coverage.
 */

#ifndef EBCP_TRACE_SYNTHETIC_WORKLOAD_HH
#define EBCP_TRACE_SYNTHETIC_WORKLOAD_HH

#include <vector>

#include "cpu/trace.hh"
#include "trace/address_map.hh"
#include "trace/record_ring.hh"
#include "trace/workload_config.hh"
#include "trace/zipf.hh"
#include "util/random.hh"

namespace ebcp
{

/** The generator. */
class SyntheticWorkload : public TraceSource
{
  public:
    explicit SyntheticWorkload(const WorkloadConfig &cfg);

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;

    // Zero-copy pull: the consumer reads the record ring in place (a
    // whole transaction is buffered contiguously modulo one wrap), so
    // the generate->consume path performs no per-record copies at all.
    bool spanSource() const override { return true; }
    std::size_t peekSpan(const TraceRecord **out,
                         std::size_t max) override;
    void consumeSpan(std::size_t n) override;

    void reset() override;

    /**
     * Serialize or restore the generation cursor: the RNG, the
     * buffered tail of the current transaction, and the emission
     * state. The transaction types, address map and Zipf CDF are pure
     * functions of the config and are rebuilt at construction.
     */
    void ckpt(ckpt::Archiver &ar) override;

    const WorkloadConfig &config() const { return cfg_; }
    const AddressMap &addressMap() const { return map_; }

  private:
    /** One operation of a transaction type. */
    struct OpDef
    {
        enum class Kind
        {
            Chase,
            BTree,
            Scan,
            Hot,
        };

        Kind kind = Kind::Hot;
        std::uint32_t fn = 0;  //!< hot function body; cold instances
                               //!< derive theirs from the entity id
        unsigned len = 1;      //!< hops / lines / hot accesses
        bool store = false;    //!< also writes its last line
        bool depBranch = false; //!< branch consuming the chased value
        unsigned fillerMin = 20; //!< code insts between accesses
        unsigned fillerMax = 40;
    };

    /** A transaction type: a fixed op sequence. */
    struct TxnType
    {
        std::vector<OpDef> ops;
    };

    /** One concrete memory access of an op instance. */
    struct MemAcc
    {
        Addr addr = 0;
        bool serial = false;  //!< depends on the previous access
        bool store = false;
        bool hot = false;     //!< expected to hit on chip
    };

    void buildTypes();
    void generateTransaction();
    void emitOp(const OpDef &op, std::uint32_t key,
                unsigned op_idx, bool force_cold = false);

    /** Emit @p n code instructions (ALU + block-end branches). */
    void emitCode(unsigned n);
    /** Emit @p n ALU filler records through one ring reservation. */
    void emitAluRun(unsigned n);
    void emitBranch(Addr target, bool noisy);
    void emitDispatcherStep();
    void emitCall(Addr fn_base);
    void emitReturn();
    void emitLoad(Addr addr, std::uint8_t dst, std::uint8_t src);
    void emitStore(Addr addr, std::uint8_t src);

    /** Claim the next ring slot, reset to a default record. Fill it,
     * then call finishRecord(pc) -- together they emit one record
     * without an intermediate local copy. The reference dies at
     * finishRecord(), which may push again (serializer injection). */
    TraceRecord &
    beginRecord()
    {
        TraceRecord &r = buf_.pushSlot();
        r = TraceRecord{};
        return r;
    }

    void finishRecord(Addr pc);

  public:
    /** Buffer traffic/allocation counters (perfbench, tests). */
    const RingStats &ringStats() const { return buf_.stats(); }

  private:
    WorkloadConfig cfg_;
    AddressMap map_;
    Pcg32 rng_;
    ZipfSampler keys_;
    std::vector<TxnType> types_;

    RecordRing<TraceRecord> buf_;

    // Emission state.
    Addr curPc_ = 0;        //!< next instruction PC inside a function
    Addr fnBase_ = 0;       //!< current function body
    Addr fnEnd_ = 0;
    Addr dispatcherPc_ = 0; //!< return-to point in the dispatcher
    unsigned blockLeft_ = 0;
    // Rotating register cursors, kept as wrapped indices so the
    // per-instruction emitters never divide: aluIdx_ = aluRot % 24,
    // aluPhase_ = aluRot % 4, loadIdx_ = loadRot % 12.
    unsigned aluIdx_ = 0;
    unsigned aluPhase_ = 0;
    unsigned loadIdx_ = 0;

    /** @p i % 24 for i < 48, without the division. */
    static unsigned aluWrap(unsigned i) { return i >= 24 ? i - 24 : i; }

    /** (aluIdx_ + k) % 24 for k < 24. */
    unsigned aluPlus(unsigned k) const { return aluWrap(aluIdx_ + k); }
    std::uint64_t sinceSerialize_ = 0;
    std::uint64_t oneShot_ = 0; //!< counter for one-shot key synthesis

    // Register convention (see emit* implementations).
    static constexpr std::uint8_t RegBase = 9;
    static constexpr std::uint8_t RegChase = 8; //!< serial spine
    static constexpr std::uint8_t RegAlu0 = 16; //!< 24 rotating ALU regs
    static constexpr std::uint8_t RegLoad0 = 48; //!< 12 rotating dests
};

} // namespace ebcp

#endif // EBCP_TRACE_SYNTHETIC_WORKLOAD_HH
