/**
 * @file
 * Traditional split-transaction MOSI snooping (Section 5.1 baseline).
 *
 * Every request is a totally-ordered broadcast through the tree's root;
 * all caches and the home memory observe all requests for a block in
 * the same order, which is what resolves the races of Section 2. Like
 * the paper's baseline (modeled on the Sun Starfire [11]), the protocol
 * avoids a snoop-response combining tree by keeping a single "owner"
 * indication at the memory [16] that says whether memory must respond;
 * additional non-stable states relax synchronous timing (a requester
 * whose request has been ordered but whose data has not arrived defers
 * conflicting snoops until the data shows up).
 *
 * Store misses always issue GetM (no separate upgrade transaction);
 * this sidesteps the classic stale-upgrade race and matches the
 * migratory-optimized behavior the paper assumes, where write misses
 * transfer data anyway.
 *
 * The migratory-sharing optimization is implemented on the requester
 * side: a small per-cache predictor marks blocks that exhibit the
 * load-then-store pattern, and loads to marked blocks issue GetM
 * ("load-exclusive") so the whole read-modify-write costs one
 * transaction. Owner-side exclusive handoffs on GetS — what the other
 * protocols use — would move ownership invisibly to the memory's
 * owner tracking and break its stale-writeback filtering, because
 * snooping has no home-serialization point to make the transfer
 * visible; with the requester-side scheme every ownership transfer is
 * a GetM that memory observes in the total order.
 */

#ifndef TOKENSIM_PROTO_SNOOPING_SNOOPING_HH
#define TOKENSIM_PROTO_SNOOPING_SNOOPING_HH

#include <cstdint>
#include <vector>

#include "proto/mosi.hh"

namespace tokensim {

/** Snooping L2 cache controller. */
class SnoopCache : public MosiCache
{
  public:
    SnoopCache(ProtoContext &ctx, NodeId id,
               const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    bool
    quiescent() const override
    {
        return outstanding_.empty() && wbBuffer_.empty();
    }

  private:
    /** One outstanding miss. */
    struct Transaction
    {
        ProcRequest req;
        Tick issuedAt = 0;
        bool ordered = false;        ///< own request observed
        bool dataReceived = false;
        bool dataExclusive = false;
        bool dataFromMemory = false;
        std::uint64_t dataValue = 0;
        std::vector<Message> deferred{};   ///< snoops to apply after fill
    };

    /** A line between PutM issue and writeback-data send. */
    struct WbEntry
    {
        std::uint64_t data = 0;
        bool surrendered = false;   ///< ownership taken by a GetM
    };

    void issueMiss(const ProcRequest &req, Addr ba) override;
    std::uint64_t functionalMiss(const ProcRequest &req, Addr ba,
                                 MosiLine *line,
                                 FunctionalEnv &env) override;
    void writeBack(Addr addr, std::uint64_t data) override;
    void encodeSideState(WireWriter &w) const override;
    void decodeSideState(WireReader &r) override;

    /** Whether a miss fetches exclusively: stores always, loads when
     *  the migratory predictor marks the block (a store trains it). */
    bool fetchExclusive(Addr ba, MemOp op);

    void handleSnoop(const Message &msg);
    void handleOwnRequest(const Message &msg);
    void applySnoop(const Message &msg);
    void handleData(const Message &msg);
    void completeTrans(Addr addr);

    BlockMap<Transaction> outstanding_;
    BlockMap<WbEntry> wbBuffer_;

    /** Blocks predicted migratory: loads fetch them exclusively. */
    BlockSet migratoryPred_;
};

/**
 * Snooping home memory: observes the total order of requests for the
 * blocks homed here, keeps the per-block owner indication, and responds
 * when no cache owner exists. Writeback data that has been announced
 * (PutM ordered) but not yet arrived marks the block busy, and requests
 * that memory must answer queue until it lands.
 */
class SnoopMemory : public MosiMemory
{
  public:
    SnoopMemory(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params);

    void handleMessage(const Message &msg) override;

    /** True if memory would respond to a request for @p addr. */
    bool memoryOwns(Addr addr) const;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_SNOOPING_SNOOPING_HH
