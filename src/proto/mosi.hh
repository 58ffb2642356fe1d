/**
 * @file
 * The MOSI skeleton the three classical protocols of Section 5.1
 * (Snooping, Directory, Hammer) share.
 *
 * MosiCache is the L2 side: the line format, the hit path of both
 * engines, permission checks, line allocation with victim retirement,
 * the fill that completes a miss, the data response and the L2
 * snapshot codec. A family adds only how a miss is issued, how its
 * responses arrive, and what a fast-forward miss does to its peers
 * and home.
 *
 * MosiMemory is the home side all three share: the backing store, the
 * DRAM, a per-block entry with the owner record, a wait queue for
 * each block that has waiters, the DRAM-timed data reply and the
 * owner-record snapshot codec.
 * HomeSerializer adds the per-block serialization Directory and Hammer
 * share: a request queues while its block is busy, a writeback passes
 * the last-owner filter, and the requester's unblock releases the
 * block. The two families then differ only in whom a request is
 * forwarded to — the sharer set (Directory) or every node (Hammer) —
 * which is the variable the paper's Figure 5 compares.
 */

#ifndef TOKENSIM_PROTO_MOSI_HH
#define TOKENSIM_PROTO_MOSI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "sim/small_queue.hh"

namespace tokensim {

/** Stable MOSI states of a classical-protocol L2 line. */
enum class MosiState : std::uint8_t
{
    I = 0,
    S,
    O,
    M,
};

/** True for the states that own a block's data (M, O). */
inline bool
ownsData(MosiState s)
{
    return s == MosiState::M || s == MosiState::O;
}

/** A classical-protocol L2 line. */
struct MosiLine
{
    MosiState state = MosiState::I;
    bool written = false;   ///< stored to while in M (migratory hint)
    std::uint64_t data = 0;
};
static_assert(sizeof(MosiLine) == 16, "an L2 way's payload is 16 bytes");

/** L2 cache controller base of the classical protocols. */
class MosiCache : public CacheController
{
  public:
    MosiCache(ProtoContext &ctx, NodeId id, std::string tag,
              const ProtocolParams &params);

    void request(const ProcRequest &req) override;
    bool hasPermission(Addr addr, MemOp op) const override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** Stable state of a block (tests). */
    MosiState state(Addr addr) const;

    /** No miss outstanding and no writeback buffered. */
    virtual bool quiescent() const = 0;

  protected:
    /** Start the coherence transaction for a miss on block @p ba. */
    virtual void issueMiss(const ProcRequest &req, Addr ba) = 0;

    /**
     * Fast-forward miss on block @p ba: move the peers' and the home's
     * state to the transaction's outcome, fill the local line with
     * functionalFill(), and return the operation's value. @p line is
     * the local copy that lacked permission, or null.
     */
    virtual std::uint64_t functionalMiss(const ProcRequest &req, Addr ba,
                                         MosiLine *line,
                                         FunctionalEnv &env) = 0;

    /** Send an evicted owner's data home, buffering it until the
     *  home has taken it. */
    virtual void writeBack(Addr addr, std::uint64_t data) = 0;

    /** Family tables that follow the L2 ways in a snapshot. */
    virtual void encodeSideState(WireWriter &) const {}
    virtual void decodeSideState(WireReader &) {}

    /** Allocate @p addr's line; an owner victim is written back. */
    MosiLine *allocLine(Addr addr);

    /**
     * Install a completed miss's data: M on a store or an exclusive
     * fill, else S. A store writes its own value.
     */
    MosiLine *fill(const ProcRequest &req, bool exclusive,
                   std::uint64_t value);

    /** Respond to the processor for a completed miss and count it. */
    void completeMiss(const ProcRequest &req, Tick issued_at,
                      std::uint64_t value, bool cache_to_cache);

    /** Send block data to a requester after the L2 access. */
    void respondData(NodeId dest, Addr addr, std::uint64_t value,
                     bool exclusive, int ack_count = 0);

    /** A message from this cache to @p addr's home memory controller. */
    Message toHome(MsgType type, MsgClass cls, Addr addr) const;

    /** Remove block @p ba (present) from the L2 and the L1 above it. */
    void drop(Addr ba);

    /**
     * Fast-forward fill: allocate @p ba unless @p line already holds
     * it — retiring an owner victim by settling its writeback at the
     * home — and set the line. Returns @p data.
     */
    std::uint64_t functionalFill(Addr ba, MosiLine *line,
                                 FunctionalEnv &env, MosiState state,
                                 bool written, std::uint64_t data);

    ProtocolParams params_;
    CacheArray<MosiLine> l2_;
};

/** A home's per-block record. */
struct HomeEntry
{
    /** Requests for the block wait in the home's wait queue while
     *  set: a serializer's transaction is in flight, or (Snooping) an
     *  announced writeback's data has not arrived. */
    bool busy = false;
    NodeId pendingRequester = invalidNode;   ///< holder of a busy block
    NodeId owner = invalidNode;   ///< last exclusive owner; none = memory
};
static_assert(sizeof(HomeEntry) <= 12, "a home entry is 12 bytes");

/** Home memory controller base of the classical protocols. */
class MosiMemory : public MemoryController
{
  public:
    MosiMemory(ProtoContext &ctx, NodeId id, std::string tag,
               const ProtocolParams &params);

    std::uint64_t peekData(Addr addr) const override;
    void resetState(const ProtocolParams &params) override;

    /** Written blocks, then the owner records. */
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** No block busy and no request queued. */
    bool quiescent() const;

    /** The entry of a block homed here (fast-forward reaches in). */
    HomeEntry &entryFor(Addr addr);

    /** Requesters queued on block @p addr, in arrival order. */
    std::vector<NodeId> waiting(Addr addr) const;

    /**
     * Fast-forward's settled writeback of an owner victim: the data
     * lands only if @p from is still the recorded owner, the filter
     * the detailed home applies to a stale writeback.
     */
    void settleWriteback(Addr addr, NodeId from, std::uint64_t data);

  protected:
    /** Reply to @p req with memory data once the DRAM has read it. */
    void sendMemoryData(const Message &req, bool exclusive,
                        int ack_count);

    ProtocolParams params_;
    BackingStore store_;
    Dram dram_;
    BlockMap<HomeEntry> entries_;
    /** Requests waiting on a busy block, in arrival order; only
     *  blocks with waiters have an entry. */
    BlockMap<SmallQueue<Message>> waiters_;
};

/**
 * Home-serialized memory controller (Directory, Hammer): one
 * transaction per block at a time, the rest queue in arrival order.
 */
class HomeSerializer : public MosiMemory
{
  public:
    using MosiMemory::MosiMemory;

    void handleMessage(const Message &msg) override;

  protected:
    /** Whom to forward to: act on request @p req, which now holds its
     *  block (@p e is busy with the requester pending). Must not add
     *  entries: @p e stays in use after it returns. */
    virtual void processRequest(const Message &req, HomeEntry &e) = 0;

    /** The requester's unblock, after the owner record took it and
     *  before the block is released. */
    virtual void onUnblock(const Message &) {}

  private:
    void start(const Message &msg, HomeEntry &e);
    void handlePutM(const Message &msg, HomeEntry &e);
    void handleUnblock(const Message &msg);
    /** Start @p ba's queued requests until one holds the block. */
    void serviceNext(Addr ba, HomeEntry &e);
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_MOSI_HH
