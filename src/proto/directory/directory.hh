/**
 * @file
 * Full-map MOSI directory protocol (Section 5.1 baseline), inspired by
 * the SGI Origin 2000 and Alpha 21364.
 *
 * Requests go to the block's home, which serializes them per block (the
 * directory "busy" state queues conflicting requests — no NACKs or
 * retries) and either supplies memory data or forwards the request to
 * the current cache owner; GetM additionally sends invalidations whose
 * acknowledgments flow directly to the requester. The requester closes
 * every transaction with an unblock message that carries the outcome
 * (shared vs. exclusive), at which point the directory commits the
 * state transition and services the next queued request.
 *
 * The directory state lives in main-memory DRAM (dirLatency = 80 ns),
 * putting the lookup on the critical path of cache-to-cache misses —
 * the indirection cost Figure 5a quantifies. ProtocolParams::
 * perfectDirectory models an idealized zero-latency directory.
 */

#ifndef TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH
#define TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "sim/small_queue.hh"

namespace tokensim {

/** Stable MOSI states of a directory-protocol cache line. */
enum class DirCacheState : std::uint8_t
{
    I = 0,
    S,
    O,
    M,
};

/** A directory-protocol L2 line. */
struct DirLine
{
    DirCacheState state = DirCacheState::I;
    bool written = false;
    std::uint64_t data = 0;
};
static_assert(sizeof(DirLine) == 16, "an L2 way's payload is 16 bytes");

/** Directory-protocol L2 cache controller. */
class DirCache : public CacheController
{
  public:
    DirCache(ProtoContext &ctx, NodeId id, const ProtocolParams &params);

    void request(const ProcRequest &req) override;
    void handleMessage(const Message &msg) override;
    bool hasPermission(Addr addr, MemOp op) const override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    DirCacheState state(Addr addr) const;

    bool
    quiescent() const
    {
        return outstanding_.empty() && wbBuffer_.empty();
    }

  private:
    struct Transaction
    {
        ProcRequest req;
        Tick issuedAt = 0;
        bool dataReceived = false;
        bool dataExclusive = false;
        bool dataFromMemory = false;
        std::uint64_t dataValue = 0;
        int acksNeeded = -1;   ///< unknown until the data/grant arrives
        int acksReceived = 0;
    };

    struct WbEntry
    {
        std::uint64_t data = 0;
    };

    void handleFwd(const Message &msg);
    void handleInv(const Message &msg);
    void handleDataOrGrant(const Message &msg);
    void maybeComplete(Addr addr);

    DirLine *allocLine(Addr addr);
    void evictVictim(Addr addr, const DirLine &victim);

    /** Fast-forward allocation: retire any victim by moving its state
     *  functionally (no PutM message). */
    DirLine *functionalAlloc(Addr ba, FunctionalEnv &env);
    void respondData(NodeId dest, Addr addr, std::uint64_t value,
                     bool exclusive, int ack_count);
    void sendUnblock(Addr addr, bool exclusive);

    ProtocolParams params_;
    CacheArray<DirLine> l2_;
    BlockMap<Transaction> outstanding_;
    BlockMap<WbEntry> wbBuffer_;
};

/**
 * The home directory controller: full-map sharer/owner state per block,
 * busy-queueing, invalidation fan-out, and the DRAM-resident directory
 * lookup latency.
 */
class DirMemory : public MemoryController
{
  public:
    DirMemory(ProtoContext &ctx, NodeId id, const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    std::uint64_t peekData(Addr addr) const override;
    void resetState(const ProtocolParams &params) override;

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** Directory's view of a block (tests). */
    struct DirView
    {
        bool busy = false;
        NodeId owner = invalidNode;   ///< invalidNode = memory owns
        std::vector<NodeId> sharers;
    };
    DirView view(Addr addr) const;

    bool
    quiescent() const
    {
        for (const auto &[a, e] : entries_) {
            if (e.busy || !e.queue.empty())
                return false;
        }
        return true;
    }

  private:
    /** Fast-forward reaches straight into the directory entries and
     *  backing store. */
    friend class DirCache;

    struct DirEntry
    {
        NodeId owner = invalidNode;
        std::set<NodeId> sharers;
        bool busy = false;
        NodeId pendingRequester = invalidNode;
        SmallQueue<Message> queue;
    };

    DirEntry &entryFor(Addr addr);

    /** Directory access latency: DRAM unless perfectDirectory. */
    Tick dirLatency() const;

    void processRequest(const Message &msg);
    void handleUnblock(const Message &msg);
    void handlePutM(const Message &msg);
    void serviceNext(Addr addr);

    void sendMemoryData(const Message &req, bool exclusive,
                        int ack_count);
    void sendFwd(const Message &req, MsgType fwd_type, int ack_count);
    void sendInvs(Addr addr, const std::set<NodeId> &targets,
                  NodeId requester);
    void sendGrant(const Message &req, int ack_count);

    ProtocolParams params_;
    BackingStore store_;
    Dram dram_;
    BlockMap<DirEntry> entries_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH
