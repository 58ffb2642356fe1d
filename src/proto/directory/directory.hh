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
#include <vector>

#include "mem/holder_map.hh"
#include "proto/mosi.hh"

namespace tokensim {

/** Directory-protocol L2 cache controller. */
class DirCache : public MosiCache
{
  public:
    DirCache(ProtoContext &ctx, NodeId id, const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    bool
    quiescent() const override
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

    void issueMiss(const ProcRequest &req, Addr ba) override;
    std::uint64_t functionalMiss(const ProcRequest &req, Addr ba,
                                 MosiLine *line,
                                 FunctionalEnv &env) override;
    void writeBack(Addr addr, std::uint64_t data) override;

    void handleFwd(const Message &msg);
    void handleInv(const Message &msg);
    void handleDataOrGrant(const Message &msg);
    void maybeComplete(Addr addr);

    BlockMap<Transaction> outstanding_;
    BlockMap<std::uint64_t> wbBuffer_;   ///< written-back data until wbAck
};

/**
 * The home directory controller: the home serializer plus a full-map
 * sharer set per block, invalidation fan-out, and the DRAM-resident
 * directory lookup latency.
 */
class DirMemory : public HomeSerializer
{
  public:
    DirMemory(ProtoContext &ctx, NodeId id, const ProtocolParams &params);

    void resetState(const ProtocolParams &params) override;

    /** Written blocks, then the directory entries (owner, sharers). */
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** Directory's view of a block (tests). */
    struct DirView
    {
        bool busy = false;
        NodeId owner = invalidNode;   ///< invalidNode = memory owns
        std::vector<NodeId> sharers;
        std::vector<NodeId> waiting;   ///< queued requesters, FIFO
    };
    DirView view(Addr addr) const;

  private:
    /** Fast-forward reaches straight into the sharer sets. */
    friend class DirCache;

    /** Directory access latency: DRAM unless perfectDirectory. */
    Tick dirLatency() const;

    void processRequest(const Message &req, HomeEntry &e) override;
    void onUnblock(const Message &msg) override;

    void sendFwd(const Message &req, NodeId owner, MsgType fwd_type,
                 int ack_count);
    /** Invalidate every recorded sharer of @p req's block but the
     *  requester, in ascending node order. */
    void sendInvs(const Message &req);
    void sendGrant(const Message &req, int ack_count);

    /** Shared copies per block (possibly stale: S lines drop silently). */
    HolderMap sharers_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH
