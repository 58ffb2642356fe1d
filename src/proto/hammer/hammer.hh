/**
 * @file
 * AMD-Hammer-style broadcast protocol (Section 5.1 baseline).
 *
 * A requester sends its request to the block's home node, which
 * serializes requests per block and broadcasts a probe to every node
 * while reading memory in parallel. Every node responds directly to the
 * requester — the owner with data, everyone else with an ack — and the
 * memory's (possibly stale) data arrives as well; the requester prefers
 * owner data. A final unblock releases the home to service the next
 * queued request.
 *
 * The protocol needs no directory state and no directory lookup before
 * probing (lower cache-to-cache latency than Directory), but it still
 * takes the home-node indirection and pays one response message per
 * node per request — the traffic the paper's Figure 5b shows dwarfing
 * both TokenB and Directory.
 *
 * One home-side refinement: the home keeps the identity of the last
 * exclusive owner so that a stale writeback (whose data was already
 * handed over through a probe answered from the writeback buffer) can
 * be recognized and dropped. Real Hammer implementations resolve this
 * race with their victim-buffer/probe interlocks; a last-owner id is
 * the minimal equivalent in message-passing form (see DESIGN.md).
 */

#ifndef TOKENSIM_PROTO_HAMMER_HAMMER_HH
#define TOKENSIM_PROTO_HAMMER_HAMMER_HH

#include <cstdint>

#include "proto/mosi.hh"

namespace tokensim {

/** Hammer L2 cache controller. */
class HammerCache : public MosiCache
{
  public:
    HammerCache(ProtoContext &ctx, NodeId id,
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
    struct Transaction
    {
        ProcRequest req;
        Tick issuedAt = 0;
        int cacheResponses = 0;     ///< acks/data from other caches
        int cacheResponsesNeeded = -1;
        bool memResponse = false;   ///< home memory's response arrived
        bool haveOwnerData = false; ///< a cache supplied (fresh) data
        bool ownerDataExclusive = false;
        std::uint64_t ownerData = 0;
        std::uint64_t memData = 0;
    };

    void issueMiss(const ProcRequest &req, Addr ba) override;
    std::uint64_t functionalMiss(const ProcRequest &req, Addr ba,
                                 MosiLine *line,
                                 FunctionalEnv &env) override;
    void writeBack(Addr addr, std::uint64_t data) override;

    void handleProbe(const Message &msg);
    void handleResponse(const Message &msg);
    void maybeComplete(Addr addr);
    void respondAck(NodeId dest, Addr addr);

    BlockMap<Transaction> outstanding_;
    BlockMap<std::uint64_t> wbBuffer_;   ///< written-back data until wbAck
};

/**
 * Hammer home controller: the home serializer forwarding every request
 * to every node (probe broadcast) alongside a speculative memory read.
 */
class HammerMemory : public HomeSerializer
{
  public:
    HammerMemory(ProtoContext &ctx, NodeId id,
                 const ProtocolParams &params);

  private:
    void processRequest(const Message &req, HomeEntry &e) override;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_HAMMER_HAMMER_HH
