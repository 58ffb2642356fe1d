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
#include <deque>
#include <unordered_map>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "sim/small_queue.hh"

namespace tokensim {

/** Stable MOSI states of a hammer cache line. */
enum class HammerState : std::uint8_t
{
    I = 0,
    S,
    O,
    M,
};

/** A hammer-protocol L2 line. */
struct HammerLine
{
    HammerState state = HammerState::I;
    bool written = false;
    std::uint64_t data = 0;
};
static_assert(sizeof(HammerLine) == 16, "an L2 way's payload is 16 bytes");

/** Hammer L2 cache controller. */
class HammerCache : public CacheController
{
  public:
    HammerCache(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params);

    void request(const ProcRequest &req) override;
    void handleMessage(const Message &msg) override;
    bool hasPermission(Addr addr, MemOp op) const override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    HammerState state(Addr addr) const;

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
        int cacheResponses = 0;     ///< acks/data from other caches
        int cacheResponsesNeeded = -1;
        bool memResponse = false;   ///< home memory's response arrived
        bool haveOwnerData = false; ///< a cache supplied (fresh) data
        bool ownerDataExclusive = false;
        std::uint64_t ownerData = 0;
        std::uint64_t memData = 0;
    };

    struct WbEntry
    {
        std::uint64_t data = 0;
    };

    void handleProbe(const Message &msg);
    void handleResponse(const Message &msg);
    void maybeComplete(Addr addr);

    HammerLine *allocLine(Addr addr);
    void evictVictim(Addr addr, const HammerLine &victim);

    /** Fast-forward allocation: retire any victim by moving its state
     *  functionally (no PutM message). */
    HammerLine *functionalAlloc(Addr ba, FunctionalEnv &env);
    void respondData(NodeId dest, Addr addr, std::uint64_t value,
                     bool exclusive);
    void respondAck(NodeId dest, Addr addr);

    ProtocolParams params_;
    CacheArray<HammerLine> l2_;
    BlockMap<Transaction> outstanding_;
    BlockMap<WbEntry> wbBuffer_;
};

/**
 * Hammer home controller: per-block serialization, probe broadcast,
 * speculative memory read, and the last-owner writeback filter.
 */
class HammerMemory : public MemoryController
{
  public:
    HammerMemory(ProtoContext &ctx, NodeId id,
                 const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    std::uint64_t peekData(Addr addr) const override;
    void resetState(const ProtocolParams &params) override;

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

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
    /** Fast-forward reaches straight into the owner table and backing
     *  store. */
    friend class HammerCache;

    struct HomeEntry
    {
        bool busy = false;
        NodeId pendingRequester = invalidNode;
        NodeId owner = invalidNode;   ///< last exclusive owner
        SmallQueue<Message> queue;
    };

    HomeEntry &entryFor(Addr addr);

    void processRequest(const Message &msg);
    void handleUnblock(const Message &msg);
    void handlePutM(const Message &msg);
    void serviceNext(Addr addr);

    ProtocolParams params_;
    BackingStore store_;
    Dram dram_;
    BlockMap<HomeEntry> entries_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_HAMMER_HAMMER_HH
