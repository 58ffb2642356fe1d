/**
 * @file
 * Correctness-substrate services shared by all Token Coherence
 * performance protocols: token-message construction (enforcing
 * invariant #4'), and the TokenAuditor, a runtime checker for the
 * conservation invariant #1' that tests attach to a simulated system.
 *
 * The auditor watches every token-bearing message enter and leave the
 * interconnect and can, at any instant, verify that the tokens held by
 * all caches, all memory controllers, and all in-flight messages sum to
 * exactly T for every block the system has touched — the inductive
 * argument of Section 3.1 made executable.
 */

#ifndef TOKENSIM_CORE_SUBSTRATE_HH
#define TOKENSIM_CORE_SUBSTRATE_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/token_state.hh"
#include "mem/block_map.hh"
#include "mem/holder_map.hh"
#include "net/message.hh"
#include "sim/types.hh"

namespace tokensim {

/**
 * Construct a token-transfer message, asserting invariant #4' (owner
 * token implies data) at the only place such messages are created.
 *
 * @param addr block address.
 * @param src sending node.
 * @param dest destination node.
 * @param dst_unit receiving controller at the destination.
 * @param count total tokens carried (including the owner token).
 * @param owner true if the owner token is among them.
 * @param has_data true if the 64-byte block travels along.
 * @param data modeled block contents (meaningful when has_data).
 * @param cls traffic class for accounting.
 */
Message makeTokenMsg(Addr addr, NodeId src, NodeId dest, Unit dst_unit,
                     int count, bool owner, bool has_data,
                     std::uint64_t data, MsgClass cls);

/** Interface the auditor uses to inspect a component's holdings. */
class TokenHolder
{
  public:
    virtual ~TokenHolder() = default;

    /** Total tokens (including owner) this component holds for a
     *  block. */
    virtual int tokensHeld(Addr block_addr) const = 0;

    /** True if this component holds the block's owner token. */
    virtual bool ownerHeld(Addr block_addr) const = 0;

    /** Identification for audit failure reports. */
    virtual std::string holderName() const = 0;

    /** Apply @p fn(node, block) to every line in this component's
     *  L2, keyed as in the holder map (memories hold none). */
    virtual void
    forEachLine(const std::function<void(NodeId, Addr)> &fn) const
    {
        (void)fn;
    }
};

/**
 * Runtime checker for token-conservation invariant #1'.
 *
 * Components report token sends and deliveries; holders register for
 * inspection. audit() then checks, for every touched block:
 *   sum(held by components) + in-flight == T, and
 *   exactly one owner token exists (held or in flight);
 * and, with a holder map attached, that the map lists exactly the
 * caches' lines.
 */
class TokenAuditor
{
  public:
    TokenAuditor(int tokens_per_block, std::uint32_t block_bytes)
        : t_(tokens_per_block), blockBytes_(block_bytes)
    {}

    int tokensPerBlock() const { return t_; }

    /** Register a cache or memory controller for inspection. */
    void addHolder(const TokenHolder *h) { holders_.push_back(h); }

    /** Audit @p map against the registered holders' lines. */
    void watchHolderMap(const HolderMap *map) { map_ = map; }

    /** Forget all in-flight and touched-block state; registered
     *  holders stay (the reusable-System path keeps controllers). */
    void
    reset()
    {
        inFlight_.clear();
        touched_.clear();
    }

    /** Note a block exists (blocks with no traffic are still audited). */
    void
    touch(Addr a)
    {
        touched_.insert(align(a));
    }

    /** A token-bearing message entered the network. */
    void
    onSend(const Message &msg)
    {
        if (msg.tokens == 0)
            return;
        auto &f = inFlight_[align(msg.addr)];
        f.tokens += msg.tokens;
        f.owners += msg.ownerToken ? 1 : 0;
        touched_.insert(align(msg.addr));
    }

    /** A token-bearing message was consumed by a component. */
    void
    onReceive(const Message &msg)
    {
        if (msg.tokens == 0)
            return;
        auto &f = inFlight_[align(msg.addr)];
        f.tokens -= msg.tokens;
        f.owners -= msg.ownerToken ? 1 : 0;
    }

    /** Tokens currently inside the interconnect for @p a. */
    int
    inFlight(Addr a) const
    {
        auto it = inFlight_.find(align(a));
        return it == inFlight_.end() ? 0 : it->second.tokens;
    }

    /** Check one block; returns true if conserved. */
    bool auditBlock(Addr a, std::string *err = nullptr) const;

    /** Check every touched block, then the holder map; false (and
     *  fills @p err) on the first violation. */
    bool auditAll(std::string *err = nullptr) const;

    /**
     * Check the watched holder map against a brute-force scan of
     * every registered L2: each line holds tokens and is listed, and
     * the map lists nothing else. True when no map is watched.
     */
    bool auditHolders(std::string *err = nullptr) const;

    const std::set<Addr> &touchedBlocks() const { return touched_; }

  private:
    struct Flight
    {
        int tokens = 0;
        int owners = 0;
    };

    Addr
    align(Addr a) const
    {
        return a & ~static_cast<Addr>(blockBytes_ - 1);
    }

    int t_;
    std::uint32_t blockBytes_;
    std::vector<const TokenHolder *> holders_;
    const HolderMap *map_ = nullptr;
    BlockMap<Flight> inFlight_;
    std::set<Addr> touched_;
};

} // namespace tokensim

#endif // TOKENSIM_CORE_SUBSTRATE_HH
