/**
 * @file
 * ProtoContext: the environment a protocol controller runs in.
 *
 * Gathers the services every controller needs — the event queue, the
 * network, the block holder map, the address-to-home mapping, and the
 * latency parameters of Table 1 — so controller constructors stay
 * small and protocols remain independent of the harness.
 */

#ifndef TOKENSIM_PROTO_CONTEXT_HH
#define TOKENSIM_PROTO_CONTEXT_HH

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/holder_map.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tokensim {

/** Shared environment for all controllers of one simulated system. */
struct ProtoContext
{
    EventQueue *eq = nullptr;
    Network *net = nullptr;

    /** Which caches hold each block (owned by the System; kept exact
     *  by the token caches, empty under every other protocol). */
    HolderMap *holders = nullptr;

    int numNodes = 16;
    std::uint32_t blockBytes = 64;

    /** Coherence/memory controller processing latency (6 ns). */
    Tick ctrlLatency = nsToTicks(6);

    /** L2 geometry and latency (4 MB, 4-way, 6 ns). */
    CacheParams l2{4 * 1024 * 1024, 4, 64, nsToTicks(6)};

    /** DRAM timing (80 ns). */
    DramParams dram{};

    /** Block-align an address. */
    Addr
    blockAlign(Addr a) const
    {
        return a & ~static_cast<Addr>(blockBytes - 1);
    }

    /**
     * Home node of a block: low-order block-interleaved (Section 5).
     * Every broadcast copy asks, so no division where it can be
     * helped: blockBytes is a power of two (blockAlign relies on it
     * too) and numNodes usually is.
     */
    NodeId
    home(Addr a) const
    {
        const Addr block = a >> __builtin_ctz(blockBytes);
        const auto n = static_cast<Addr>(numNodes);
        return static_cast<NodeId>((n & (n - 1)) == 0 ? block & (n - 1)
                                                       : block % n);
    }

    Tick now() const { return eq->curTick(); }
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_CONTEXT_HH
