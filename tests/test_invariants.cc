/**
 * @file
 * Property tests of the decoupling claim itself (Section 4.1):
 * "performance protocol bugs and various races may hurt performance,
 * but they cannot affect correctness."
 *
 * The failure-injection knobs sabotage TokenB's performance protocol —
 * dropping or misdirecting transient requests — while the random
 * tester checks every load's value and audits token conservation
 * every few hundred completions (conservation is an *at every
 * instant* invariant, not just an end-state one). A parameterized
 * grid also sweeps system sizes, token counts, and MLP windows.
 *
 * The holder-map soak checks the one piece of derived state both
 * engines trust blindly: the System's block -> holder map must equal
 * the caches' actual L2 lines at every instant, through evictions,
 * persistent requests, sabotage, resets, snapshot loads, and
 * fast-forward <-> detailed alternation.
 */

#include <gtest/gtest.h>

#include "harness/random_tester.hh"
#include "harness/snapshot.hh"
#include "harness/system.hh"

namespace tokensim {
namespace {

struct ChaosCase
{
    double drop;
    double misdirect;
    ProtocolKind protocol;
    std::uint64_t seed;
};

class ChaosSoak : public ::testing::TestWithParam<ChaosCase>
{
};

TEST_P(ChaosSoak, BuggyPerformanceProtocolCannotBreakCoherence)
{
    const ChaosCase &c = GetParam();
    RandomTesterConfig cfg;
    cfg.protocol = c.protocol;
    cfg.numNodes = 8;
    cfg.blocks = 4;
    cfg.storeFraction = 0.5;
    cfg.opsPerProcessor = 600;   // chaos makes progress slow
    cfg.seed = c.seed;
    cfg.chaosDropFraction = c.drop;
    cfg.chaosMisdirectFraction = c.misdirect;
    const RandomTesterResult r = runRandomTester(cfg);
    EXPECT_TRUE(r.passed) << r.error;
    if (c.drop + c.misdirect > 0.3) {
        // Heavy sabotage must show up as reissues/persistent
        // requests — the liveness machinery earning its keep.
        EXPECT_GT(r.reissuedMisses + r.persistentMisses, 0u);
    }
}

std::string
chaosName(const ::testing::TestParamInfo<ChaosCase> &info)
{
    const ChaosCase &c = info.param;
    return std::string(protocolName(c.protocol)) + "_drop" +
        std::to_string(static_cast<int>(c.drop * 100)) + "_mis" +
        std::to_string(static_cast<int>(c.misdirect * 100)) + "_s" +
        std::to_string(c.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sabotage, ChaosSoak,
    ::testing::Values(
        ChaosCase{0.25, 0.0, ProtocolKind::tokenB, 1},
        ChaosCase{0.50, 0.0, ProtocolKind::tokenB, 2},
        ChaosCase{0.90, 0.0, ProtocolKind::tokenB, 3},
        ChaosCase{0.0, 0.25, ProtocolKind::tokenB, 4},
        ChaosCase{0.0, 0.75, ProtocolKind::tokenB, 5},
        ChaosCase{0.30, 0.30, ProtocolKind::tokenB, 6},
        ChaosCase{0.40, 0.0, ProtocolKind::tokenM, 7},
        ChaosCase{0.40, 0.0, ProtocolKind::tokenD, 8}),
    chaosName);

struct GridCase
{
    int nodes;
    int tokens;       // 0 = nodes
    int outstanding;
    const char *topology;
    std::uint64_t seed;
};

class GridSoak : public ::testing::TestWithParam<GridCase>
{
};

TEST_P(GridSoak, ConservationAndValuesAcrossTheGrid)
{
    const GridCase &g = GetParam();
    RandomTesterConfig cfg;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.topology = g.topology;
    cfg.numNodes = g.nodes;
    cfg.tokensPerBlock = g.tokens;
    cfg.maxOutstanding = g.outstanding;
    cfg.blocks = static_cast<std::uint64_t>(g.nodes);
    cfg.opsPerProcessor = 800;
    cfg.seed = g.seed;
    cfg.auditEvery = 256;
    const RandomTesterResult r = runRandomTester(cfg);
    EXPECT_TRUE(r.passed) << r.error;
}

std::string
gridName(const ::testing::TestParamInfo<GridCase> &info)
{
    const GridCase &g = info.param;
    return std::string("n") + std::to_string(g.nodes) + "_t" +
        std::to_string(g.tokens) + "_o" +
        std::to_string(g.outstanding) + "_" + g.topology;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GridSoak,
    ::testing::Values(
        GridCase{2, 0, 1, "torus", 11},
        GridCase{4, 0, 2, "torus", 12},
        GridCase{4, 64, 4, "torus", 13},
        GridCase{9, 0, 2, "torus", 14},    // 3x3: odd ring sizes
        GridCase{16, 0, 4, "torus", 15},
        GridCase{16, 31, 2, "tree", 16},   // prime-ish T on the tree
        GridCase{32, 0, 2, "torus", 17},
        GridCase{12, 0, 2, "torus", 18}),  // 4x3 rectangular
    gridName);

TEST(InvariantEdge, SingleNodeSystemDegenerates)
{
    // One processor, T = 1: every miss talks only to its own memory.
    RandomTesterConfig cfg;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.numNodes = 1;
    cfg.blocks = 4;
    cfg.opsPerProcessor = 500;
    cfg.seed = 21;
    const RandomTesterResult r = runRandomTester(cfg);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(InvariantEdge, ChaosWithTinyTimeouts)
{
    // Aggressive reissue on top of sabotage: the worst realistic
    // storm of redundant transient requests.
    RandomTesterConfig cfg;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.numNodes = 8;
    cfg.blocks = 2;
    cfg.storeFraction = 0.8;
    cfg.opsPerProcessor = 400;
    cfg.seed = 22;
    cfg.chaosDropFraction = 0.5;
    const RandomTesterResult r = runRandomTester(cfg);
    EXPECT_TRUE(r.passed) << r.error;
    EXPECT_GT(r.persistentMisses + r.reissuedMisses, 0u);
}

// ---------------------------------------------------------------------
// Holder-map exactness soak
// ---------------------------------------------------------------------

/**
 * Steps a System through detailed and fast-forward phases by hand,
 * auditing the holder map against every L2 every @p every dispatched
 * events and running the full audit (conservation + holder map) at
 * each phase edge.
 */
class HolderSoak
{
  public:
    HolderSoak(System &sys, std::uint64_t every)
        : sys_(sys), every_(every)
    {}

    /** Full audit; a failure names @p where. */
    void
    check(const std::string &where)
    {
        std::string err;
        EXPECT_TRUE(sys_.auditor()->auditAll(&err)) << where << ": " << err;
    }

    /** Every node issues @p ops more operations, detailed. */
    void
    detailed(std::uint64_t ops)
    {
        const std::uint64_t edge = sys_.sequencer(0).completedOps() + ops;
        for (int i = 0; i < sys_.numNodes(); ++i) {
            Sequencer &s = sys_.sequencer(static_cast<NodeId>(i));
            s.setIssueLimit(edge);
            if (started_)
                s.kick();
            else
                s.start();
        }
        started_ = true;
        std::string err;
        bool ok = true;
        sys_.eq().runUntil([&] {
            if (++events_ % every_ == 0 &&
                !sys_.auditor()->auditHolders(&err)) {
                ok = false;
                return true;
            }
            return false;
        });
        EXPECT_TRUE(ok) << "after " << events_ << " events: " << err;
        for (int i = 0; i < sys_.numNodes(); ++i) {
            EXPECT_EQ(sys_.sequencer(static_cast<NodeId>(i))
                          .completedOps(),
                      edge)
                << "node " << i;
        }
        check("after a detailed phase");
    }

    /** Every node fast-forwards @p ops operations. */
    void
    fastForward(std::uint64_t ops)
    {
        sys_.fastForward(ops);
        check("after fast-forward");
    }

    std::uint64_t events() const { return events_; }

  private:
    System &sys_;
    std::uint64_t every_;
    std::uint64_t events_ = 0;
    bool started_ = false;
};

/** A small, eviction-heavy token system: 16 nodes sharing 512
 *  blocks through 8 KB L2s (32 lines) and 2 KB L1s. */
SystemConfig
holderSoakConfig(ProtocolKind protocol, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = protocol;
    cfg.attachAuditor = true;
    cfg.workload = "uniform";
    cfg.workload.uniformBlocks = 512;
    cfg.workload.storeFraction = 0.4;
    cfg.l2.sizeBytes = 8 * 1024;
    cfg.seq.l1.sizeBytes = 2 * 1024;
    cfg.opsPerProcessor = 1u << 20;   // phases set the issue limits
    cfg.seed = seed;
    return cfg;
}

struct HolderCase
{
    ProtocolKind protocol;
    double drop;
    double misdirect;
    std::uint64_t seed;
};

class HolderMapSoak : public ::testing::TestWithParam<HolderCase>
{
};

TEST_P(HolderMapSoak, MapEqualsTheCachesAtEveryCheck)
{
    const HolderCase &c = GetParam();
    SystemConfig cfg = holderSoakConfig(c.protocol, c.seed);
    cfg.proto.chaosDropFraction = c.drop;
    cfg.proto.chaosMisdirectFraction = c.misdirect;
    System sys(cfg);
    HolderSoak soak(sys, 97);
    soak.detailed(300);
    soak.fastForward(400);
    soak.detailed(200);
    EXPECT_GT(soak.events(), 10000u);
    const System::Results r = sys.results();
    if (c.protocol == ProtocolKind::tokenNull || c.drop > 0.0) {
        // The sabotaged and null protocols must have gone through
        // persistent activation, the path that frees lines on a
        // forwarding node.
        EXPECT_GT(r.missesPersistent(), 0u);
    }
}

std::string
holderCaseName(const ::testing::TestParamInfo<HolderCase> &info)
{
    const HolderCase &c = info.param;
    return std::string(protocolName(c.protocol)) + "_drop" +
        std::to_string(static_cast<int>(c.drop * 100)) + "_mis" +
        std::to_string(static_cast<int>(c.misdirect * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, HolderMapSoak,
    ::testing::Values(HolderCase{ProtocolKind::tokenB, 0.0, 0.0, 31},
                      HolderCase{ProtocolKind::tokenD, 0.0, 0.0, 32},
                      HolderCase{ProtocolKind::tokenM, 0.0, 0.0, 33},
                      HolderCase{ProtocolKind::tokenA, 0.0, 0.0, 34},
                      HolderCase{ProtocolKind::tokenNull, 0.0, 0.0, 35},
                      HolderCase{ProtocolKind::tokenB, 0.5, 0.0, 36},
                      HolderCase{ProtocolKind::tokenB, 0.0, 0.5, 37},
                      HolderCase{ProtocolKind::tokenM, 0.3, 0.3, 38}),
    holderCaseName);

TEST(HolderMapSoakEdge, ReuseThroughResetStartsEmpty)
{
    SystemConfig cfg = holderSoakConfig(ProtocolKind::tokenB, 41);
    System sys(cfg);
    {
        HolderSoak soak(sys, 101);
        soak.fastForward(300);
        soak.detailed(200);
    }
    EXPECT_GT(sys.ctx().holders->entries(), 0u);

    cfg.seed = 42;
    cfg.proto.chaosDropFraction = 0.3;   // runtime knob: reset keeps
    ASSERT_TRUE(sys.reset(cfg));
    EXPECT_EQ(sys.ctx().holders->entries(), 0u);
    HolderSoak soak(sys, 101);
    soak.check("right after reset");
    soak.detailed(200);
    soak.fastForward(300);
    soak.detailed(100);
}

TEST(HolderMapSoakEdge, SnapshotLoadRebuildsTheMap)
{
    const SystemConfig cfg = holderSoakConfig(ProtocolKind::tokenB, 43);
    System warm(cfg);
    warm.fastForward(600);
    const std::string snap = saveWarmSnapshot(warm);
    const std::size_t warmEntries = warm.ctx().holders->entries();
    ASSERT_GT(warmEntries, 0u);

    // Into a fresh System, and into a reused one that ran first.
    System fresh(cfg);
    loadWarmSnapshot(fresh, snap);
    EXPECT_EQ(fresh.ctx().holders->entries(), warmEntries);
    HolderSoak a(fresh, 89);
    a.check("after snapshot load");
    a.detailed(200);

    System reused(cfg);
    {
        HolderSoak soak(reused, 89);
        soak.detailed(100);
    }
    ASSERT_TRUE(reused.reset(cfg));
    loadWarmSnapshot(reused, snap);
    EXPECT_EQ(reused.ctx().holders->entries(), warmEntries);
    HolderSoak b(reused, 89);
    b.check("after snapshot load into a reset system");
    b.detailed(200);
}

TEST(HolderMapSoakEdge, SampledAlternationAt256Nodes)
{
    // Rows span four words at 256 nodes; a shared hot set makes most
    // blocks widely held, so sharing spills rows and GetM gathers
    // drain them in both engines.
    SystemConfig cfg = holderSoakConfig(ProtocolKind::tokenB, 44);
    cfg.numNodes = 256;
    cfg.workload.uniformBlocks = 256;
    cfg.workload.storeFraction = 0.1;
    System sys(cfg);
    HolderSoak soak(sys, 4001);
    for (int w = 0; w < 3; ++w) {
        soak.fastForward(150);
        soak.detailed(4);
    }
    EXPECT_GT(sys.ctx().holders->entries(),
              sys.ctx().holders->blocks());
}

} // namespace
} // namespace tokensim
