/**
 * @file
 * Full-system integration tests: every protocol x topology x workload
 * combination runs to completion with sane aggregate results, runs are
 * bit-deterministic per seed, and the qualitative relationships the
 * paper reports (latency orderings, traffic orderings) hold on small
 * configurations.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiment.hh"
#include "harness/system.hh"

namespace tokensim {
namespace {

SystemConfig
baseConfig(ProtocolKind proto, const std::string &topo,
           const std::string &workload)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.topology = topo;
    cfg.protocol = proto;
    cfg.workload = workload;
    cfg.opsPerProcessor = 1500;
    cfg.attachAuditor = isTokenProtocol(proto);
    cfg.seed = 12345;
    return cfg;
}

using Combo = std::tuple<ProtocolKind, const char *, const char *>;

class SystemCombo : public ::testing::TestWithParam<Combo>
{
};

TEST_P(SystemCombo, RunsToCompletionWithSaneResults)
{
    const auto [proto, topo, workload] = GetParam();
    SystemConfig cfg = baseConfig(proto, topo, workload);
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();

    EXPECT_EQ(r.ops(), cfg.opsPerProcessor *
                           static_cast<std::uint64_t>(cfg.numNodes));
    EXPECT_GT(r.transactions(), 0u);
    EXPECT_GT(r.runtimeTicks(), 0u);
    EXPECT_GT(r.misses(), 0u);
    EXPECT_GT(r.totalLinkBytes(), 0u);
    EXPECT_GT(r.cyclesPerTransaction(), 0.0);
    // Reissue buckets partition misses.
    EXPECT_EQ(r.misses(),
              r.missesNotReissued() + r.missesReissuedOnce() +
                  r.missesReissuedMore() + r.missesPersistent());
    // The miss-latency stat and histogram see every completed miss.
    EXPECT_EQ(r.missLatency().count(), r.misses());
    const LogHistogram *hist =
        r.metrics.histogram("miss_latency_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->total(), r.misses());
    if (!isTokenProtocol(proto)) {
        EXPECT_EQ(r.missesReissuedOnce(), 0u);
        EXPECT_EQ(r.missesPersistent(), 0u);
    }
    if (sys.auditor()) {
        std::string err;
        EXPECT_TRUE(sys.auditor()->auditAll(&err)) << err;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SystemCombo,
    ::testing::Values(
        Combo{ProtocolKind::snooping, "tree", "oltp"},
        Combo{ProtocolKind::directory, "torus", "oltp"},
        Combo{ProtocolKind::hammer, "torus", "oltp"},
        Combo{ProtocolKind::tokenB, "torus", "oltp"},
        Combo{ProtocolKind::tokenB, "tree", "apache"},
        Combo{ProtocolKind::tokenB, "torus", "specjbb"},
        Combo{ProtocolKind::tokenD, "torus", "oltp"},
        Combo{ProtocolKind::tokenM, "torus", "apache"},
        Combo{ProtocolKind::directory, "tree", "specjbb"},
        Combo{ProtocolKind::hammer, "tree", "apache"},
        Combo{ProtocolKind::tokenB, "torus", "uniform"},
        Combo{ProtocolKind::directory, "torus", "uniform"},
        Combo{ProtocolKind::tokenB, "torus", "private"},
        Combo{ProtocolKind::tokenB, "torus", "producer-consumer"},
        Combo{ProtocolKind::directory, "torus", "producer-consumer"},
        Combo{ProtocolKind::tokenB, "torus", "lock-ping"},
        Combo{ProtocolKind::hammer, "torus", "lock-ping"}),
    [](const ::testing::TestParamInfo<Combo> &info) {
        std::string name =
            std::string(protocolName(std::get<0>(info.param))) + "_" +
            std::get<1>(info.param) + "_" + std::get<2>(info.param);
        // gtest names allow [A-Za-z0-9_] only ("producer-consumer").
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(SystemDeterminism, SameSeedSameResult)
{
    for (ProtocolKind proto : {ProtocolKind::tokenB,
                               ProtocolKind::directory,
                               ProtocolKind::hammer}) {
        SystemConfig cfg = baseConfig(proto, "torus", "oltp");
        cfg.opsPerProcessor = 800;
        System a(cfg), b(cfg);
        a.run();
        b.run();
        EXPECT_EQ(a.results().runtimeTicks(),
                  b.results().runtimeTicks())
            << protocolName(proto);
        EXPECT_EQ(a.results().totalLinkBytes(),
                  b.results().totalLinkBytes());
        EXPECT_EQ(a.results().misses(), b.results().misses());
        EXPECT_TRUE(a.results().metrics == b.results().metrics)
            << protocolName(proto);
    }
}

TEST(SystemDeterminism, DifferentSeedDifferentInterleaving)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 800;
    System a(cfg);
    cfg.seed = 999;
    System b(cfg);
    a.run();
    b.run();
    EXPECT_NE(a.results().runtimeTicks(), b.results().runtimeTicks());
}

TEST(SystemShape, TokenBBeatsDirectoryOnCacheToCacheWorkload)
{
    // The headline claim on a sharing-heavy workload: avoiding the
    // home indirection makes TokenB faster than Directory.
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "uniform");
    cfg.workload.uniformBlocks = 128;
    cfg.opsPerProcessor = 2000;
    System token(cfg);
    token.run();
    cfg.protocol = ProtocolKind::directory;
    cfg.attachAuditor = false;
    System dir(cfg);
    dir.run();
    EXPECT_LT(token.results().runtimeTicks(),
              dir.results().runtimeTicks());
}

TEST(SystemShape, DirectoryUsesLessTrafficThanTokenB)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 1500;
    System token(cfg);
    token.run();
    cfg.protocol = ProtocolKind::directory;
    cfg.attachAuditor = false;
    System dir(cfg);
    dir.run();
    const double token_bpm = token.results().bytesPerMiss();
    const double dir_bpm = dir.results().bytesPerMiss();
    EXPECT_LT(dir_bpm, token_bpm);
}

TEST(SystemShape, HammerUsesMostTraffic)
{
    SystemConfig cfg = baseConfig(ProtocolKind::hammer, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 1500;
    System hammer(cfg);
    hammer.run();
    cfg.protocol = ProtocolKind::tokenB;
    cfg.attachAuditor = true;
    System token(cfg);
    token.run();
    EXPECT_GT(hammer.results().bytesPerMiss(),
              token.results().bytesPerMiss());
}

TEST(SystemShape, ReissuesAreRareOnCommercialWorkloads)
{
    // Table 2's premise: races are rare, so ~97% of misses complete
    // on the first transient request.
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 3000;
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();
    const double not_reissued =
        static_cast<double>(r.missesNotReissued()) /
        static_cast<double>(r.misses());
    EXPECT_GT(not_reissued, 0.90);
}

TEST(Experiment, MultiSeedAveragingFillsAllFields)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "specjbb");
    cfg.opsPerProcessor = 600;
    const ExperimentResult r = runExperiment(cfg, 2, "tb");
    EXPECT_EQ(r.label, "tb");
    EXPECT_GT(r.cyclesPerTransaction, 0.0);
    EXPECT_GT(r.bytesPerMiss, 0.0);
    EXPECT_GT(r.misses, 0u);
    EXPECT_NEAR(r.pctNotReissued + r.pctReissuedOnce +
                    r.pctReissuedMore + r.pctPersistent,
                100.0, 1e-6);
}

TEST(SystemConfigErrors, RejectsBadWorkloadName)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "doom3");
    EXPECT_THROW(System{cfg}, std::invalid_argument);
}

TEST(SystemConfigErrors, RejectsBlockSizeThatIsNotAPowerOfTwo)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus", "oltp");
    for (std::uint32_t bytes : {0u, 48u}) {
        cfg.blockBytes = bytes;
        EXPECT_THROW(System{cfg}, std::invalid_argument) << bytes;
    }
}

} // namespace
} // namespace tokensim
