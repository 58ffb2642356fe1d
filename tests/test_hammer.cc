/**
 * @file
 * Protocol tests for the Hammer baseline: home-serialized broadcast
 * probes, every-node acknowledgments (the traffic cost Figure 5b
 * shows), owner data priority over stale memory data, migratory
 * optimization, and writeback filtering.
 */

#include <gtest/gtest.h>

#include "proto/hammer/hammer.hh"
#include "proto_test_util.hh"

namespace tokensim {
namespace {

using testutil::ProtoDriver;
using testutil::smallConfig;

HammerCache &
hcache(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<HammerCache &>(d.sys->cache(n));
}

HammerMemory &
hmem(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<HammerMemory &>(d.sys->memory(n));
}

SystemConfig
hammerConfig(int nodes = 4)
{
    return smallConfig(ProtocolKind::hammer, "torus", nodes);
}

constexpr Addr kBlock = 0x400;   // home 0 on 4 nodes

TEST(Hammer, ColdLoadCollectsAllResponses)
{
    ProtoDriver d(hammerConfig());
    const auto acks_before = d.sys->net().traffic()
        .messagesByType[static_cast<std::size_t>(MsgType::ack)];
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_FALSE(r.cacheToCache);
    EXPECT_EQ(r.value, kBlock);
    EXPECT_EQ(hcache(d, 1).state(kBlock), MosiState::S);
    // Every node but the requester acked: N-1 = 3 acknowledgments.
    EXPECT_EQ(d.sys->net().traffic()
                  .messagesByType[static_cast<std::size_t>(
                      MsgType::ack)],
              acks_before + 3);
}

TEST(Hammer, StoreBecomesModified)
{
    ProtoDriver d(hammerConfig());
    d.store(2, kBlock, 0x22);
    EXPECT_EQ(hcache(d, 2).state(kBlock), MosiState::M);
    EXPECT_FALSE(d.store(2, kBlock, 0x23).wasMiss);
    EXPECT_EQ(d.load(2, kBlock).value, 0x23u);
}

TEST(Hammer, OwnerDataBeatsStaleMemoryData)
{
    ProtoDriver d(hammerConfig());
    d.store(1, kBlock, 0xf0e5);
    // Memory still has the initial pattern; the owner must supply.
    const ProcResponse r = d.load(2, kBlock);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(r.value, 0xf0e5u);
}

TEST(Hammer, MigratoryTransfer)
{
    ProtoDriver d(hammerConfig());
    d.store(1, kBlock, 0xaa);
    const ProcResponse r = d.load(3, kBlock);
    EXPECT_EQ(r.value, 0xaau);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(hcache(d, 3).state(kBlock), MosiState::M);
    EXPECT_EQ(hcache(d, 1).state(kBlock), MosiState::I);
    EXPECT_FALSE(d.store(3, kBlock, 0xbb).wasMiss);
}

TEST(Hammer, NonMigratorySharing)
{
    SystemConfig cfg = hammerConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0xaa);
    d.load(3, kBlock);
    EXPECT_EQ(hcache(d, 1).state(kBlock), MosiState::O);
    EXPECT_EQ(hcache(d, 3).state(kBlock), MosiState::S);
    // O-state owner keeps answering readers.
    EXPECT_EQ(d.load(2, kBlock).value, 0xaau);
    EXPECT_EQ(hcache(d, 2).state(kBlock), MosiState::S);
}

TEST(Hammer, StoreInvalidatesSharers)
{
    SystemConfig cfg = hammerConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    for (NodeId n = 0; n < 4; ++n)
        d.load(n, kBlock);
    d.store(2, kBlock, 0x55);
    for (NodeId n = 0; n < 4; ++n) {
        if (n != 2) {
            EXPECT_EQ(hcache(d, n).state(kBlock), MosiState::I);
        }
    }
    EXPECT_EQ(d.load(0, kBlock).value, 0x55u);
}

TEST(Hammer, RacingStoresSerializeAtHome)
{
    ProtoDriver d(hammerConfig());
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    EXPECT_TRUE(hmem(d, 0).quiescent());
    int modified = 0;
    for (NodeId n = 0; n < 4; ++n)
        modified += hcache(d, n).state(kBlock) == MosiState::M;
    EXPECT_EQ(modified, 1);
}

TEST(Hammer, WritebackUpdatesMemory)
{
    SystemConfig cfg = hammerConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.store(1, 0x200, 0x333);   // evicts 0x000
    d.drain();
    EXPECT_TRUE(hcache(d, 1).quiescent());
    EXPECT_EQ(hmem(d, 0).peekData(0x000), 0x111u);
    EXPECT_EQ(d.load(2, 0x000).value, 0x111u);
}

TEST(Hammer, ProbeDuringWritebackServedFromBuffer)
{
    SystemConfig cfg = hammerConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.issue(1, MemOp::store, 0x200, 0x333);   // eviction in flight
    d.issue(3, MemOp::load, 0x000);
    ASSERT_TRUE(d.runUntilCompletions(3, 1));
    EXPECT_EQ(d.completions[3][0].value, 0x111u);
    d.drain();
    EXPECT_TRUE(hcache(d, 1).quiescent());
    EXPECT_TRUE(hmem(d, 0).quiescent());
}

TEST(Hammer, UsesMoreNonDataTrafficThanDirectory)
{
    // The every-node-acks cost (Figure 5b's striped segment):
    // run identical request sequences under both protocols and
    // compare non-data traffic.
    auto traffic = [](ProtocolKind kind) {
        ProtoDriver d(smallConfig(kind, "torus", 4));
        for (int i = 0; i < 8; ++i) {
            d.store(static_cast<NodeId>(i % 4), 0x400, i);
            d.load(static_cast<NodeId>((i + 1) % 4), 0x400);
        }
        d.drain();
        return d.sys->net().traffic().byteLinksOf(MsgClass::nonData);
    };
    EXPECT_GT(traffic(ProtocolKind::hammer),
              traffic(ProtocolKind::directory));
}

TEST(Hammer, ValueChain)
{
    ProtoDriver d(hammerConfig());
    std::uint64_t expect = kBlock;
    for (int round = 0; round < 3; ++round) {
        for (NodeId n = 0; n < 4; ++n) {
            EXPECT_EQ(d.load(n, kBlock).value, expect);
            expect = 0x1000u * (round + 1) + n;
            d.store(n, kBlock, expect);
        }
    }
    d.drain();
}

} // namespace
} // namespace tokensim
