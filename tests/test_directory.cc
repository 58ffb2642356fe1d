/**
 * @file
 * Protocol tests for the full-map MOSI directory: home serialization,
 * forwarded requests, invalidation acks, the owner-upgrade grant path,
 * writeback/forward races, queueing without NACKs and its FIFO order,
 * sharer-set bookkeeping behind the invalidation ack count, and the
 * perfect-directory latency ablation of Figure 5a.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "proto/directory/directory.hh"
#include "proto_test_util.hh"

namespace tokensim {
namespace {

using testutil::ProtoDriver;
using testutil::smallConfig;

DirCache &
dcache(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<DirCache &>(d.sys->cache(n));
}

DirMemory &
dmem(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<DirMemory &>(d.sys->memory(n));
}

SystemConfig
dirConfig(int nodes = 4)
{
    return smallConfig(ProtocolKind::directory, "torus", nodes);
}

constexpr Addr kBlock = 0x400;   // home 0 on 4 nodes

TEST(Directory, ColdLoadRecordsSharer)
{
    ProtoDriver d(dirConfig());
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_FALSE(r.cacheToCache);
    EXPECT_EQ(r.value, kBlock);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::S);
    d.drain();   // let the unblock land before inspecting the home
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_FALSE(v.busy);
    EXPECT_EQ(v.owner, invalidNode);
    ASSERT_EQ(v.sharers.size(), 1u);
    EXPECT_EQ(v.sharers[0], 1u);
}

TEST(Directory, StoreRecordsOwner)
{
    ProtoDriver d(dirConfig());
    d.store(2, kBlock, 0x22);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 2u);
    EXPECT_TRUE(v.sharers.empty());
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::M);
}

TEST(Directory, StoreToSharedSendsInvalidations)
{
    ProtoDriver d(dirConfig());
    for (NodeId n = 1; n < 4; ++n)
        d.load(n, kBlock);
    const ProcResponse r = d.store(3, kBlock, 0x99);
    EXPECT_TRUE(r.wasMiss);
    for (NodeId n = 1; n < 3; ++n)
        EXPECT_EQ(dcache(d, n).state(kBlock), MosiState::I);
    EXPECT_EQ(dcache(d, 3).state(kBlock), MosiState::M);
    // Two sharers were invalidated; their acks went to node 3.
    EXPECT_EQ(d.sys->net().traffic()
                  .messagesByType[static_cast<std::size_t>(
                      MsgType::inv)], 2u);
    EXPECT_EQ(d.sys->net().traffic()
                  .messagesByType[static_cast<std::size_t>(
                      MsgType::invAck)], 2u);
}

TEST(Directory, CacheToCacheForwardOnRead)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0xabc);
    const ProcResponse r = d.load(2, kBlock);
    EXPECT_TRUE(r.cacheToCache);   // three-hop transfer via owner
    EXPECT_EQ(r.value, 0xabcu);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::O);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::S);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 1u);
    EXPECT_EQ(v.sharers.size(), 1u);
}

TEST(Directory, MigratoryReadTransfersExclusive)
{
    ProtoDriver d(dirConfig());
    d.store(1, kBlock, 0xabc);
    const ProcResponse r = d.load(2, kBlock);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::M);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::I);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 2u);   // unblockExclusive retargeted ownership
    EXPECT_FALSE(d.store(2, kBlock, 0xdef).wasMiss);
}

TEST(Directory, OwnerUpgradeUsesDatalessGrant)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0x1);    // node 1: M
    d.load(2, kBlock);          // node 1 -> O, node 2: S
    ASSERT_EQ(dcache(d, 1).state(kBlock), MosiState::O);
    const auto data_before = d.sys->net().traffic().messagesOf(
        MsgClass::data);
    const ProcResponse r = d.store(1, kBlock, 0x2);   // O -> M upgrade
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::M);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::I);
    // The grant carried no data: no new data messages.
    EXPECT_EQ(d.sys->net().traffic().messagesOf(MsgClass::data),
              data_before);
    EXPECT_EQ(d.load(1, kBlock).value, 0x2u);
}

TEST(Directory, FwdGetMCollectsInvalidationsAtRequester)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0x1);    // owner 1
    d.load(2, kBlock);          // owner 1 (O), sharer 2
    d.load(3, kBlock);          // sharers {2, 3}
    const ProcResponse r = d.store(0, kBlock, 0xff);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(dcache(d, 0).state(kBlock), MosiState::M);
    for (NodeId n = 1; n < 4; ++n)
        EXPECT_EQ(dcache(d, n).state(kBlock), MosiState::I);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 0u);
    EXPECT_TRUE(v.sharers.empty());
}

TEST(Directory, RacingRequestsQueueWithoutNacks)
{
    ProtoDriver d(dirConfig());
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    EXPECT_TRUE(dmem(d, 0).quiescent());
    int modified = 0;
    for (NodeId n = 0; n < 4; ++n)
        modified += dcache(d, n).state(kBlock) == MosiState::M;
    EXPECT_EQ(modified, 1);
}

TEST(Directory, WritebackUpdatesMemoryAndDirectory)
{
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.store(1, 0x200, 0x333);   // evicts 0x000 -> PutM
    d.drain();
    EXPECT_TRUE(dcache(d, 1).quiescent());   // wbAck arrived
    const auto v = dmem(d, 0).view(0x000);
    EXPECT_EQ(v.owner, invalidNode);
    EXPECT_EQ(dmem(d, 0).peekData(0x000), 0x111u);
    EXPECT_EQ(d.load(2, 0x000).value, 0x111u);
}

TEST(Directory, ForwardDuringWritebackServedFromBuffer)
{
    // Evict a dirty line and immediately have another node request
    // it: the forward may reach the evictor before its PutM lands;
    // it must answer from the writeback buffer.
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.issue(1, MemOp::store, 0x200, 0x333);   // evicts 0x000
    d.issue(3, MemOp::load, 0x000);
    ASSERT_TRUE(d.runUntilCompletions(3, 1));
    EXPECT_EQ(d.completions[3][0].value, 0x111u);
    d.drain();
    EXPECT_TRUE(dcache(d, 1).quiescent());
    EXPECT_TRUE(dmem(d, 0).quiescent());
}

TEST(Directory, PerfectDirectoryLowersCacheToCacheLatency)
{
    // Figure 5a's striped bar: the DRAM directory lookup gates the
    // forward; a zero-latency directory removes it.
    auto run = [](bool perfect) {
        SystemConfig cfg = dirConfig();
        cfg.proto.perfectDirectory = perfect;
        ProtoDriver d(cfg);
        d.store(1, kBlock, 0x1);
        const ProcResponse r = d.load(2, kBlock);
        return r.completedAt - r.issuedAt;
    };
    const Tick dram_dir = run(false);
    const Tick perfect_dir = run(true);
    EXPECT_GT(dram_dir, perfect_dir);
    // The difference is roughly the 80 ns lookup.
    EXPECT_NEAR(static_cast<double>(dram_dir - perfect_dir),
                static_cast<double>(nsToTicks(80)),
                static_cast<double>(nsToTicks(10)));
}

TEST(Directory, ValuesChainAcrossOwners)
{
    ProtoDriver d(dirConfig());
    std::uint64_t expect = kBlock;
    for (int round = 0; round < 3; ++round) {
        for (NodeId n = 0; n < 4; ++n) {
            EXPECT_EQ(d.load(n, kBlock).value, expect);
            expect = 0x1000u * (round + 1) + n;
            d.store(n, kBlock, expect);
        }
    }
    d.drain();
    EXPECT_TRUE(dmem(d, 0).quiescent());
}

TEST(Directory, SilentSharerDropStillAcksInvalidation)
{
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.load(1, 0x000);           // sharer 1 recorded
    d.load(1, 0x100);
    d.load(1, 0x200);           // silently evicts 0x000 from node 1
    EXPECT_EQ(dcache(d, 1).state(0x000), MosiState::I);
    // The directory still thinks node 1 shares 0x000; the store must
    // complete anyway (stale sharers ack without a line).
    const ProcResponse r = d.store(2, 0x000, 0x77);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(dcache(d, 2).state(0x000), MosiState::M);
    d.drain();
}

std::uint64_t
sent(const ProtoDriver &d, MsgType t)
{
    return d.sys->net().traffic().messagesByType[static_cast<std::size_t>(t)];
}

TEST(Directory, RepeatedGetSFromOneSharerRecordsItOnce)
{
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.load(1, 0x000);
    d.load(1, 0x100);
    d.load(1, 0x200);   // silently evicts 0x000 from node 1
    ASSERT_EQ(dcache(d, 1).state(0x000), MosiState::I);
    d.load(1, 0x000);   // a second GetS from the same sharer
    d.drain();
    EXPECT_EQ(dmem(d, 0).view(0x000).sharers, std::vector<NodeId>({1}));

    // The GetM's ack count names node 1 once: one invalidation, one
    // ack, and the store completes (a double count would leave it
    // waiting for an ack that never comes).
    const std::uint64_t invs = sent(d, MsgType::inv);
    const ProcResponse r = d.store(2, 0x000, 0x5);
    EXPECT_TRUE(r.wasMiss);
    d.drain();
    EXPECT_EQ(sent(d, MsgType::inv) - invs, 1u);
    EXPECT_EQ(dcache(d, 1).state(0x000), MosiState::I);
    const auto v = dmem(d, 0).view(0x000);
    EXPECT_EQ(v.owner, 2u);
    EXPECT_TRUE(v.sharers.empty());
}

TEST(Directory, SharerUpgradeDoesNotCountItself)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.load(1, kBlock);
    d.load(2, kBlock);
    d.drain();
    ASSERT_EQ(dmem(d, 0).view(kBlock).sharers,
              std::vector<NodeId>({1, 2}));

    const std::uint64_t invs = sent(d, MsgType::inv);
    const std::uint64_t acks = sent(d, MsgType::invAck);
    const ProcResponse r = d.store(1, kBlock, 0x9);   // S -> M
    EXPECT_TRUE(r.wasMiss);
    d.drain();
    EXPECT_EQ(sent(d, MsgType::inv) - invs, 1u);   // node 2 only
    EXPECT_EQ(sent(d, MsgType::invAck) - acks, 1u);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::M);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::I);
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 1u);
    EXPECT_TRUE(v.sharers.empty());
}

TEST(Directory, QueuedRequestsAreServedInArrivalOrder)
{
    ProtoDriver d(dirConfig());
    DirMemory &home = dmem(d, 0);
    EventQueue &eq = d.sys->eq();
    const Tick guard = eq.curTick() + nsToTicks(10'000);

    // Node 1 takes the block; nodes 2 then 3 arrive while it is busy.
    d.issue(1, MemOp::store, kBlock, 0x1);
    ASSERT_TRUE(eq.runUntil([&] { return home.view(kBlock).busy; },
                            guard));
    d.issue(2, MemOp::store, kBlock, 0x2);
    ASSERT_TRUE(eq.runUntil(
        [&] { return home.view(kBlock).waiting.size() == 1; }, guard));
    d.issue(3, MemOp::store, kBlock, 0x3);
    ASSERT_TRUE(eq.runUntil(
        [&] { return home.view(kBlock).waiting.size() == 2; }, guard));
    EXPECT_EQ(home.view(kBlock).waiting, std::vector<NodeId>({2, 3}));
    EXPECT_FALSE(home.quiescent());

    for (NodeId n = 1; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    EXPECT_LT(d.completions[1][0].completedAt,
              d.completions[2][0].completedAt);
    EXPECT_LT(d.completions[2][0].completedAt,
              d.completions[3][0].completedAt);
    const auto v = home.view(kBlock);
    EXPECT_TRUE(v.waiting.empty());
    EXPECT_EQ(v.owner, 3u);   // the last served holds M
    EXPECT_TRUE(home.quiescent());
    EXPECT_EQ(d.load(0, kBlock).value, 0x3u);
}

} // namespace
} // namespace tokensim
