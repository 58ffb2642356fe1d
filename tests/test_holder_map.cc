/**
 * @file
 * Unit tests of HolderMap, the block -> node-set map the token caches
 * keep for holders and Directory homes keep for sharers: inline single
 * holders, the spill to pooled bitset rows and back, row reuse, wide
 * machines, iteration under mutation, the sharer-set operations
 * (idempotent insert, dropAll, count, forEachBlock), and randomized
 * differential checks against std::map<Addr, std::set>.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "mem/holder_map.hh"
#include "sim/random.hh"

namespace tokensim {
namespace {

std::vector<NodeId>
holdersOf(const HolderMap &m, Addr ba)
{
    std::vector<NodeId> out;
    m.forEach(ba, [&](NodeId id) {
        out.push_back(id);
        return true;
    });
    return out;
}

TEST(HolderMap, SingleHolderSpillsToRowAndCollapsesBack)
{
    HolderMap m(64);
    EXPECT_FALSE(m.holds(0x40, 3));
    EXPECT_TRUE(holdersOf(m, 0x40).empty());

    m.add(0x40, 3);
    EXPECT_TRUE(m.holds(0x40, 3));
    EXPECT_FALSE(m.holds(0x40, 4));
    EXPECT_EQ(holdersOf(m, 0x40), std::vector<NodeId>({3}));

    m.add(0x40, 9);   // spill
    m.add(0x40, 0);
    EXPECT_TRUE(m.holds(0x40, 0));
    EXPECT_TRUE(m.holds(0x40, 3));
    EXPECT_TRUE(m.holds(0x40, 9));
    EXPECT_FALSE(m.holds(0x40, 1));
    EXPECT_EQ(holdersOf(m, 0x40), std::vector<NodeId>({0, 3, 9}));
    EXPECT_EQ(m.blocks(), 1u);
    EXPECT_EQ(m.entries(), 3u);

    m.drop(0x40, 3);
    m.drop(0x40, 0);   // one left: back inline
    EXPECT_EQ(holdersOf(m, 0x40), std::vector<NodeId>({9}));
    EXPECT_TRUE(m.holds(0x40, 9));
    EXPECT_FALSE(m.holds(0x40, 0));
    EXPECT_EQ(m.entries(), 1u);
}

TEST(HolderMap, DroppingTheLastHolderForgetsTheBlock)
{
    HolderMap m(16);
    m.add(0x80, 5);
    m.add(0xc0, 5);
    m.drop(0x80, 5);
    EXPECT_FALSE(m.holds(0x80, 5));
    EXPECT_TRUE(holdersOf(m, 0x80).empty());
    EXPECT_TRUE(m.holds(0xc0, 5));
    EXPECT_EQ(m.blocks(), 1u);
    EXPECT_EQ(m.entries(), 1u);

    // A row that empties one holder at a time also ends absent.
    m.add(0x100, 1);
    m.add(0x100, 2);
    m.drop(0x100, 1);
    m.drop(0x100, 2);
    EXPECT_TRUE(holdersOf(m, 0x100).empty());
    EXPECT_EQ(m.blocks(), 1u);
    EXPECT_EQ(m.entries(), 1u);
}

TEST(HolderMap, FreedRowsAreReusedClean)
{
    HolderMap m(128);
    m.add(0x40, 1);
    m.add(0x40, 100);   // row A
    m.drop(0x40, 1);    // row A freed, 100 inline
    m.add(0x80, 7);
    m.add(0x80, 8);     // reuses row A: stale bit 100 must be gone
    EXPECT_EQ(holdersOf(m, 0x80), std::vector<NodeId>({7, 8}));
    EXPECT_FALSE(m.holds(0x80, 100));
    EXPECT_EQ(holdersOf(m, 0x40), std::vector<NodeId>({100}));

    m.clear();
    EXPECT_EQ(m.blocks(), 0u);
    EXPECT_EQ(m.entries(), 0u);
    EXPECT_FALSE(m.holds(0x40, 100));
    EXPECT_FALSE(m.holds(0x80, 7));
    m.add(0x80, 3);
    m.add(0x80, 127);
    EXPECT_EQ(holdersOf(m, 0x80), std::vector<NodeId>({3, 127}));
}

TEST(HolderMap, WideMachineIdsAcrossWords)
{
    HolderMap m(1024);
    const std::vector<NodeId> ids = {0, 63, 64, 65, 511, 640, 1023};
    for (NodeId id : ids)
        m.add(0x1000, id);
    EXPECT_EQ(holdersOf(m, 0x1000), ids);
    for (NodeId id : ids)
        EXPECT_TRUE(m.holds(0x1000, id)) << id;
    EXPECT_FALSE(m.holds(0x1000, 62));
    EXPECT_FALSE(m.holds(0x1000, 1022));

    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
        m.drop(0x1000, ids[i]);
    EXPECT_EQ(holdersOf(m, 0x1000), std::vector<NodeId>({1023}));

    // A single holder >= 64 stays inline.
    m.add(0x2000, 777);
    EXPECT_TRUE(m.holds(0x2000, 777));
    EXPECT_FALSE(m.holds(0x2000, 777 - 64));
}

TEST(HolderMap, ForEachSeesTheSetAsOfTheCall)
{
    HolderMap m(256);
    for (NodeId id : {2u, 70u, 130u, 200u})
        m.add(0x40, id);

    // The GetM gather's shape: drain every holder but one while
    // walking, while other blocks gain holders and spill rows (which
    // may move the row pool under the walk).
    std::vector<NodeId> seen;
    m.forEach(0x40, [&](NodeId id) {
        seen.push_back(id);
        if (id != 130)
            m.drop(0x40, id);
        for (NodeId k = 0; k < 8; ++k)
            m.add(0x10000 + 0x40 * id, k);
        return true;
    });
    EXPECT_EQ(seen, std::vector<NodeId>({2, 70, 130, 200}));
    EXPECT_EQ(holdersOf(m, 0x40), std::vector<NodeId>({130}));

    // Adding a holder mid-walk is not visited; early stop is honored.
    seen.clear();
    m.forEach(0x40, [&](NodeId id) {
        seen.push_back(id);
        m.add(0x40, 5);
        return true;
    });
    EXPECT_EQ(seen, std::vector<NodeId>({130}));
    seen.clear();
    m.forEach(0x40, [&](NodeId id) {
        seen.push_back(id);
        return false;
    });
    EXPECT_EQ(seen, std::vector<NodeId>({5}));
}

TEST(HolderMap, MatchesReferenceUnderRandomChurn)
{
    // Enough blocks to grow the table several times, and enough
    // removals to exercise backward-shift deletion across wrapped
    // probe runs.
    const int nodes = 200;
    HolderMap m(nodes);
    std::map<Addr, std::set<NodeId>> ref;
    Rng rng(42);
    std::size_t entries = 0;
    for (int step = 0; step < 200000; ++step) {
        const Addr ba = rng.below(6000) * 64;
        const auto id = static_cast<NodeId>(rng.below(nodes));
        std::set<NodeId> &s = ref[ba];
        if (s.count(id)) {
            m.drop(ba, id);
            s.erase(id);
            --entries;
        } else {
            m.add(ba, id);
            s.insert(id);
            ++entries;
        }
        if (s.empty())
            ref.erase(ba);
    }
    EXPECT_EQ(m.entries(), entries);
    EXPECT_EQ(m.blocks(), ref.size());
    for (Addr b = 0; b < 6000; ++b) {
        const Addr ba = b * 64;
        auto it = ref.find(ba);
        const std::vector<NodeId> want = it == ref.end()
            ? std::vector<NodeId>{}
            : std::vector<NodeId>(it->second.begin(), it->second.end());
        ASSERT_EQ(holdersOf(m, ba), want) << "block " << ba;
    }
}

std::vector<Addr>
blocksOf(const HolderMap &m)
{
    std::vector<Addr> out;
    m.forEachBlock([&](Addr ba) { out.push_back(ba); });
    std::sort(out.begin(), out.end());
    return out;
}

TEST(HolderMap, InsertToleratesAMemberAlreadyPresent)
{
    HolderMap m(64);
    EXPECT_TRUE(m.insert(0x40, 3));
    EXPECT_FALSE(m.insert(0x40, 3));   // inline duplicate
    EXPECT_EQ(m.entries(), 1u);
    EXPECT_EQ(m.count(0x40), 1u);

    EXPECT_TRUE(m.insert(0x40, 9));    // spill
    EXPECT_FALSE(m.insert(0x40, 3));   // row duplicates
    EXPECT_FALSE(m.insert(0x40, 9));
    EXPECT_EQ(m.entries(), 2u);
    EXPECT_EQ(m.blocks(), 1u);
    EXPECT_EQ(m.count(0x40), 2u);
    EXPECT_EQ(holdersOf(m, 0x40), std::vector<NodeId>({3, 9}));
}

TEST(HolderMap, CountCoversAbsentInlineAndRowBlocks)
{
    HolderMap m(128);
    EXPECT_EQ(m.count(0x40), 0u);
    m.add(0x40, 100);
    EXPECT_EQ(m.count(0x40), 1u);
    m.add(0x40, 1);
    m.add(0x40, 64);
    EXPECT_EQ(m.count(0x40), 3u);
    m.drop(0x40, 1);
    EXPECT_EQ(m.count(0x40), 2u);
    EXPECT_EQ(m.count(0x80), 0u);
}

TEST(HolderMap, DropAllForgetsInlineAndRowBlocks)
{
    HolderMap m(128);
    m.dropAll(0x40);   // absent: no-op
    EXPECT_EQ(m.blocks(), 0u);
    EXPECT_EQ(m.entries(), 0u);

    m.add(0x40, 5);                   // inline
    for (NodeId id : {1u, 64u, 100u})
        m.add(0x80, id);              // row A
    m.add(0xc0, 7);
    m.add(0xc0, 8);                   // row B
    EXPECT_EQ(m.blocks(), 3u);
    EXPECT_EQ(m.entries(), 6u);

    m.dropAll(0x40);
    EXPECT_EQ(m.count(0x40), 0u);
    EXPECT_FALSE(m.holds(0x40, 5));
    EXPECT_EQ(m.blocks(), 2u);
    EXPECT_EQ(m.entries(), 5u);

    m.dropAll(0x80);   // row A freed
    EXPECT_TRUE(holdersOf(m, 0x80).empty());
    EXPECT_EQ(m.blocks(), 1u);
    EXPECT_EQ(m.entries(), 2u);
    EXPECT_EQ(holdersOf(m, 0xc0), std::vector<NodeId>({7, 8}));

    // A new spill reuses row A: none of its old bits may survive.
    m.add(0x100, 2);
    m.add(0x100, 3);
    EXPECT_EQ(holdersOf(m, 0x100), std::vector<NodeId>({2, 3}));
    EXPECT_FALSE(m.holds(0x100, 64));
    EXPECT_FALSE(m.holds(0x100, 100));
    EXPECT_EQ(m.count(0x100), 2u);
    EXPECT_EQ(m.blocks(), 2u);
    EXPECT_EQ(m.entries(), 4u);

    // A dropped block starts over inline.
    m.add(0x80, 9);
    EXPECT_EQ(holdersOf(m, 0x80), std::vector<NodeId>({9}));
}

TEST(HolderMap, ForEachBlockVisitsEveryNonEmptySet)
{
    HolderMap m(64);
    EXPECT_TRUE(blocksOf(m).empty());
    m.add(0x200, 1);
    m.add(0x40, 2);
    m.add(0x40, 3);
    m.add(0x1000, 4);
    m.add(0x80, 5);
    EXPECT_EQ(blocksOf(m), std::vector<Addr>({0x40, 0x80, 0x200, 0x1000}));

    m.drop(0x200, 1);   // emptied one id at a time
    m.dropAll(0x40);    // emptied at once
    EXPECT_EQ(blocksOf(m), std::vector<Addr>({0x80, 0x1000}));
    m.clear();
    EXPECT_TRUE(blocksOf(m).empty());
}

TEST(HolderMap, SharerOperationsMatchReferenceUnderRandomChurn)
{
    // The directory's op mix: idempotent inserts, whole-set drops (an
    // exclusive unblock) and single drops, checked through count(),
    // holds(), forEach() and forEachBlock().
    const int nodes = 96;
    HolderMap m(nodes);
    std::map<Addr, std::set<NodeId>> ref;
    Rng rng(7);
    for (int step = 0; step < 100000; ++step) {
        const Addr ba = rng.below(3000) * 64;
        const auto id = static_cast<NodeId>(rng.below(nodes));
        const std::uint64_t op = rng.below(10);
        if (op < 6) {
            EXPECT_EQ(m.insert(ba, id), ref[ba].insert(id).second);
        } else if (op < 8) {
            m.dropAll(ba);
            ref.erase(ba);
        } else if (ref.count(ba) && ref[ba].count(id)) {
            m.drop(ba, id);
            ref[ba].erase(id);
        }
        if (ref.count(ba) && ref[ba].empty())
            ref.erase(ba);
        ASSERT_EQ(m.count(ba), ref.count(ba) ? ref[ba].size() : 0u);
        ASSERT_EQ(m.holds(ba, id), ref.count(ba) && ref[ba].count(id));
    }
    std::size_t entries = 0;
    std::vector<Addr> want_blocks;
    for (const auto &[ba, s] : ref) {
        entries += s.size();
        want_blocks.push_back(ba);
        ASSERT_EQ(holdersOf(m, ba),
                  std::vector<NodeId>(s.begin(), s.end()))
            << "block " << ba;
    }
    EXPECT_EQ(m.entries(), entries);
    EXPECT_EQ(m.blocks(), ref.size());
    EXPECT_EQ(blocksOf(m), want_blocks);
}

} // namespace
} // namespace tokensim
