/**
 * @file
 * Unit tests of HolderMap, the exact block -> holder-set map the token
 * caches keep: inline single holders, the spill to pooled bitset rows
 * and back, row reuse, wide machines, iteration under mutation, and a
 * randomized differential check against std::map<Addr, std::set>.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace tokensim
