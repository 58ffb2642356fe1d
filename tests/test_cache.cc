/**
 * @file
 * Unit tests for the set-associative cache array, DRAM model, and
 * backing store.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "sim/random.hh"

namespace tokensim {
namespace {

struct TestLine
{
    int payload = 0;
};

CacheParams
smallCache()
{
    // 4 sets x 2 ways x 64B.
    return CacheParams{512, 2, 64, nsToTicks(6)};
}

TEST(CacheArray, Geometry)
{
    CacheArray<TestLine> c(smallCache());
    EXPECT_EQ(c.params().numSets(), 4u);
    EXPECT_EQ(c.blockAlign(0x12345), 0x12340u);
}

TEST(CacheArray, FindMissesWhenEmpty)
{
    CacheArray<TestLine> c(smallCache());
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(CacheArray, AllocateAndFind)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    TestLine *l = c.allocate(0x1000, &v);
    ASSERT_NE(l, nullptr);
    EXPECT_FALSE(v.valid);
    l->payload = 42;
    TestLine *f = c.find(0x1000);
    ASSERT_EQ(f, l);
    EXPECT_EQ(f->payload, 42);
    // Sub-block addresses find the same line.
    EXPECT_EQ(c.find(0x1004), l);
    // The tag is the line's identity.
    EXPECT_EQ(c.addrOf(*l), 0x1000u);
}

TEST(CacheArray, EvictsLruWayWhenSetFull)
{
    CacheArray<TestLine> c(smallCache());
    // Set index = (addr/64) % 4. Addresses 0x000, 0x100, 0x200 all
    // map to set 0 (strides of 256 = 4 blocks).
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v)->payload = 1;
    c.allocate(0x100, &v)->payload = 2;
    EXPECT_FALSE(v.valid);
    // Touch 0x000 so 0x100 becomes LRU.
    c.touch(0x000);
    c.allocate(0x200, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x100u);
    EXPECT_EQ(v.line.payload, 2);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x200));
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v);
    c.allocate(0x100, &v);
    EXPECT_TRUE(c.invalidate(0x000));
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_FALSE(c.invalidate(0x000));   // absent: reported, not fatal
    // Allocation now reuses the freed way without eviction.
    c.allocate(0x200, &v);
    EXPECT_FALSE(v.valid);
}

TEST(CacheArray, ForEachValidVisitsAllLines)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v);
    c.allocate(0x040, &v);
    c.allocate(0x080, &v);
    EXPECT_EQ(c.validCount(), 3u);
    int sum = 0;
    c.forEachValid([&](Addr, TestLine &l) {
        l.payload = 1;
        ++sum;
    });
    EXPECT_EQ(sum, 3);
}

TEST(CacheArray, Table1L2Geometry)
{
    // 4 MB, 4-way, 64 B: 16384 sets.
    CacheParams p{4 * 1024 * 1024, 4, 64, nsToTicks(6)};
    EXPECT_EQ(p.numSets(), 16384u);
    CacheArray<TestLine> c(p);
    CacheArray<TestLine>::Victim v;
    c.allocate(0xdeadbeefc0ULL, &v);
    EXPECT_TRUE(c.contains(0xdeadbeefc0ULL));
}

// ---------------------------------------------------------------------
// Differential check of the 1-byte per-set LRU stamps against the
// reference policy they replace: one 64-bit global use counter, every
// touch and allocate stamping its way with the next value.
// ---------------------------------------------------------------------

/** The reference: tags, 64-bit global stamps, payloads. */
class GlobalStampLru
{
  public:
    explicit GlobalStampLru(const CacheParams &p)
        : assoc_(p.assoc), blockBytes_(p.blockBytes),
          numSets_(p.numSets()), tags_(numSets_ * assoc_, invalid),
          stamps_(numSets_ * assoc_, 0), payloads_(numSets_ * assoc_, 0)
    {}

    /** Flat index of block @p ba, or -1. */
    long
    find(Addr ba) const
    {
        const std::size_t base = setBase(ba);
        for (std::size_t i = base; i < base + assoc_; ++i) {
            if (tags_[i] == ba)
                return static_cast<long>(i);
        }
        return -1;
    }

    bool
    touch(Addr ba)
    {
        const long i = find(ba);
        if (i < 0)
            return false;
        stamps_[static_cast<std::size_t>(i)] = ++counter_;
        return true;
    }

    /** Allocates absent @p ba; returns the victim's index or -1. */
    long
    allocate(Addr ba, int payload, Addr *victim_addr, int *victim_payload)
    {
        const std::size_t base = setBase(ba);
        long way = -1;
        std::size_t lru = base;
        std::uint64_t lru_min = ~std::uint64_t{0};
        for (std::size_t i = base; i < base + assoc_; ++i) {
            if (tags_[i] == invalid) {
                if (way < 0)
                    way = static_cast<long>(i);
            } else if (way < 0 && stamps_[i] < lru_min) {
                lru_min = stamps_[i];
                lru = i;
            }
        }
        long evicted = -1;
        if (way < 0) {
            way = static_cast<long>(lru);
            evicted = way;
            *victim_addr = tags_[lru];
            *victim_payload = payloads_[lru];
        }
        const auto w = static_cast<std::size_t>(way);
        tags_[w] = ba;
        stamps_[w] = ++counter_;
        payloads_[w] = payload;
        return evicted;
    }

    void
    invalidate(Addr ba)
    {
        tags_[static_cast<std::size_t>(find(ba))] = invalid;
    }

    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(), invalid);
        counter_ = 0;
    }

  private:
    static constexpr Addr invalid = ~Addr{0};

    std::size_t
    setBase(Addr ba) const
    {
        return static_cast<std::size_t>((ba / blockBytes_) % numSets_) *
            assoc_;
    }

    std::size_t assoc_;
    std::uint64_t blockBytes_;
    std::uint64_t numSets_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<int> payloads_;
    std::uint64_t counter_ = 0;
};

/** Round-trips @p c through the codec into a fresh array. */
CacheArray<TestLine>
roundTrip(const CacheArray<TestLine> &c)
{
    WireWriter w;
    c.encodeWays(w, [](WireWriter &w, const TestLine &l) {
        w.svarint(l.payload);
    });
    CacheArray<TestLine> out(c.params());
    WireReader r(w.buffer());
    out.decodeWays(r, "test", [](WireReader &r, Addr, TestLine &l) {
        l.payload = static_cast<int>(r.svarint("payload"));
    });
    r.expectEnd("test cache");
    return out;
}

/**
 * Drives both models with one random stream over @p blocks (block
 * addresses) and fails on the first hit/miss or victim difference.
 * @p hot_set_touches extra ops aim at set 0 alone so its stamps climb
 * through many 8-bit renumberings.
 */
void
runDifferential(std::uint32_t assoc, std::uint64_t seed, int ops,
                int hot_set_touches)
{
    SCOPED_TRACE("assoc=" + std::to_string(assoc));
    const CacheParams p{8ull * assoc * 64, assoc, 64, nsToTicks(6)};
    const std::uint64_t sets = p.numSets();
    CacheArray<TestLine> c(p);
    GlobalStampLru ref(p);
    Rng rng(seed);
    // Three blocks per way per set: enough pressure that most
    // allocations evict.
    std::vector<Addr> blocks;
    for (std::uint64_t i = 0; i < sets * assoc * 3; ++i)
        blocks.push_back(i * 64);
    std::vector<Addr> hot;   // set 0's blocks
    for (Addr b : blocks) {
        if ((b / 64) % sets == 0)
            hot.push_back(b);
    }

    int payload = 0;
    std::uint64_t evictions = 0;
    const auto access = [&](Addr b) {
        const bool ref_hit = ref.touch(b);
        TestLine *l = c.touch(b);
        ASSERT_EQ(l != nullptr, ref_hit) << "block " << b;
        if (ref_hit)
            return;
        Addr ref_va = 0;
        int ref_vp = 0;
        const bool ref_evicted =
            ref.allocate(b, ++payload, &ref_va, &ref_vp) >= 0;
        CacheArray<TestLine>::Victim v;
        c.allocate(b, &v)->payload = payload;
        ASSERT_EQ(v.valid, ref_evicted) << "block " << b;
        if (ref_evicted) {
            ++evictions;
            ASSERT_EQ(v.addr, ref_va);
            ASSERT_EQ(v.line.payload, ref_vp);
        }
    };

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t kind = rng.below(100);
        const Addr b = blocks[rng.below(blocks.size())];
        if (kind < 85) {
            ASSERT_NO_FATAL_FAILURE(access(b));
        } else if (kind < 95) {
            if (ref.find(b) >= 0) {
                ref.invalidate(b);
                c.invalidate(b);
            }
        } else if (kind < 99) {
            c = roundTrip(c);
        } else if (rng.below(4) == 0) {
            ref.clear();
            c.clear();
        }
        ASSERT_EQ(c.contains(b), ref.find(b) >= 0);
    }
    for (int i = 0; i < hot_set_touches; ++i) {
        const Addr b = hot[rng.below(hot.size())];
        ASSERT_NO_FATAL_FAILURE(access(b));
        if (i % 500 == 499)
            c = roundTrip(c);
    }
    for (Addr b : blocks)
        ASSERT_EQ(c.contains(b), ref.find(b) >= 0) << "block " << b;
    EXPECT_GT(evictions, 0u);
}

TEST(CacheArrayLru, MatchesGlobalStampPolicyAtEveryAssociativity)
{
    for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u})
        ASSERT_NO_FATAL_FAILURE(
            runDifferential(assoc, 0x5eed + assoc, 20000, 3000));
}

TEST(CacheArrayLru, RenumberingKeepsTheOrderInOneHotSet)
{
    // One 4-way set, touched round-robin in an order that is not way
    // order. The fills leave the clock at 4 and every touch bumps it,
    // so touch 252 finds it at 255 and renumbers the set, and so does
    // every 252nd after. Stopping on such a touch leaves the order the
    // renumbering wrote: the LRU way must be the one touched longest
    // ago.
    CacheArray<TestLine> c(CacheParams{4 * 64, 4, 64, nsToTicks(6)});
    CacheArray<TestLine>::Victim v;
    for (Addr b = 0; b < 4 * 64; b += 64)
        c.allocate(b, &v);
    const Addr order[4] = {0x80, 0x00, 0xc0, 0x40};
    for (int i = 0; i < 8 * 252; ++i)
        ASSERT_NE(c.touch(order[i % 4]), nullptr);
    // The last round touched 0x80, 0x00, 0xc0, 0x40 in that order.
    for (Addr expected : {0x80u, 0x00u, 0xc0u}) {
        c.allocate(0x100 + expected, &v);
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.addr, expected);
    }
}

// ---------------------------------------------------------------------
// The shared cache-state codec: malformed inputs
// ---------------------------------------------------------------------

/** One way record as the codec frames it. */
struct WayRecord
{
    std::uint64_t way;
    std::uint8_t stamp;
    Addr addr;
};

std::string
encodeRecords(std::uint64_t count, const std::vector<WayRecord> &recs)
{
    WireWriter w;
    w.varint(count);
    for (const WayRecord &rec : recs) {
        w.varint(rec.way);
        w.u8(rec.stamp);
        w.varint(rec.addr);
        w.svarint(7);   // payload
    }
    return w.take();
}

/** Decodes @p bytes into a fresh smallCache() (copied to @p out on
 *  success); "" on success, else the WireError text. */
std::string
decodeBytes(const std::string &bytes, CacheArray<TestLine> *out = nullptr)
{
    CacheArray<TestLine> c(smallCache());
    try {
        WireReader r(bytes);
        c.decodeWays(r, "l2", [](WireReader &r, Addr, TestLine &l) {
            l.payload = static_cast<int>(r.svarint("payload"));
        });
        r.expectEnd("test cache");
    } catch (const WireError &e) {
        return e.what();
    }
    if (out)
        *out = c;
    return "";
}

std::string
decodeError(const std::vector<WayRecord> &recs,
            CacheArray<TestLine> *out = nullptr)
{
    return decodeBytes(encodeRecords(recs.size(), recs), out);
}

TEST(CacheArrayCodec, EveryStructuralFaultIsATypedError)
{
    // smallCache(): 4 sets x 2 ways, so flat ways 0..7 and set 0 is
    // ways 0-1 (blocks 0x000, 0x100, 0x200, ...).
    const auto has = [](const std::string &err, const char *what) {
        return err.find(what) != std::string::npos;
    };
    EXPECT_TRUE(has(decodeBytes(encodeRecords(9, {})),
                    "l2 line count 9 exceeds the array's 8 ways"));
    EXPECT_TRUE(has(decodeError({{8, 1, 0x000}}),
                    "l2 way index out of range"));
    EXPECT_TRUE(has(decodeError({{0, 1, 0x000}, {0, 2, 0x100}}),
                    "l2 way listed twice"));
    EXPECT_TRUE(has(decodeError({{0, 1, 0x004}}),
                    "l2 line address not block-aligned"));
    EXPECT_TRUE(has(decodeError({{0, 1, 0x040}}),
                    "l2 line mapped to the wrong set"));
    EXPECT_TRUE(has(decodeError({{0, 1, 0x000}, {1, 2, 0x000}}),
                    "l2 block listed twice"));
    EXPECT_TRUE(has(decodeError({{0, 0, 0x000}}),
                    "l2 lru stamp 0 marks an invalid way"));
    EXPECT_TRUE(has(decodeError({{0, 5, 0x000}, {1, 5, 0x100}}),
                    "l2 lru stamps not distinct within a set"));
    // Equal stamps in different sets are fine.
    EXPECT_EQ(decodeError({{0, 5, 0x000}, {2, 5, 0x040}}), "");
    // Truncation inside a record names the field.
    const std::string full = encodeRecords(1, {{0, 1, 0x000}});
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        EXPECT_NE(decodeBytes(full.substr(0, cut)), "");
    }
}

TEST(CacheArrayCodec, DecodedStampsDecideTheVictim)
{
    CacheArray<TestLine> c(smallCache());
    // Way 0 is more recent (stamp 9) than way 1 (stamp 3); a stamp at
    // the full clock renumbers on the next bump.
    ASSERT_EQ(decodeError({{0, 9, 0x000}, {1, 3, 0x100}}, &c), "");
    CacheArray<TestLine>::Victim v;
    c.allocate(0x200, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x100u);
    EXPECT_EQ(v.line.payload, 7);

    ASSERT_EQ(decodeError({{0, 255, 0x000}, {1, 254, 0x100}}, &c), "");
    ASSERT_NE(c.touch(0x100), nullptr);   // clock 255: renumber
    v = {};
    c.allocate(0x200, &v);
    EXPECT_EQ(v.addr, 0x000u);

    // Encode is canonical: decode(encode(x)) re-encodes identically.
    WireWriter a;
    c.encodeWays(a, [](WireWriter &w, const TestLine &l) {
        w.svarint(l.payload);
    });
    CacheArray<TestLine> d(smallCache());
    ASSERT_EQ(decodeBytes(a.buffer(), &d), "");
    WireWriter b;
    d.encodeWays(b, [](WireWriter &w, const TestLine &l) {
        w.svarint(l.payload);
    });
    EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(Dram, FixedLatency)
{
    Dram d(DramParams{nsToTicks(80), 0});
    EXPECT_EQ(d.access(0), nsToTicks(80));
    EXPECT_EQ(d.access(100), 100 + nsToTicks(80));
    EXPECT_EQ(d.accesses(), 2u);
}

TEST(Dram, MinGapSerializesBursts)
{
    Dram d(DramParams{nsToTicks(80), nsToTicks(10)});
    EXPECT_EQ(d.access(0), nsToTicks(80));
    // Second access at the same instant starts 10 ns later.
    EXPECT_EQ(d.access(0), nsToTicks(10) + nsToTicks(80));
}

TEST(BackingStore, InitialValueIsAddressPattern)
{
    BackingStore bs(64);
    EXPECT_EQ(bs.read(0x1000), 0x1000u);
    EXPECT_EQ(bs.read(0x1004), 0x1000u);   // block-aligned
}

TEST(BackingStore, WriteThenRead)
{
    BackingStore bs(64);
    bs.write(0x2000, 0xabcd);
    EXPECT_EQ(bs.read(0x2000), 0xabcdu);
    EXPECT_EQ(bs.read(0x203f), 0xabcdu);
    EXPECT_EQ(bs.read(0x2040), 0x2040u);   // next block untouched
}

} // namespace
} // namespace tokensim
