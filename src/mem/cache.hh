/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * The array is protocol-agnostic: each protocol supplies its line type
 * and stores its own coherence state in it (MOSI state bits for the
 * classical protocols, token counts for Token Coherence — the paper
 * notes tokens are held "in processor caches (e.g., part of tag
 * state)"). Replacement victims are returned to the caller, which must
 * take protocol action (write back data, return tokens to the home).
 *
 * A way costs its tag (8 bytes), a 1-byte LRU stamp and the protocol
 * Line, kept in three parallel arrays. The tag is the only record of a
 * way's block address and validity: Line carries neither, and a
 * victim's address travels next to its payload copy. A set probe scans
 * assoc consecutive tag words (one cache line for a 4-way set) and
 * replacement scans assoc stamp bytes, so touch() — the hottest call in
 * the whole simulator — dereferences a payload only on a hit.
 *
 * LRU stamps are local to their set. Every valid way holds a distinct
 * stamp in [1, 255] and an invalid way holds 0; the set's clock is the
 * maximum of its own stamps, so a touched or allocated way takes
 * clock+1. When the clock reaches 255 the set's other valid ways are
 * renumbered 1..k in their existing order first. Within a set, the
 * order is therefore exactly the one a global use counter would give,
 * and so is every victim.
 */

#ifndef TOKENSIM_MEM_CACHE_HH
#define TOKENSIM_MEM_CACHE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "sim/types.hh"

namespace tokensim {

/** Geometry and latency of one cache level (Table 1). */
struct CacheParams
{
    std::uint64_t sizeBytes = 4 * 1024 * 1024;   ///< capacity
    std::uint32_t assoc = 4;                     ///< ways per set
    std::uint32_t blockBytes = 64;               ///< line size
    Tick latency = nsToTicks(6);                 ///< access latency

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) *
                            blockBytes);
    }
};

/**
 * A set-associative array of protocol payloads @p Line, with true-LRU
 * replacement inside each set.
 */
template <typename Line>
class CacheArray
{
  public:
    explicit CacheArray(const CacheParams &params)
        : params_(params),
          numSets_(params.numSets()),
          blockShift_(floorLog2(params.blockBytes)),
          setMask_(numSets_ - 1),
          tags_(numSets_ * params.assoc, invalidTag),
          stamps_(numSets_ * params.assoc, 0),
          lines_(numSets_ * params.assoc)
    {
        assert(isPowerOf2(params.blockBytes));
        assert(numSets_ > 0 && isPowerOf2(numSets_));
        assert(params.assoc >= 1 && params.assoc <= maxStamp &&
               "a set's stamps must fit in one byte");
    }

    const CacheParams &params() const { return params_; }

    /** Block-align an address. */
    Addr
    blockAlign(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.blockBytes - 1);
    }

    /** Find a line without touching LRU state; nullptr if absent. */
    Line *
    find(Addr a)
    {
        const Addr ba = blockAlign(a);
        const std::size_t i = indexOf(setBase(ba), ba);
        return i == notFound ? nullptr : &lines_[i];
    }

    const Line *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a);
    }

    /** Find a line and mark it most-recently used. */
    Line *
    touch(Addr a)
    {
        const Addr ba = blockAlign(a);
        const std::size_t base = setBase(ba);
        const std::size_t i = indexOf(base, ba);
        if (i == notFound)
            return nullptr;
        const std::uint8_t clock = setClock(base);
        // Re-touching the most recent way changes no order.
        if (stamps_[i] != clock)
            stamps_[i] = mruStamp(base, i - base, clock);
        return &lines_[i];
    }

    /** True if the block is present. */
    bool
    contains(Addr a) const
    {
        const Addr ba = blockAlign(a);
        return indexOf(setBase(ba), ba) != notFound;
    }

    /** Block address of a line held by this array. */
    Addr
    addrOf(const Line &line) const
    {
        const auto i = static_cast<std::size_t>(&line - lines_.data());
        assert(i < lines_.size() && tags_[i] != invalidTag);
        return tags_[i];
    }

    /** Replacement victim information from allocate(). */
    struct Victim
    {
        bool valid = false;   ///< true if a line was evicted
        Addr addr = 0;        ///< the evicted block
        Line line;            ///< copy of the evicted payload
    };

    /**
     * Allocate a line for block @p a (which must not be present).
     * If the set is full, the LRU way is evicted and a copy returned
     * through @p victim so the caller can perform protocol actions
     * (write back dirty data, send tokens home). The returned line is
     * default-initialized.
     *
     * One pass over the set's stamps decides the way: invalid ways
     * hold stamp 0 and valid ways distinct nonzero stamps, so the
     * first way with the least stamp is the first invalid way if there
     * is one, else the LRU way.
     */
    Line *
    allocate(Addr a, Victim *victim)
    {
        const Addr ba = blockAlign(a);
        const std::size_t base = setBase(ba);
        assert(indexOf(base, ba) == notFound &&
               "allocate of a block already present");
        const std::uint8_t *s = &stamps_[base];
        std::uint32_t way = 0;
        std::uint8_t clock = s[0];
        for (std::uint32_t w = 1; w < params_.assoc; ++w) {
            if (s[w] < s[way])
                way = w;
            clock = std::max(clock, s[w]);
        }
        const std::size_t i = base + way;
        if (s[way] != 0 && victim) {
            victim->valid = true;
            victim->addr = tags_[i];
            victim->line = lines_[i];
        }
        tags_[i] = ba;
        stamps_[i] = mruStamp(base, way, clock);
        lines_[i] = Line{};
        return &lines_[i];
    }

    /** Remove a block; returns whether it was present. */
    bool
    invalidate(Addr a)
    {
        const Addr ba = blockAlign(a);
        const std::size_t i = indexOf(setBase(ba), ba);
        if (i == notFound)
            return false;
        tags_[i] = invalidTag;
        stamps_[i] = 0;
        lines_[i] = Line{};
        return true;
    }

    /** Apply @p fn(addr, line) to every valid line (invariant
     *  checkers, holder audits). */
    template <typename Fn>
    void
    forEachValid(Fn fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != invalidTag)
                fn(tags_[i], lines_[i]);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != invalidTag)
                fn(tags_[i], lines_[i]);
        }
    }

    /** Number of currently valid lines. */
    std::uint64_t
    validCount() const
    {
        return static_cast<std::uint64_t>(
            tags_.size() -
            std::count(tags_.begin(), tags_.end(), invalidTag));
    }

    /**
     * Invalidate every line — equivalent to a freshly constructed
     * array but reusing the (large) tag/stamp/payload storage. The
     * reusable-System path calls this between runs.
     */
    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(), invalidTag);
        std::fill(stamps_.begin(), stamps_.end(), 0);
        // lines_ is deliberately left stale: a payload is never read
        // until allocate() has rewritten it (tag-miss lines are
        // unreachable), so wiping tens of megabytes per reset would
        // buy nothing.
    }

    // -----------------------------------------------------------------
    // Warm-state codec. The array owns the framing of its valid ways
    // (flat way index, LRU stamp, block address) and every structural
    // check on it; protocols code only their payload fields. The exact
    // stamps travel, so a restored array is bit-for-bit the array that
    // was saved — same victims in the same order forever after.
    // -----------------------------------------------------------------

    /**
     * Write every valid way in flat way order (canonical): a count,
     * then per way its index, stamp, address and @p payload(w, line).
     */
    template <typename Fn>
    void
    encodeWays(WireWriter &w, Fn payload) const
    {
        w.varint(validCount());
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == invalidTag)
                continue;
            w.varint(i);
            w.u8(stamps_[i]);
            w.varint(tags_[i]);
            payload(w, lines_[i]);
        }
    }

    /**
     * Restore what encodeWays() wrote into this (empty) array, calling
     * @p payload(r, addr, line) to read each line's protocol fields.
     * @p name ("l1", "l2") prefixes every error.
     * @throws WireError on truncation, a way out of range or listed
     *         twice, a misaligned address, a block in the wrong set or
     *         present twice, or a stamp that is zero or repeats within
     *         its set.
     */
    template <typename Fn>
    void
    decodeWays(WireReader &r, const char *name, Fn payload)
    {
        const std::string n(name);
        const auto fail = [&](const std::string &what) {
            throw WireError(n + " " + what);
        };
        const std::uint64_t count = r.varint((n + " line count").c_str());
        if (count > tags_.size()) {
            fail("line count " + std::to_string(count) +
                 " exceeds the array's " + std::to_string(tags_.size()) +
                 " ways");
        }
        const std::string way_field = n + " way index";
        const std::string stamp_field = n + " lru stamp";
        const std::string addr_field = n + " line address";
        for (std::uint64_t k = 0; k < count; ++k) {
            const std::uint64_t way = r.varint(way_field.c_str());
            const std::uint8_t stamp = r.u8(stamp_field.c_str());
            const Addr addr = r.varint(addr_field.c_str());
            if (way >= tags_.size())
                fail("way index out of range");
            const auto i = static_cast<std::size_t>(way);
            if (tags_[i] != invalidTag)
                fail("way listed twice");
            if (blockAlign(addr) != addr)
                fail("line address not block-aligned");
            const std::size_t base = setBase(addr);
            if (i < base || i >= base + params_.assoc)
                fail("line mapped to the wrong set");
            if (stamp == 0)
                fail("lru stamp 0 marks an invalid way");
            for (std::size_t j = base; j < base + params_.assoc; ++j) {
                if (tags_[j] == addr)
                    fail("block listed twice");
                if (stamps_[j] == stamp)
                    fail("lru stamps not distinct within a set");
            }
            tags_[i] = addr;
            stamps_[i] = stamp;
            lines_[i] = Line{};
            payload(r, addr, lines_[i]);
        }
    }

  private:
    /** Tag value of an unallocated way (never a block address: block
     *  addresses are block-aligned, all-ones is not). */
    static constexpr Addr invalidTag = ~Addr{0};
    static constexpr std::size_t notFound = ~std::size_t{0};
    static constexpr std::uint8_t maxStamp = 255;

    std::size_t
    setBase(Addr block_addr) const
    {
        const std::uint64_t idx = (block_addr >> blockShift_) & setMask_;
        return static_cast<std::size_t>(idx * params_.assoc);
    }

    /** Flat way index of @p ba in the set at @p base, or notFound.
     *  Tag-array scan only. */
    std::size_t
    indexOf(std::size_t base, Addr ba) const
    {
        const Addr *t = &tags_[base];
        if (params_.assoc == 4) {
            // The ubiquitous geometry (Table 1 L1 and L2 are both
            // 4-way): a fixed-trip probe the compiler fully unrolls
            // over one 32-byte tag group.
            if (t[0] == ba)
                return base;
            if (t[1] == ba)
                return base + 1;
            if (t[2] == ba)
                return base + 2;
            if (t[3] == ba)
                return base + 3;
            return notFound;
        }
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (t[w] == ba)
                return base + w;
        }
        return notFound;
    }

    /** The set's clock: its largest stamp (0 for an empty set). */
    std::uint8_t
    setClock(std::size_t base) const
    {
        const std::uint8_t *s = &stamps_[base];
        if (params_.assoc == 4)   // unrolled, like indexOf()
            return std::max(std::max(s[0], s[1]), std::max(s[2], s[3]));
        std::uint8_t clock = s[0];
        for (std::uint32_t w = 1; w < params_.assoc; ++w)
            clock = std::max(clock, s[w]);
        return clock;
    }

    /**
     * The stamp that makes way @p way of the set at @p base its most
     * recent, given the set's @p clock. At a full clock the set's
     * other valid ways are first renumbered 1..k in their current
     * order (k < assoc <= 255, so the result always fits).
     */
    std::uint8_t
    mruStamp(std::size_t base, std::uint32_t way, std::uint8_t clock)
    {
        if (clock == maxStamp)
            clock = renumber(base, way);
        return static_cast<std::uint8_t>(clock + 1);
    }

    /** Renumber the set's valid ways other than @p skip to 1..k,
     *  keeping their order; returns k. Rare: once per ~255 - assoc
     *  stamp bumps of one set. */
    std::uint8_t
    renumber(std::size_t base, std::uint32_t skip)
    {
        std::uint8_t *s = &stamps_[base];
        std::uint8_t rank[maxStamp] = {};
        std::uint8_t k = 0;
        for (std::uint32_t v = 0; v < params_.assoc; ++v) {
            if (v == skip || s[v] == 0)
                continue;
            std::uint8_t below = 0;
            for (std::uint32_t u = 0; u < params_.assoc; ++u) {
                if (u != skip && s[u] != 0 && s[u] < s[v])
                    ++below;
            }
            rank[v] = static_cast<std::uint8_t>(below + 1);
            ++k;
        }
        for (std::uint32_t v = 0; v < params_.assoc; ++v) {
            if (rank[v] != 0)
                s[v] = rank[v];
        }
        return k;
    }

    CacheParams params_;
    std::uint64_t numSets_;
    /** blockBytes and numSets are powers of two: index with
     *  shift/mask, never a runtime division. */
    unsigned blockShift_;
    std::uint64_t setMask_;
    /** Per way: block tag (invalidTag when empty), LRU stamp (0 when
     *  empty), protocol payload — parallel arrays, contiguous per
     *  set. */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> stamps_;
    std::vector<Line> lines_;
};

} // namespace tokensim

#endif // TOKENSIM_MEM_CACHE_HH
