/**
 * @file
 * Block -> node-set map, with two users.
 *
 * Token holders (exact): for every block, the set of caches whose L2
 * currently holds a line for it. Under token counting a line is
 * present exactly when it holds at least one token, so this is the
 * set of caches a transient request could possibly move tokens out
 * of. The System owns one map and the token caches keep it exact at
 * the few places a line appears or disappears (allocation, eviction,
 * freeing, snapshot restore, reset). Both engines then ask it instead
 * of probing every cache's tag array: the detailed engine to drop
 * no-op transient snoops at non-holders, the functional engine to
 * walk only the actual holders of a block.
 *
 * Directory sharers (possibly stale): each Directory home keeps its
 * blocks' sharer sets here. S lines drop silently, so a recorded
 * sharer may no longer hold the block; it still acknowledges an
 * invalidation.
 *
 * Storage: one open-addressed table (linear probing, backward-shift
 * deletion, so churn leaves no tombstones to grow the table) from
 * block address to a 32-bit value. A block held by one node stores
 * that node's id inline; wider sets spill to a pooled bitset row of
 * ceil(N/64) words, and collapse back inline when one id is left.
 * The table is empty until the first insert, so protocols that never
 * use it pay nothing.
 */

#ifndef TOKENSIM_MEM_HOLDER_MAP_HH
#define TOKENSIM_MEM_HOLDER_MAP_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace tokensim {

class HolderMap
{
  public:
    explicit HolderMap(int num_nodes)
        : words_((static_cast<std::size_t>(num_nodes) + 63) / 64)
    {}

    /** True if cache @p id holds block @p ba. */
    bool
    holds(Addr ba, NodeId id) const
    {
        const std::size_t i = lookup(ba);
        if (i == notFound)
            return false;
        const std::uint32_t v = slots_[i].val;
        if (!(v & rowBit))
            return v == id;
        return (row(v)[id >> 6] >> (id & 63)) & 1;
    }

    /** Record that cache @p id now holds @p ba (it must not yet). */
    void
    add(Addr ba, NodeId id)
    {
        [[maybe_unused]] const bool fresh = insert(ba, id);
        assert(fresh && "holder added twice");
    }

    /** Record @p id as a member of @p ba's set; false (and no change)
     *  if it already was. */
    bool
    insert(Addr ba, NodeId id)
    {
        assert(id < words_ * 64 && id < rowBit);
        const std::size_t i = findOrInsert(ba, id);
        if (i == notFound) {
            ++entries_;
            return true;   // new block, id stored inline
        }
        const std::uint32_t v = slots_[i].val;
        if (v & rowBit) {
            std::uint64_t &w = row(v)[id >> 6];
            const std::uint64_t bit = std::uint64_t{1} << (id & 63);
            if (w & bit)
                return false;
            w |= bit;
            ++entries_;
            return true;
        }
        if (v == id)
            return false;
        const std::uint32_t r = allocRow();
        std::uint64_t *bits = &rows_[r * words_];
        bits[v >> 6] |= std::uint64_t{1} << (v & 63);
        bits[id >> 6] |= std::uint64_t{1} << (id & 63);
        slots_[i].val = r | rowBit;
        ++entries_;
        return true;
    }

    /** Record that cache @p id no longer holds @p ba (it must). */
    void
    drop(Addr ba, NodeId id)
    {
        const std::size_t i = lookup(ba);
        assert(i != notFound && "drop of a block with no holders");
        assert(holds(ba, id) && "drop of a non-holder");
        --entries_;
        const std::uint32_t v = slots_[i].val;
        if (!(v & rowBit)) {
            eraseSlot(i);
            return;
        }
        std::uint64_t *bits = row(v);
        bits[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
        // Rows always hold two or more ids: collapse to inline when
        // only one is left.
        std::size_t set = 0;
        NodeId last = 0;
        for (std::size_t w = 0; w < words_ && set < 2; ++w) {
            if (bits[w]) {
                set += static_cast<std::size_t>(
                    __builtin_popcountll(bits[w]));
                last = static_cast<NodeId>(
                    w * 64 + static_cast<std::size_t>(
                                 __builtin_ctzll(bits[w])));
            }
        }
        if (set == 1) {
            freeRows_.push_back(v & ~rowBit);
            slots_[i].val = last;
        }
    }

    /**
     * Apply @p fn(id) to each holder of @p ba in ascending id order,
     * stopping early when @p fn returns false. The holder set is
     * copied first, so @p fn may add and drop holders of any block,
     * this one included; it sees the set as of the call.
     */
    template <typename Fn>
    void
    forEach(Addr ba, Fn &&fn) const
    {
        const std::size_t i = lookup(ba);
        if (i == notFound)
            return;
        const std::uint32_t v = slots_[i].val;
        if (!(v & rowBit)) {
            fn(static_cast<NodeId>(v));
            return;
        }
        constexpr std::size_t inlineWords = 16;   // 1024 nodes
        std::uint64_t local[inlineWords];
        std::vector<std::uint64_t> wide;
        std::uint64_t *copy = local;
        if (words_ > inlineWords) {
            wide.resize(words_);
            copy = wide.data();
        }
        std::copy_n(row(v), words_, copy);
        for (std::size_t w = 0; w < words_; ++w) {
            for (std::uint64_t bits = copy[w]; bits; bits &= bits - 1) {
                const auto id = static_cast<NodeId>(
                    w * 64 + static_cast<std::size_t>(
                                 __builtin_ctzll(bits)));
                if (!fn(id))
                    return;
            }
        }
    }

    /** Remove every id of @p ba's set (a no-op if it has none). */
    void
    dropAll(Addr ba)
    {
        const std::size_t i = lookup(ba);
        if (i == notFound)
            return;
        const std::uint32_t v = slots_[i].val;
        if (v & rowBit) {
            entries_ -= popcount(row(v));
            freeRows_.push_back(v & ~rowBit);
        } else {
            --entries_;
        }
        eraseSlot(i);
    }

    /** Number of ids in @p ba's set. */
    std::size_t
    count(Addr ba) const
    {
        const std::size_t i = lookup(ba);
        if (i == notFound)
            return 0;
        const std::uint32_t v = slots_[i].val;
        return (v & rowBit) ? popcount(row(v)) : 1;
    }

    /** Apply @p fn(ba) to every block with a non-empty set, in table
     *  order (sort before serializing). @p fn must not modify the
     *  map. */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (const Slot &sl : slots_) {
            if (sl.key != emptyKey)
                fn(sl.key);
        }
    }

    /** Blocks with at least one holder. */
    std::size_t blocks() const { return size_; }

    /** (block, holder) pairs: the number of L2 lines it mirrors. */
    std::size_t entries() const { return entries_; }

    /** Forget every holder, keeping the storage for reuse. */
    void
    clear()
    {
        for (Slot &sl : slots_)
            sl.key = emptyKey;
        rows_.clear();
        freeRows_.clear();
        size_ = 0;
        entries_ = 0;
    }

  private:
    static constexpr Addr emptyKey = ~Addr{0};
    static constexpr std::uint32_t rowBit = std::uint32_t{1} << 31;
    static constexpr std::size_t notFound = ~std::size_t{0};

    static std::size_t
    hashOf(Addr key)
    {
        std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        return static_cast<std::size_t>(h);
    }

    std::uint64_t *
    row(std::uint32_t v)
    {
        return &rows_[static_cast<std::size_t>(v & ~rowBit) * words_];
    }

    const std::uint64_t *
    row(std::uint32_t v) const
    {
        return &rows_[static_cast<std::size_t>(v & ~rowBit) * words_];
    }

    std::size_t
    popcount(const std::uint64_t *bits) const
    {
        std::size_t n = 0;
        for (std::size_t w = 0; w < words_; ++w)
            n += static_cast<std::size_t>(__builtin_popcountll(bits[w]));
        return n;
    }

    std::uint32_t
    allocRow()
    {
        if (!freeRows_.empty()) {
            const std::uint32_t r = freeRows_.back();
            freeRows_.pop_back();
            std::fill_n(&rows_[r * words_], words_, 0);
            return r;
        }
        const auto r = static_cast<std::uint32_t>(rows_.size() / words_);
        assert(r < rowBit);
        rows_.resize(rows_.size() + words_, 0);
        return r;
    }

    std::size_t
    lookup(Addr key) const
    {
        assert(key != emptyKey);
        if (slots_.empty())
            return notFound;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hashOf(key) & mask;; i = (i + 1) & mask) {
            if (slots_[i].key == key)
                return i;
            if (slots_[i].key == emptyKey)
                return notFound;
        }
    }

    /** Slot of @p key if present; else store (key, v) in one probe
     *  and return notFound. */
    std::size_t
    findOrInsert(Addr key, std::uint32_t v)
    {
        assert(key != emptyKey);
        // Grow at 3/4 load; with no tombstones the live count alone
        // sizes the table. (Checked before probing, so a present key
        // may trigger it one insert early.)
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hashOf(key) & mask;; i = (i + 1) & mask) {
            if (slots_[i].key == key)
                return i;
            if (slots_[i].key == emptyKey) {
                slots_[i].key = key;
                slots_[i].val = v;
                ++size_;
                return notFound;
            }
        }
    }

    /** Remove slot @p i, shifting later members of its probe run
     *  back so every remaining key stays reachable. */
    void
    eraseSlot(std::size_t i)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask; slots_[j].key != emptyKey;
             j = (j + 1) & mask) {
            const std::size_t home = hashOf(slots_[j].key) & mask;
            // Move j into the hole unless its home lies cyclically in
            // (hole, j]: then it is already as close as it can get.
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole].key = slots_[j].key;
                slots_[hole].val = slots_[j].val;
                hole = j;
            }
        }
        slots_[hole].key = emptyKey;
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? 1024 : slots_.size() * 2,
                              Slot{emptyKey, 0});
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &sl : old) {
            if (sl.key == emptyKey)
                continue;
            std::size_t i = hashOf(sl.key) & mask;
            while (slots_[i].key != emptyKey)
                i = (i + 1) & mask;
            slots_[i].key = sl.key;
            slots_[i].val = sl.val;
        }
    }

    /** Key and value share one 12-byte slot, so a probe that finds
     *  its block has its holders on the same cache line. */
    struct __attribute__((packed)) Slot
    {
        Addr key;
        std::uint32_t val;
    };
    static_assert(sizeof(Slot) == 12, "slot must pack to 12 bytes");

    std::size_t words_;
    std::vector<Slot> slots_;
    /** Pooled bitset rows, words_ words each; freeRows_ recycles. */
    std::vector<std::uint64_t> rows_;
    std::vector<std::uint32_t> freeRows_;
    std::size_t size_ = 0;
    std::size_t entries_ = 0;
};

} // namespace tokensim

#endif // TOKENSIM_MEM_HOLDER_MAP_HH
