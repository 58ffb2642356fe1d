/**
 * @file
 * Byte-level encoding primitives shared by every binary codec in the
 * tree: the sweep wire format (harness/wire), the warm-state snapshot
 * codec (harness/snapshot), the per-controller warm-state encoders in
 * proto/ and cpu/ that the snapshot codec composes, and the trace
 * format (workload/trace), which shares the varint and zigzag
 * primitives and keeps its own TraceError failure mode.
 *
 * Extracted from harness/wire so low-level units can serialize
 * themselves without depending on the harness (harness/system.hh
 * includes the protocol headers, so the include arrow must point this
 * way). harness/wire.hh re-exports everything here; existing callers
 * compile unchanged.
 *
 * Discipline (same as workload/trace.hh): little-endian throughout,
 * ULEB128 varints for counters, zigzag varints for signed ints,
 * doubles as raw IEEE-754 bit patterns, and a bounds-checked reader
 * where every malformed input class — short buffer, oversized varint,
 * non-0/1 bool, trailing garbage — throws a typed WireError naming
 * the field. The parser never reads out of bounds.
 */

#ifndef TOKENSIM_SIM_BYTES_HH
#define TOKENSIM_SIM_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tokensim {

/** Zigzag mapping: signed values of small magnitude get short codes. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** Appends @p v as a ULEB128 varint to a byte container. */
template <class Bytes>
void
putVarint(Bytes &out, std::uint64_t v)
{
    using Byte = typename Bytes::value_type;
    while (v >= 0x80) {
        out.push_back(
            static_cast<Byte>(static_cast<unsigned char>(v) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<Byte>(v));
}

/** How a varint read ended. */
enum class VarintStatus : std::uint8_t
{
    ok,
    truncated,   ///< the buffer ended mid-varint
    overflow,    ///< the varint can never terminate within 64 bits
};

/**
 * The one ULEB128 read loop: decodes the varint at @p p [@p pos,
 * @p size) into @p v and advances @p pos past it. On any status but
 * ok, @p pos is unchanged and @p v unspecified; each caller maps the
 * status to its own failure mode (a typed error, or "incomplete: wait
 * for more bytes").
 */
inline VarintStatus
getVarint(const unsigned char *p, std::size_t size, std::size_t &pos,
          std::uint64_t &v)
{
    v = 0;
    // A local cursor: @p pos often aliases the caller's member, which
    // would otherwise be stored and reloaded on every byte.
    std::size_t at = pos;
    for (int shift = 0;; shift += 7) {
        if (at >= size)
            return VarintStatus::truncated;
        const unsigned char b = p[at++];
        // Byte 10 carries at most bit 63; more payload — or an 11th
        // byte — cannot fit in 64 bits (and shifting by >= 64 would
        // be UB, so reject before it can happen).
        if (shift >= 63 && ((b & 0x7f) > 1 || (b & 0x80)))
            return VarintStatus::overflow;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            pos = at;
            return VarintStatus::ok;
        }
    }
}

/** FNV-1a 64 over @p bytes. Its offset basis is a digit short of the
 *  published 14695981039346656037; fingerprints on disk depend on it. */
std::uint64_t fnv1a(const std::string &bytes);

/** Any structural problem with a wire buffer or frame. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &what)
        : std::runtime_error("wire: " + what)
    {}
};

/** Appends primitives to a growing buffer (the inverse of WireReader). */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void varint(std::uint64_t v);
    /** Zigzag-coded signed varint. */
    void svarint(std::int64_t v);
    /** Raw IEEE-754 bit pattern, 8 bytes little-endian. */
    void f64(double v);
    /** varint length + bytes. */
    void str(const std::string &s);
    void raw(const void *data, std::size_t size);

    const std::string &buffer() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/**
 * Bounds-checked cursor over a serialized buffer. Every read names
 * what it was reading so truncation errors localize the field.
 */
class WireReader
{
  public:
    WireReader(const void *data, std::size_t size)
        : p_(static_cast<const unsigned char *>(data)), size_(size)
    {}
    explicit WireReader(const std::string &buf)
        : WireReader(buf.data(), buf.size())
    {}

    std::uint8_t u8(const char *what);
    /** Strict: only 0 and 1 are valid encodings. */
    bool boolean(const char *what);
    std::uint64_t varint(const char *what);
    std::int64_t svarint(const char *what);
    double f64(const char *what);
    std::string str(const char *what);
    void raw(void *dst, std::size_t size, const char *what);

    std::size_t remaining() const { return size_ - pos_; }

    /** Bytes consumed so far (for callers resuming an outer cursor). */
    std::size_t consumed() const { return pos_; }

    /** @throws WireError if any bytes remain unconsumed. */
    void expectEnd(const char *what) const;

  private:
    const unsigned char *p_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * Marks the end of each struct encoding. A decode that lands anywhere
 * but on this byte means the two sides disagree about the layout —
 * report it as a version skew rather than whatever field error the
 * misparse would otherwise stumble into next.
 */
constexpr std::uint8_t kStructEnd = 0x5a;

void putStructEnd(WireWriter &w);

/** @throws WireError naming @p what if the sentinel byte is absent. */
void checkStructEnd(WireReader &r, const char *what);

} // namespace tokensim

#endif // TOKENSIM_SIM_BYTES_HH
