#include "sim/bytes.hh"

#include <cstring>

namespace tokensim {

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;   // see bytes.hh
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;                  // FNV-1a 64 prime
    }
    return h;
}

// ---------------------------------------------------------------------
// WireWriter
// ---------------------------------------------------------------------

void
WireWriter::varint(std::uint64_t v)
{
    putVarint(out_, v);
}

void
WireWriter::svarint(std::int64_t v)
{
    varint(zigzag(v));
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "");
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        out_.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

void
WireWriter::str(const std::string &s)
{
    varint(s.size());
    out_.append(s);
}

void
WireWriter::raw(const void *data, std::size_t size)
{
    out_.append(static_cast<const char *>(data), size);
}

// ---------------------------------------------------------------------
// WireReader
// ---------------------------------------------------------------------

std::uint8_t
WireReader::u8(const char *what)
{
    if (remaining() < 1)
        throw WireError(std::string("truncated while reading ") + what);
    return p_[pos_++];
}

bool
WireReader::boolean(const char *what)
{
    const std::uint8_t v = u8(what);
    if (v > 1) {
        throw WireError(std::string(what) + ": invalid bool byte " +
                        std::to_string(v));
    }
    return v == 1;
}

std::uint64_t
WireReader::varint(const char *what)
{
    std::uint64_t v = 0;
    switch (getVarint(p_, size_, pos_, v)) {
      case VarintStatus::ok:
        break;
      case VarintStatus::truncated:
        throw WireError(std::string("truncated mid-varint in ") + what);
      case VarintStatus::overflow:
        throw WireError(std::string(what) +
                        ": varint overflows 64 bits");
    }
    return v;
}

std::int64_t
WireReader::svarint(const char *what)
{
    return unzigzag(varint(what));
}

double
WireReader::f64(const char *what)
{
    if (remaining() < 8)
        throw WireError(std::string("truncated while reading ") + what);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
    pos_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
WireReader::str(const char *what)
{
    const std::uint64_t len = varint(what);
    if (len > remaining()) {
        throw WireError(std::string(what) + ": string length " +
                        std::to_string(len) + " exceeds the " +
                        std::to_string(remaining()) +
                        " bytes remaining");
    }
    std::string s(reinterpret_cast<const char *>(p_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
}

void
WireReader::raw(void *dst, std::size_t size, const char *what)
{
    if (remaining() < size)
        throw WireError(std::string("truncated while reading ") + what);
    std::memcpy(dst, p_ + pos_, size);
    pos_ += size;
}

void
WireReader::expectEnd(const char *what) const
{
    if (pos_ != size_) {
        throw WireError(std::to_string(size_ - pos_) +
                        " trailing bytes after " + what);
    }
}

// ---------------------------------------------------------------------
// Struct-end sentinel
// ---------------------------------------------------------------------

void
putStructEnd(WireWriter &w)
{
    w.u8(kStructEnd);
}

void
checkStructEnd(WireReader &r, const char *what)
{
    if (r.u8(what) != kStructEnd) {
        throw WireError(std::string(what) +
                        ": layout mismatch (sender and receiver "
                        "disagree about the encoding — version skew?)");
    }
}

} // namespace tokensim
