#include "workload/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "sim/bytes.hh"

namespace tokensim {

namespace {

constexpr char kMagic[8] = {'T', 'O', 'K', 'T', 'R', 'A', 'C', 'E'};

constexpr unsigned char kFlagStore = 1u << 0;
constexpr unsigned char kFlagEndsTransaction = 1u << 1;
constexpr unsigned char kFlagReservedMask =
    static_cast<unsigned char>(~(kFlagStore | kFlagEndsTransaction));

/**
 * Bounds-checked little-endian cursor over a serialized trace. Every
 * primitive read verifies the remaining size first, so a truncated or
 * corrupted buffer surfaces as TraceError, never as an out-of-bounds
 * read.
 */
struct Cursor
{
    const unsigned char *p;
    std::size_t size;
    std::size_t pos = 0;

    void
    need(std::size_t n, const char *what) const
    {
        if (size - pos < n) {
            throw TraceError(std::string("truncated while reading ") +
                             what);
        }
    }

    void
    bytes(void *dst, std::size_t n, const char *what)
    {
        need(n, what);
        std::memcpy(dst, p + pos, n);
        pos += n;
    }

    std::uint16_t
    u16(const char *what)
    {
        need(2, what);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(p[pos + i]) << (8 * i);
        pos += 2;
        return v;
    }

    std::uint32_t
    u32(const char *what)
    {
        need(4, what);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64(const char *what)
    {
        need(8, what);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }
};

void
putU16(std::string &out, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** ULEB128 decode of @p p [@p pos, @p size); failures are TraceErrors. */
std::uint64_t
traceVarint(const unsigned char *p, std::size_t size, std::size_t &pos)
{
    std::uint64_t v = 0;
    switch (getVarint(p, size, pos, v)) {
      case VarintStatus::ok:
        break;
      case VarintStatus::truncated:
        throw TraceError("stream truncated mid-varint");
      case VarintStatus::overflow:
        throw TraceError("varint overflows 64 bits");
    }
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// TraceData
// ---------------------------------------------------------------------

TraceData
TraceData::parse(const void *data, std::size_t size)
{
    Cursor c{static_cast<const unsigned char *>(data), size};

    char magic[8];
    c.bytes(magic, sizeof(magic), "magic");
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw TraceError("bad magic (not a tokensim trace)");

    const std::uint32_t ver = c.u32("version");
    if (ver != version) {
        throw TraceError("unsupported version " + std::to_string(ver) +
                         " (expected " + std::to_string(version) + ")");
    }

    TraceData t;
    t.header_.numNodes = c.u32("node count");
    if (t.header_.numNodes == 0)
        throw TraceError("node count is zero");
    t.header_.blockBytes = c.u32("block size");
    t.header_.seed = c.u64("seed");
    t.header_.warmupOpsPerProcessor = c.u64("warmup ops");

    const std::uint16_t plen = c.u16("provenance length");
    c.need(plen, "provenance");
    t.header_.provenance.assign(
        reinterpret_cast<const char *>(c.p + c.pos), plen);
    c.pos += plen;

    const std::size_t n = t.header_.numNodes;
    t.opsPerNode_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        t.opsPerNode_[i] = c.u64("op counts");
    std::vector<std::uint64_t> streamBytes(n);
    for (std::size_t i = 0; i < n; ++i)
        streamBytes[i] = c.u64("stream sizes");

    t.streams_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.need(streamBytes[i], "stream body");
        t.streams_[i].assign(c.p + c.pos,
                             c.p + c.pos + streamBytes[i]);
        c.pos += streamBytes[i];
    }
    if (c.pos != size)
        throw TraceError("trailing garbage after last stream");

    // Validate every stream decodes to exactly the advertised op
    // count; afterwards Reader::next() can never fault on in-bounds
    // traces, and a truncation inside the body is caught here rather
    // than mid-simulation.
    for (std::size_t i = 0; i < n; ++i) {
        Reader r(t, static_cast<NodeId>(i));
        for (std::uint64_t k = 0; k < t.opsPerNode_[i]; ++k)
            r.next();
    }
    return t;
}

std::shared_ptr<const TraceData>
TraceData::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw TraceError("cannot open '" + path + "' for reading");
    std::string buf;
    char chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.append(chunk, got);
    const bool read_error = std::ferror(f);
    std::fclose(f);
    if (read_error)
        throw TraceError("I/O error reading '" + path + "'");
    return std::make_shared<const TraceData>(
        parse(buf.data(), buf.size()));
}

namespace {

/** The loadCached intern table and its lock. */
struct TraceCache
{
    std::mutex lock;
    std::unordered_map<std::string, std::shared_ptr<const TraceData>>
        entries;

    static TraceCache &
    instance()
    {
        static TraceCache c;
        return c;
    }
};

} // namespace

std::shared_ptr<const TraceData>
TraceData::loadCached(const std::string &path)
{
    TraceCache &c = TraceCache::instance();
    {
        std::lock_guard<std::mutex> g(c.lock);
        auto it = c.entries.find(path);
        if (it != c.entries.end())
            return it->second;
    }
    std::shared_ptr<const TraceData> t = load(path);
    std::lock_guard<std::mutex> g(c.lock);
    auto [it, inserted] = c.entries.emplace(path, std::move(t));
    // A racing loader may have beaten us; both parsed the same file.
    return it->second;
}

void
TraceData::invalidateCached(const std::string &path)
{
    TraceCache &c = TraceCache::instance();
    std::lock_guard<std::mutex> g(c.lock);
    c.entries.erase(path);
}

std::uint64_t
TraceData::minOpsPerNode() const
{
    std::uint64_t m = opsPerNode_.empty() ? 0 : opsPerNode_[0];
    for (std::uint64_t c : opsPerNode_)
        m = std::min(m, c);
    return m;
}

std::uint64_t
TraceData::totalOps() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : opsPerNode_)
        total += c;
    return total;
}

TraceData::Reader::Reader(const TraceData &trace, NodeId node)
{
    if (node >= trace.header_.numNodes) {
        throw TraceError("node " + std::to_string(node) +
                         " out of range (trace has " +
                         std::to_string(trace.header_.numNodes) +
                         " nodes)");
    }
    base_ = trace.streams_[node].data();
    size_ = trace.streams_[node].size();
    count_ = trace.opsPerNode_[node];
}

WorkloadOp
TraceData::Reader::next()
{
    if (done())
        throw TraceError("read past end of stream");
    if (pos_ >= size_)
        throw TraceError("stream shorter than advertised op count");
    const unsigned char flags = base_[pos_++];
    if (flags & kFlagReservedMask)
        throw TraceError("reserved flag bits set (corrupt stream?)");
    const std::int64_t delta =
        unzigzag(traceVarint(base_, size_, pos_));

    WorkloadOp op;
    op.op = (flags & kFlagStore) ? MemOp::store : MemOp::load;
    op.endsTransaction = (flags & kFlagEndsTransaction) != 0;
    op.addr = prevAddr_ + static_cast<Addr>(delta);
    prevAddr_ = op.addr;
    ++returned_;
    return op;
}

void
TraceData::Reader::rewind()
{
    pos_ = 0;
    returned_ = 0;
    prevAddr_ = 0;
}

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

TraceWriter::TraceWriter(TraceHeader header)
    : header_(std::move(header)),
      opsPerNode_(header_.numNodes, 0),
      streams_(header_.numNodes),
      prevAddr_(header_.numNodes, 0)
{
    if (header_.numNodes == 0)
        throw TraceError("cannot record a zero-node trace");
    if (header_.provenance.size() > 0xffff)
        throw TraceError("provenance string too long");
}

void
TraceWriter::append(NodeId node, const WorkloadOp &op)
{
    std::vector<unsigned char> &s = streams_.at(node);
    unsigned char flags = 0;
    if (op.op == MemOp::store)
        flags |= kFlagStore;
    if (op.endsTransaction)
        flags |= kFlagEndsTransaction;
    s.push_back(flags);
    const std::int64_t delta = static_cast<std::int64_t>(
        op.addr - prevAddr_[node]);
    putVarint(s, zigzag(delta));
    prevAddr_[node] = op.addr;
    ++opsPerNode_[node];
}

std::string
TraceWriter::serialize() const
{
    std::string out;
    std::size_t body = 0;
    for (const auto &s : streams_)
        body += s.size();
    out.reserve(64 + header_.provenance.size() +
                16 * streams_.size() + body);

    out.append(kMagic, sizeof(kMagic));
    putU32(out, TraceData::version);
    putU32(out, header_.numNodes);
    putU32(out, header_.blockBytes);
    putU64(out, header_.seed);
    putU64(out, header_.warmupOpsPerProcessor);
    putU16(out, static_cast<std::uint16_t>(header_.provenance.size()));
    out.append(header_.provenance);
    for (std::uint64_t c : opsPerNode_)
        putU64(out, c);
    for (const auto &s : streams_)
        putU64(out, s.size());
    for (const auto &s : streams_)
        out.append(reinterpret_cast<const char *>(s.data()), s.size());
    return out;
}

void
TraceWriter::writeFile(const std::string &path) const
{
    // The file is about to change; a stale interned parse of the old
    // contents must not outlive it.
    TraceData::invalidateCached(path);
    const std::string buf = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw TraceError("cannot open '" + path + "' for writing");
    const std::size_t wrote = std::fwrite(buf.data(), 1, buf.size(), f);
    const bool ok = wrote == buf.size() && std::fclose(f) == 0;
    if (!ok) {
        if (wrote != buf.size())
            std::fclose(f);
        throw TraceError("short write to '" + path + "'");
    }
}

} // namespace tokensim
