#include "harness/wire.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

namespace tokensim {

// WireWriter / WireReader / struct-end sentinel moved to sim/bytes.cc.

// ---------------------------------------------------------------------
// Struct encodings, derived from the field tables
// (harness/config_fields.hh): one put/get pair walks any config value,
// dispatching on the field type.
// ---------------------------------------------------------------------

namespace {

using Blob = std::shared_ptr<const std::string>;

template <class T>
constexpr bool isList = false;
template <class T>
constexpr bool isList<std::vector<T>> = true;

/** Structs that end with the struct-end sentinel. */
template <class T>
constexpr bool isFramed = std::is_same_v<T, WorkloadSpec> ||
    std::is_same_v<T, SystemConfig> || std::is_same_v<T, ExperimentSpec>;

/**
 * Encodes @p v, held by a field tagged @p tag (a root value counts as
 * Bind::shape), keeping only what binds at least as tightly as
 * @p loosest; Bind::free keeps everything, which is the wire encoding.
 */
template <class T>
void
put(WireWriter &w, const T &v, Bind loosest = Bind::free,
    Bind tag = Bind::shape)
{
    if (tag > loosest)
        return;
    if constexpr (std::is_same_v<T, bool>) {
        w.boolean(v);
    } else if constexpr (std::is_same_v<T, int>) {
        w.svarint(v);
    } else if constexpr (std::is_unsigned_v<T>) {
        w.varint(v);
    } else if constexpr (std::is_same_v<T, double>) {
        w.f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        w.str(v);
    } else if constexpr (std::is_same_v<T, ProtocolKind>) {
        w.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, Blob>) {
        static const std::string none;   // absent == empty on the wire
        w.str(v ? *v : none);
    } else if constexpr (isList<T>) {
        w.varint(v.size());
        for (const auto &e : v)
            put(w, e, loosest, tag);
    } else {
        visitFields(v, [&](const char *, Bind b, const auto &f) {
            put(w, f, loosest, std::max(tag, b));
        });
        if constexpr (isFramed<T>)
            putStructEnd(w);
    }
}

[[noreturn]] void
outOfRange(const char *what, const std::string &value)
{
    throw WireError(std::string(what) + ": " + value +
                    " out of range for its field type");
}

/** Decodes @p v, naming its fields "<what>.<field>" in errors. */
template <class T>
void
get(WireReader &r, const char *what, T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        v = r.boolean(what);
    } else if constexpr (std::is_same_v<T, int>) {
        const std::int64_t x = r.svarint(what);
        if (x < std::numeric_limits<int>::min() ||
            x > std::numeric_limits<int>::max())
            outOfRange(what, std::to_string(x));
        v = static_cast<int>(x);
    } else if constexpr (std::is_unsigned_v<T>) {
        const std::uint64_t x = r.varint(what);
        if constexpr (sizeof(T) < sizeof x) {
            if (x > std::numeric_limits<T>::max())
                outOfRange(what, std::to_string(x));
        }
        v = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, double>) {
        v = r.f64(what);
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = r.str(what);
    } else if constexpr (std::is_same_v<T, ProtocolKind>) {
        const std::uint8_t b = r.u8(what);
        if (b > static_cast<std::uint8_t>(ProtocolKind::tokenNull))
            outOfRange(what, "byte " + std::to_string(b));
        v = static_cast<ProtocolKind>(b);
    } else if constexpr (std::is_same_v<T, Blob>) {
        std::string bytes = r.str(what);
        if (!bytes.empty())
            v = std::make_shared<const std::string>(std::move(bytes));
    } else if constexpr (isList<T>) {   // the tenant list
        const std::uint64_t n = r.varint(what);
        if (n > maxWireTenants) {
            throw WireError(std::string(what) + ": count " +
                            std::to_string(n) + " exceeds limit " +
                            std::to_string(maxWireTenants));
        }
        v.resize(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::string elem =
                std::string(what) + "[" + std::to_string(i) + "]";
            get(r, elem.c_str(), v[i]);
        }
    } else {
        visitFields(v, [&](const char *name, Bind, auto &f) {
            const std::string field =
                *what ? std::string(what) + "." + name : name;
            get(r, field.c_str(), f);
        });
        if constexpr (isFramed<T>)
            checkStructEnd(r, *what ? what : "struct");
    }
}

template <class T>
std::string
encoded(const T &v, Bind loosest = Bind::free)
{
    WireWriter w;
    put(w, v, loosest);
    return w.take();
}

void
rejectCustomFactory(const SystemConfig &cfg)
{
    if (cfg.workloadFactory) {
        throw WireError("cannot serialize a SystemConfig with a "
                        "custom workloadFactory (a std::function "
                        "does not cross a process boundary)");
    }
}

} // namespace

bool
operator==(const WorkloadSpec &a, const WorkloadSpec &b)
{
    return encoded(a) == encoded(b);
}

bool
operator==(const TenantSpec &a, const TenantSpec &b)
{
    return encoded(a) == encoded(b);
}

std::string
encodeBoundFields(const SystemConfig &cfg, Bind loosest)
{
    return encoded(cfg, loosest);
}

void
encodeSystemConfig(WireWriter &w, const SystemConfig &cfg)
{
    rejectCustomFactory(cfg);
    put(w, cfg);
}

SystemConfig
decodeSystemConfig(WireReader &r)
{
    SystemConfig cfg;
    get(r, "", cfg);
    return cfg;
}

void
encodeExperimentSpec(WireWriter &w, const ExperimentSpec &spec)
{
    rejectCustomFactory(spec.cfg);
    put(w, spec);
}

ExperimentSpec
decodeExperimentSpec(WireReader &r)
{
    ExperimentSpec spec;
    get(r, "", spec);
    return spec;
}

void
encodeMetrics(WireWriter &w, const MetricRegistry &metrics)
{
    w.varint(metrics.size());
    for (const Metric &m : metrics.all()) {
        w.str(m.name);
        w.u8(static_cast<std::uint8_t>(m.kind));
        w.boolean(m.pinned);
        switch (m.kind) {
          case MetricKind::counter:
            w.varint(m.value);
            break;
          case MetricKind::stat: {
            const RunningStat::Snapshot s = m.stat.snapshot();
            w.varint(s.count);
            w.f64(s.mean);
            w.f64(s.m2);
            w.f64(s.min);
            w.f64(s.max);
            break;
          }
          case MetricKind::histogram:
            w.varint(m.hist.buckets().size());
            for (const auto &[bucket, count] : m.hist.buckets()) {
                w.varint(static_cast<std::uint64_t>(bucket));
                w.varint(count);
            }
            break;
        }
    }
    putStructEnd(w);
}

MetricRegistry
decodeMetrics(WireReader &r)
{
    MetricRegistry metrics;
    const std::uint64_t count = r.varint("metric count");
    if (count > maxWireMetrics) {
        throw WireError("metric count " + std::to_string(count) +
                        " exceeds the cap");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::string name = r.str("metric name");
        if (name.empty())
            throw WireError("empty metric name");
        if (metrics.find(name))
            throw WireError("duplicate metric name: " + name);
        const std::uint8_t kind_byte = r.u8("metric kind");
        if (kind_byte >
            static_cast<std::uint8_t>(MetricKind::histogram)) {
            throw WireError("metric kind byte " +
                            std::to_string(kind_byte) +
                            " out of range");
        }
        const bool pinned = r.boolean("metric pinned flag");
        switch (static_cast<MetricKind>(kind_byte)) {
          case MetricKind::counter:
            metrics.addCounter(name, pinned,
                               r.varint("counter value"));
            break;
          case MetricKind::stat: {
            RunningStat::Snapshot s;
            s.count = r.varint("stat count");
            s.mean = r.f64("stat mean");
            s.m2 = r.f64("stat m2");
            s.min = r.f64("stat min");
            s.max = r.f64("stat max");
            metrics.addStat(name, pinned,
                            RunningStat::fromSnapshot(s));
            break;
          }
          case MetricKind::histogram: {
            const std::uint64_t nbuckets =
                r.varint("histogram bucket count");
            if (nbuckets >
                static_cast<std::uint64_t>(LogHistogram::kMaxBucket) +
                    1) {
                throw WireError("histogram bucket count " +
                                std::to_string(nbuckets) +
                                " exceeds the bucket range");
            }
            LogHistogram h;
            std::int64_t prev = -1;
            for (std::uint64_t b = 0; b < nbuckets; ++b) {
                const std::uint64_t idx =
                    r.varint("histogram bucket index");
                if (idx > static_cast<std::uint64_t>(
                              LogHistogram::kMaxBucket) ||
                    static_cast<std::int64_t>(idx) <= prev) {
                    throw WireError(
                        "histogram bucket indices must be strictly "
                        "ascending and within range");
                }
                prev = static_cast<std::int64_t>(idx);
                const std::uint64_t n =
                    r.varint("histogram bucket value");
                if (n == 0) {
                    throw WireError(
                        "histogram holds an empty bucket (encoding "
                        "is not canonical)");
                }
                h.addCount(static_cast<std::int32_t>(idx), n);
            }
            metrics.addHistogram(name, pinned, h);
            break;
          }
        }
    }
    checkStructEnd(r, "metric registry");
    return metrics;
}

void
encodeResults(WireWriter &w, const System::Results &res)
{
    encodeMetrics(w, res.metrics);
}

System::Results
decodeResults(WireReader &r)
{
    System::Results res;
    res.metrics = decodeMetrics(r);
    return res;
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

void
appendFrame(std::string &out, FrameType type,
            const std::string &payload)
{
    if (payload.size() > maxFramePayload)
        throw WireError("frame payload too large to send");
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(type));
    w.varint(payload.size());
    out += w.buffer();
    out += payload;
}

namespace {

/**
 * Reads the length varint of a streamed frame or record at @p at.
 * Returns false if the buffer ends inside it (incomplete: wait for
 * more bytes); a varint that can never terminate validly, or a length
 * past maxFramePayload, throws — the sender is broken, not slow.
 */
bool
tryReadLength(const std::string &buf, std::size_t &at, std::uint64_t &len,
              const char *what)
{
    switch (getVarint(reinterpret_cast<const unsigned char *>(buf.data()),
                      buf.size(), at, len)) {
      case VarintStatus::ok:
        break;
      case VarintStatus::truncated:
        return false;
      case VarintStatus::overflow:
        throw WireError(std::string(what) +
                        " length varint overflows 64 bits");
    }
    if (len > maxFramePayload) {
        throw WireError(std::string(what) + " length " +
                        std::to_string(len) + " exceeds the cap");
    }
    return true;
}

} // namespace

bool
tryExtractFrame(const std::string &buf, std::size_t &pos, Frame &out)
{
    const std::size_t avail = buf.size() - pos;
    if (avail < 1)
        return false;
    const auto type_byte =
        static_cast<std::uint8_t>(static_cast<unsigned char>(buf[pos]));
    if (type_byte < static_cast<std::uint8_t>(FrameType::hello) ||
        type_byte > static_cast<std::uint8_t>(FrameType::error)) {
        throw WireError("unknown frame type " +
                        std::to_string(type_byte));
    }

    std::uint64_t len = 0;
    std::size_t at = pos + 1;
    if (!tryReadLength(buf, at, len, "frame payload") ||
        buf.size() - at < len)
        return false;
    out.type = static_cast<FrameType>(type_byte);
    out.payload.assign(buf, at, static_cast<std::size_t>(len));
    pos = at + static_cast<std::size_t>(len);
    return true;
}

std::string
encodeHelloPayload(const std::string &identity)
{
    if (identity.size() > maxHelloIdentity) {
        throw WireError("hello identity " +
                        std::to_string(identity.size()) +
                        " bytes exceeds the cap");
    }
    WireWriter w;
    w.raw(wireMagic, sizeof(wireMagic));
    w.varint(wireVersion);
    w.str(identity);
    return w.take();
}

HelloFrame
decodeHelloPayload(const std::string &payload)
{
    WireReader r(payload);
    char magic[sizeof(wireMagic)];
    r.raw(magic, sizeof(magic), "hello magic");
    if (std::memcmp(magic, wireMagic, sizeof(wireMagic)) != 0)
        throw WireError("bad magic (not a tokensim sweep worker)");
    HelloFrame hf;
    hf.version = r.varint("hello version");
    // Version before identity: a skewed peer's identity encoding may
    // itself be unparseable, and "version mismatch" is the error the
    // operator can act on.
    if (hf.version != wireVersion) {
        throw WireError("version mismatch: worker speaks " +
                        std::to_string(hf.version) +
                        ", parent speaks " +
                        std::to_string(wireVersion));
    }
    hf.identity = r.str("hello identity");
    if (hf.identity.size() > maxHelloIdentity)
        throw WireError("hello identity exceeds the cap");
    r.expectEnd("hello");
    return hf;
}

void
checkHelloPayload(const std::string &payload)
{
    (void)decodeHelloPayload(payload);
}

std::string
encodeJobPayload(std::uint64_t job_id, const SystemConfig &cfg,
                 std::uint64_t seed)
{
    WireWriter w;
    w.varint(job_id);
    encodeSystemConfig(w, cfg);
    w.varint(seed);
    return w.take();
}

JobFrame
decodeJobPayload(const std::string &payload)
{
    WireReader r(payload);
    JobFrame job;
    job.jobId = r.varint("job id");
    job.cfg = decodeSystemConfig(r);
    job.seed = r.varint("job seed");
    r.expectEnd("job frame");
    return job;
}

std::string
encodeResultPayload(std::uint64_t job_id, const System::Results &res)
{
    WireWriter w;
    w.varint(job_id);
    encodeResults(w, res);
    return w.take();
}

ResultFrame
decodeResultPayload(const std::string &payload)
{
    WireReader r(payload);
    ResultFrame rf;
    rf.jobId = r.varint("result job id");
    rf.results = decodeResults(r);
    r.expectEnd("result frame");
    return rf;
}

std::string
encodeErrorPayload(std::uint64_t job_id, const std::string &message)
{
    WireWriter w;
    w.varint(job_id);
    w.str(message);
    return w.take();
}

ErrorFrame
decodeErrorPayload(const std::string &payload)
{
    WireReader r(payload);
    ErrorFrame ef;
    ef.jobId = r.varint("error job id");
    ef.message = r.str("error message");
    r.expectEnd("error frame");
    return ef;
}

// ---------------------------------------------------------------------
// Checkpoint layer
// ---------------------------------------------------------------------

std::uint32_t
crc32(const void *data, std::size_t size)
{
    static const std::uint32_t *table = [] {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint64_t
sweepFingerprint(const std::vector<ExperimentSpec> &specs)
{
    WireWriter w;
    w.varint(wireVersion);
    w.varint(specs.size());
    for (const ExperimentSpec &s : specs)
        encodeExperimentSpec(w, s);
    return fnv1a(w.buffer());
}

std::string
encodeCheckpointHeader(std::uint64_t fingerprint,
                       std::uint64_t total_shards)
{
    WireWriter w;
    w.raw(checkpointMagic, sizeof(checkpointMagic));
    w.varint(wireVersion);
    // Fixed 8 little-endian bytes: a fingerprint is an opaque bit
    // pattern, and a fixed width keeps it legible in a hex dump.
    for (int i = 0; i < 8; ++i)
        w.u8(static_cast<std::uint8_t>((fingerprint >> (8 * i)) &
                                       0xff));
    w.varint(total_shards);
    return w.take();
}

CheckpointHeader
decodeCheckpointHeader(const std::string &buf, std::size_t &pos)
{
    WireReader r(buf.data() + pos, buf.size() - pos);
    CheckpointHeader h;
    try {
        char magic[sizeof(checkpointMagic)];
        r.raw(magic, sizeof(magic), "checkpoint magic");
        if (std::memcmp(magic, checkpointMagic, sizeof(magic)) != 0) {
            throw CheckpointError(
                "not a tokensim sweep checkpoint (bad magic)");
        }
        const std::uint64_t ver = r.varint("checkpoint wire version");
        if (ver != wireVersion) {
            throw CheckpointError(
                "written by wire version " + std::to_string(ver) +
                ", this build speaks " + std::to_string(wireVersion) +
                " (delete the file to start over)");
        }
        std::uint64_t fp = 0;
        for (int i = 0; i < 8; ++i) {
            fp |= static_cast<std::uint64_t>(
                      r.u8("checkpoint fingerprint"))
                  << (8 * i);
        }
        h.fingerprint = fp;
        h.totalShards = r.varint("checkpoint shard count");
    } catch (const CheckpointError &) {
        throw;
    } catch (const WireError &e) {
        throw CheckpointError(std::string("corrupt header: ") +
                              e.what());
    }
    pos += r.consumed();
    return h;
}

std::string
encodeCheckpointRecord(std::uint64_t spec, std::uint64_t seed,
                       const System::Results &res)
{
    WireWriter p;
    p.varint(spec);
    p.varint(seed);
    encodeResults(p, res);
    const std::string &payload = p.buffer();
    if (payload.size() > maxFramePayload)
        throw WireError("checkpoint record too large to write");

    WireWriter w;
    w.varint(payload.size());
    w.raw(payload.data(), payload.size());
    const std::uint32_t c = crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
        w.u8(static_cast<std::uint8_t>((c >> (8 * i)) & 0xff));
    return w.take();
}

bool
tryExtractCheckpointRecord(const std::string &buf, std::size_t &pos,
                           CheckpointRecord &out)
{
    std::uint64_t len = 0;
    std::size_t at = pos;
    if (!tryReadLength(buf, at, len, "checkpoint record") ||
        buf.size() - at < len + 4)
        return false;   // length, payload or CRC incomplete: torn tail

    const char *payload = buf.data() + at;
    const auto plen = static_cast<std::size_t>(len);
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
        stored |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                      payload[plen + i]))
                  << (8 * i);
    }
    if (crc32(payload, plen) != stored)
        throw WireError("checkpoint record CRC mismatch");

    WireReader r(payload, plen);
    out.spec = r.varint("checkpoint record spec index");
    out.seed = r.varint("checkpoint record seed");
    out.results = decodeResults(r);
    r.expectEnd("checkpoint record");
    pos = at + plen + 4;
    return true;
}

} // namespace tokensim
