/**
 * @file
 * Sweep wire format: a compact versioned binary encoding for the
 * objects the process-sharded sweep runner ships between the parent
 * and its worker subprocesses — ExperimentSpec / SystemConfig /
 * WorkloadSpec going down, raw System::Results coming back — plus the
 * length-prefixed frame layer the pipe protocol is built from.
 *
 * Same discipline as workload/trace.hh: little-endian throughout,
 * ULEB128 varints for counters, zigzag varints for signed ints,
 * doubles as raw IEEE-754 bit patterns (results must merge
 * bit-identically to an in-process run, so no text round-trip), and a
 * bounds-checked reader where every malformed input class — short
 * buffer, oversized varint, out-of-range enum, non-0/1 bool, trailing
 * garbage — throws a typed WireError naming the field. The parser
 * never reads out of bounds.
 *
 * ## Frame layer
 *
 * A stream is a sequence of frames:
 *
 *   u8      frame type (FrameType; anything else is an error)
 *   varint  payload length (capped at maxFramePayload)
 *   ...     payload bytes
 *
 * The conversation (harness/dist_runner.cc): the worker opens with a
 * `hello` frame (8-byte magic "TOKSWEEP" + varint version + a short
 * identity string naming the worker, e.g. "host:pid") so the parent
 * can reject a mismatched binary before shipping work — and, on a TCP
 * transport, reject a stranger that connected to the sweep port; the
 * parent sends `job` frames (varint job id, SystemConfig, varint
 * seed); the worker answers each with a `result` frame (varint job
 * id, System::Results) or an `error` frame (varint job id, message
 * string) and exits cleanly at EOF on its input. The same byte
 * stream runs unchanged over a pipe pair or a connected socket —
 * the transport is DistRunner's business, not the format's.
 *
 * Versioning: bump wireVersion whenever any encoded struct gains,
 * loses, or reorders a field (the config structs' layouts are their
 * field tables in harness/config_fields.hh). Struct payloads end with an
 * end-of-struct sentinel byte so a parent/worker skew inside one
 * version (a stale binary) is caught as a typed error instead of a
 * silent misparse.
 *
 * ## Checkpoint layer
 *
 * The same encoding doubles as DistRunner's crash-safe on-disk
 * checkpoint (--checkpoint): a header naming the sweep (magic,
 * wireVersion, a fingerprint hashed over the encoded spec list) is
 * written once via write-then-atomic-rename, then one CRC-framed
 * record — (spec index, seed, raw System::Results) — is appended as
 * each shard completes. A process killed mid-append leaves at worst a
 * torn trailing record, which the loader detects (short frame or CRC
 * mismatch) and drops; everything before it is intact, so a resumed
 * sweep re-runs only the lost shards and, because a shard's result
 * depends only on (spec, seed), merges bit-identically to an
 * uninterrupted run.
 */

#ifndef TOKENSIM_HARNESS_WIRE_HH
#define TOKENSIM_HARNESS_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "harness/config_fields.hh"
#include "harness/experiment.hh"
#include "sim/bytes.hh"

namespace tokensim {

// WireError / WireWriter / WireReader and the struct-end sentinel live
// in sim/bytes.hh (re-exported here) so proto/ and cpu/ warm-state
// codecs can use them without depending on the harness.

/** Bumped on any change to an encoded layout. */
// v2: System::Results became a named-metric registry; the per-field
//     Results encoding was replaced by the generic metric codec.
// v3: the hello payload gained a worker identity/host string (the
//     cross-host TCP transport needs to name who just connected).
// v4: SystemConfig gained the SMARTS sampling spec (ffOps,
//     measureOps, windows) and the warm-state snapshot payload.
// v5: WorkloadSpec gained the "ycsb"/"tpcc" transactional-preset
//     knobs; SystemConfig gained the multi-tenant group list
//     (per-tenant WorkloadSpec + node count).
constexpr std::uint32_t wireVersion = 5;

/** Stream magic carried by the hello frame. */
constexpr char wireMagic[8] = {'T', 'O', 'K', 'S', 'W', 'E', 'E', 'P'};

/** Hard cap on one frame's payload (a corrupt length must not OOM). */
constexpr std::uint64_t maxFramePayload = 1ull << 30;

/** Hard cap on a decoded tenant list (corrupt counts must not OOM). */
constexpr std::uint64_t maxWireTenants = 1 << 16;

// ---------------------------------------------------------------------
// Struct encodings: each struct's fields in the order of its table in
// harness/config_fields.hh, coded by type (int as svarint, uint32 and
// uint64 as varint, double as f64, ProtocolKind as a u8). Decoding
// validates enums and ranges: a value that does not fit its field's
// type is a WireError naming the field, never a silent narrowing.
// ---------------------------------------------------------------------

/**
 * @throws WireError if @p cfg carries a custom workloadFactory — a
 * std::function cannot cross a process boundary; DistRunner rejects
 * such specs up front with the same reasoning.
 */
void encodeSystemConfig(WireWriter &w, const SystemConfig &cfg);
SystemConfig decodeSystemConfig(WireReader &r);

void encodeExperimentSpec(WireWriter &w, const ExperimentSpec &spec);
ExperimentSpec decodeExperimentSpec(WireReader &r);

/**
 * Encodes only the fields of @p cfg that bind at least as tightly as
 * @p loosest: Bind::shape for System::reset(), Bind::warm for a
 * snapshot. A custom workloadFactory is in no table and never throws.
 */
std::string encodeBoundFields(const SystemConfig &cfg, Bind loosest);

/** A corrupt metric count must not OOM the decoder. */
constexpr std::uint64_t maxWireMetrics = 1 << 16;

/**
 * Generic metric-registry codec: one encoder/decoder pair covers
 * every metric kind, so a metric added in System::results() ships
 * with no wire change. Per metric: name, kind byte, pinned flag, then
 * a kind-specific payload (counter value / RunningStat snapshot /
 * occupied histogram buckets in strictly ascending order). Lossless:
 * every counter and double round-trips bit-exactly. The decoder
 * rejects empty or duplicate names, unknown kind bytes, out-of-order
 * or out-of-range histogram buckets, and zero bucket counts.
 */
void encodeMetrics(WireWriter &w, const MetricRegistry &metrics);
MetricRegistry decodeMetrics(WireReader &r);

/** Results are their metric registry on the wire. */
void encodeResults(WireWriter &w, const System::Results &res);
System::Results decodeResults(WireReader &r);

// ---------------------------------------------------------------------
// Frame layer.
// ---------------------------------------------------------------------

enum class FrameType : std::uint8_t
{
    hello = 1,   ///< worker -> parent: magic + version handshake
    job = 2,     ///< parent -> worker: (job id, SystemConfig, seed)
    result = 3,  ///< worker -> parent: (job id, System::Results)
    error = 4,   ///< worker -> parent: (job id, what()) — shard threw
};

/** One parsed frame (payload still encoded). */
struct Frame
{
    FrameType type = FrameType::hello;
    std::string payload;
};

/** Append a complete frame (header + payload) to @p out. */
void appendFrame(std::string &out, FrameType type,
                 const std::string &payload);

/**
 * Incremental frame parser for a streaming buffer. If @p buf starting
 * at @p pos holds one complete frame, fills @p out, advances @p pos
 * past it, and returns true; if the frame is merely incomplete (more
 * bytes pending on the pipe) returns false without consuming
 * anything. Structural corruption — unknown frame type, a length
 * varint that overflows or exceeds maxFramePayload — throws
 * WireError: the sender is broken, not slow.
 */
bool tryExtractFrame(const std::string &buf, std::size_t &pos,
                     Frame &out);

/**
 * Cap on the hello identity string: an identity is "host:pid"-sized,
 * so anything longer is a corrupt length, not a long hostname.
 */
constexpr std::uint64_t maxHelloIdentity = 256;

/** The parsed hello payload: version + who is speaking. */
struct HelloFrame
{
    std::uint64_t version = 0;
    std::string identity;   ///< e.g. "host:pid"; may be empty
};

/** The hello payload: magic + wireVersion + identity. */
std::string encodeHelloPayload(const std::string &identity = {});

/**
 * Validate magic and version (both typed errors — a version mismatch
 * names both versions so a skewed fleet is diagnosable), then the
 * identity (length-capped, no trailing bytes).
 */
HelloFrame decodeHelloPayload(const std::string &payload);

/** decodeHelloPayload with the identity discarded. */
void checkHelloPayload(const std::string &payload);

std::string encodeJobPayload(std::uint64_t job_id,
                             const SystemConfig &cfg,
                             std::uint64_t seed);

struct JobFrame
{
    std::uint64_t jobId = 0;
    SystemConfig cfg;
    std::uint64_t seed = 0;
};
JobFrame decodeJobPayload(const std::string &payload);

std::string encodeResultPayload(std::uint64_t job_id,
                                const System::Results &res);

struct ResultFrame
{
    std::uint64_t jobId = 0;
    System::Results results;
};
ResultFrame decodeResultPayload(const std::string &payload);

std::string encodeErrorPayload(std::uint64_t job_id,
                               const std::string &message);

struct ErrorFrame
{
    std::uint64_t jobId = 0;
    std::string message;
};
ErrorFrame decodeErrorPayload(const std::string &payload);

// ---------------------------------------------------------------------
// Checkpoint layer (see file comment). Codec only — the file I/O
// (atomic header creation, append, torn-tail truncation) lives in
// harness/dist_runner.cc.
// ---------------------------------------------------------------------

/**
 * A checkpoint file that cannot be used at all: bad magic, a
 * different wireVersion, or a header too corrupt to parse. Distinct
 * from a torn tail, which is tolerated and dropped silently.
 */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {}
};

/**
 * A structurally valid checkpoint recorded for a *different* sweep
 * (its fingerprint does not match the spec list being run). Resuming
 * would merge foreign results into the grid, so this is always fatal.
 */
class CheckpointMismatch : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/** Checkpoint file magic (distinct from the pipe-stream magic). */
constexpr char checkpointMagic[8] = {'T', 'O', 'K', 'C', 'K', 'P',
                                     'T', '1'};

/** CRC-32 (IEEE 802.3, reflected) over @p size bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * Order-sensitive FNV-1a hash over wireVersion plus the full encoded
 * spec list (configs, per-spec seed counts, labels). Two sweeps get
 * the same fingerprint only if every shard of one is a shard of the
 * other with the same meaning, which is exactly when resuming across
 * them is sound.
 * @throws WireError if a spec cannot be encoded (custom
 *         workloadFactory) — DistRunner rejects such sweeps anyway.
 */
std::uint64_t sweepFingerprint(const std::vector<ExperimentSpec> &specs);

struct CheckpointHeader
{
    std::uint64_t fingerprint = 0;
    std::uint64_t totalShards = 0;
};

std::string encodeCheckpointHeader(std::uint64_t fingerprint,
                                   std::uint64_t total_shards);

/**
 * Parse and validate the header at @p pos, advancing @p pos past it.
 * @throws CheckpointError on bad magic, wrong wireVersion, or a
 *         truncated header (a file that short has no usable records
 *         either). Fingerprint matching is the caller's job — only it
 *         knows the sweep being resumed.
 */
CheckpointHeader decodeCheckpointHeader(const std::string &buf,
                                        std::size_t &pos);

/** One completed shard restored from (or bound for) a checkpoint. */
struct CheckpointRecord
{
    std::uint64_t spec = 0;   ///< index into the sweep's spec list
    std::uint64_t seed = 0;   ///< 0-based seed offset within the spec
    System::Results results;
};

/**
 * One CRC-framed, append-safe record: varint payload length, payload
 * (spec, seed, encoded results), then the payload's CRC-32 as 4
 * little-endian bytes.
 */
std::string encodeCheckpointRecord(std::uint64_t spec,
                                   std::uint64_t seed,
                                   const System::Results &res);

/**
 * Incremental record parser, mirroring tryExtractFrame(): a complete,
 * CRC-clean record fills @p out and advances @p pos; an incomplete
 * trailing record returns false without consuming anything (the
 * torn-tail case a killed writer leaves behind). A record that is
 * complete but corrupt — CRC mismatch, undecodable payload, trailing
 * payload bytes — throws WireError; checkpoint loaders treat that
 * exactly like a torn tail (drop it and everything after), since an
 * append-only writer can only corrupt the end of the file.
 */
bool tryExtractCheckpointRecord(const std::string &buf,
                                std::size_t &pos,
                                CheckpointRecord &out);

} // namespace tokensim

#endif // TOKENSIM_HARNESS_WIRE_HH
