/**
 * @file
 * Warm-state snapshots: serialize the architectural warm state of a
 * fast-forwarded System — L1/L2 contents with exact LRU state, token
 * counts, directory/owner records, written backing-store blocks — so
 * one (possibly expensive) functional warmup can seed every timing
 * config of a sweep that shares the same structural shape.
 *
 * The contract mirrors System::reset(): a snapshot binds to the
 * structure baked into the component graph (node count, topology,
 * protocol, cache geometry, token count, predictor size) plus the
 * operation streams (workload spec and seed) — because the saved
 * progress is "these exact per-node op streams, advanced warmOps ops
 * each". Timing knobs (network/DRAM latency, reissue policy,
 * controller latency, think time) are free: that axis is exactly what
 * a sweep varies, and reusing one warm snapshot across it is the
 * wall-clock win. The binding is enforced by a fingerprint in the
 * header over the Bind::shape and Bind::warm fields of the
 * SystemConfig table (harness/config_fields.hh); a mismatch is a
 * typed SnapshotError, never a silent misparse.
 *
 * Wire discipline is the repo standard (sim/bytes.hh): versioned,
 * bounds-checked, typed errors naming the field, struct-end sentinels,
 * fuzzable. Controller payloads are canonical (address-sorted,
 * semantically-default entries skipped), so equal warm state encodes
 * to equal bytes.
 *
 * Restoring a snapshot is bit-equivalent to performing the same
 * fast-forward in place: tests/test_sampling.cc pins
 * save+load+run == fastForward+run digests per protocol. That holds
 * because fast-forward draws nothing from any RNG and records no
 * statistics — the snapshot needs to carry only architectural state
 * plus the per-node request-id counters. Performance soft state
 * (destination predictors, soft-state directories, adaptation
 * windows, latency EWMAs) is deliberately cold in both paths; it
 * retrains within the first measurement windows, the same
 * approximation SMARTS makes for microarchitectural non-sampled
 * state.
 */

#ifndef TOKENSIM_HARNESS_SNAPSHOT_HH
#define TOKENSIM_HARNESS_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tokensim {

class System;
struct SystemConfig;

/**
 * A snapshot buffer that cannot be used with the System at hand: bad
 * magic or version, a shape-fingerprint mismatch, or a System in the
 * wrong lifecycle state (already run, recording a trace). Structural
 * corruption inside the payload throws WireError instead, like every
 * other codec in the tree.
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error("snapshot: " + what)
    {}
};

/** Snapshot file magic. */
constexpr char snapshotMagic[8] = {'T', 'O', 'K', 'S', 'N', 'A',
                                   'P', '1'};

/** Bumped on any change to the snapshot layout, the fingerprint, or
 *  any controller's warm-state encoding. */
// v2: the fingerprint hashes the shape and warm fields of the
//     SystemConfig table (harness/config_fields.hh).
// v3: cache ways carry 1-byte per-set LRU stamps and no use counter,
//     framed by CacheArray::encodeWays for every protocol.
constexpr std::uint8_t snapshotVersion = 3;

/**
 * FNV-1a fingerprint of everything a snapshot binds to (see file
 * comment): structural shape + workload spec + seed; timing knobs
 * excluded. @throws SnapshotError for a custom workloadFactory — a
 * std::function has no fingerprintable identity.
 */
std::uint64_t snapshotShapeFingerprint(const SystemConfig &cfg);

/** The validated fixed header of a snapshot buffer. */
struct SnapshotHeader
{
    std::uint64_t fingerprint = 0;
    std::uint64_t warmOps = 0;   ///< per-node ops the warmup consumed
    int numNodes = 0;
    std::uint8_t protocol = 0;   ///< ProtocolKind, informational
};

/**
 * Parse and validate the header (magic, version, node count) without
 * touching the body. @throws SnapshotError on wrong magic/version or a
 * node count outside int, WireError on truncation.
 */
SnapshotHeader peekSnapshotHeader(const std::string &bytes);

/**
 * Serialize @p sys's warm state. The System must be fast-forward-only
 * (built or reset, then System::fastForward — never run detailed):
 * that is what makes the state complete with nothing in flight.
 * @throws SnapshotError if the System has run detailed simulation,
 *         records a trace, or uses a custom workload factory;
 *         WireError if a controller is not quiescent.
 */
std::string saveWarmSnapshot(System &sys);

/**
 * Restore @p bytes into the freshly built (or reset) @p sys and adopt
 * the saved progress: sequencers account warmOps completed ops and
 * skip their workloads past them. System::run() calls this when
 * cfg.warmSnapshot is set.
 * @return the per-node warm op count adopted.
 * @throws SnapshotError on fingerprint/shape mismatch or a System
 *         that already ran; WireError on malformed payload bytes.
 */
std::uint64_t loadWarmSnapshot(System &sys, const std::string &bytes);

} // namespace tokensim

#endif // TOKENSIM_HARNESS_SNAPSHOT_HH
