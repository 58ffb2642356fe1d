/**
 * @file
 * One field table per wire-coded config struct: WorkloadSpec,
 * TenantSpec, CacheParams, SystemConfig (which flattens
 * ProtocolParams, NetworkParams, SequencerParams, DramParams and
 * SamplingSpec) and ExperimentSpec. Each table names every field of
 * its struct once, in wire order, with its decode-error name and what
 * it binds. The wire codec (harness/wire.cc) walks these tables, and
 * so derives WorkloadSpec / TenantSpec equality (equal encodings),
 * System::reset()'s shape check (the Bind::shape fields) and the
 * snapshot fingerprint (the shape and warm fields).
 *
 * A new field goes into its struct's table (at the end, unless the
 * layout is meant to change) with wireVersion bumped, and
 * snapshotVersion too if it binds a snapshot.
 * SystemConfig::workloadFactory is in no table: a std::function does
 * not serialize.
 */

#ifndef TOKENSIM_HARNESS_CONFIG_FIELDS_HH
#define TOKENSIM_HARNESS_CONFIG_FIELDS_HH

#include <cstdint>
#include <type_traits>

#include "harness/experiment.hh"

namespace tokensim {

/**
 * What a field binds, tightest first. A field of a nested struct
 * binds as the looser of its own tag and the tag of the field holding
 * the struct.
 */
enum class Bind : std::uint8_t
{
    shape,   ///< baked into a built System: reset() refuses a change
    warm,    ///< defines the op streams: binds a snapshot, not a reset
    free,    ///< timing and runtime knobs: binds neither
};

/** Enables a visitFields overload for S = T and S = const T. */
template <class S, class T>
using IfFieldsOf = std::enable_if_t<std::is_same_v<std::remove_const_t<S>, T>>;

/**
 * Calls v(name, bind, field) for each field of @p s, in wire order.
 * One overload per struct; each takes the struct const or mutable.
 */
template <class S, class V>
IfFieldsOf<S, WorkloadSpec>
visitFields(S &s, V &&v)
{
    v("preset", Bind::warm, s.preset);
    v("tracePath", Bind::warm, s.tracePath);
    v("uniformBlocks", Bind::warm, s.uniformBlocks);
    v("storeFraction", Bind::warm, s.storeFraction);
    v("prodConsBlocks", Bind::warm, s.prodConsBlocks);
    v("lockBlocks", Bind::warm, s.lockBlocks);
    v("sectionOps", Bind::warm, s.sectionOps);
    v("ycsbRecords", Bind::warm, s.ycsbRecords);
    v("ycsbTheta", Bind::warm, s.ycsbTheta);
    v("ycsbReadFraction", Bind::warm, s.ycsbReadFraction);
    v("ycsbUpdateFraction", Bind::warm, s.ycsbUpdateFraction);
    v("ycsbScanLen", Bind::warm, s.ycsbScanLen);
    v("tpccWarehouses", Bind::warm, s.tpccWarehouses);
    v("tpccHomeFraction", Bind::warm, s.tpccHomeFraction);
    v("tpccOpsPerTxn", Bind::warm, s.tpccOpsPerTxn);
    v("tpccThinkOps", Bind::warm, s.tpccThinkOps);
}

// Layout sentinel: a field added to WorkloadSpec changes its size and
// fails this assert until it is added to the table above. Guarded to
// the one ABI the value was computed for; elsewhere the exhaustive
// wire round-trip tests still catch an omission.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(WorkloadSpec) == 168,
              "WorkloadSpec layout changed: update its field table, "
              "bump wireVersion, then refresh this sentinel");
#endif

template <class S, class V>
IfFieldsOf<S, TenantSpec>
visitFields(S &s, V &&v)
{
    v("workload", Bind::warm, s.workload);
    v("nodes", Bind::warm, s.nodes);
}

template <class S, class V>
IfFieldsOf<S, CacheParams>
visitFields(S &s, V &&v)
{
    v("sizeBytes", Bind::shape, s.sizeBytes);
    v("assoc", Bind::shape, s.assoc);
    v("blockBytes", Bind::shape, s.blockBytes);
    v("latency", Bind::free, s.latency);
}

template <class S, class V>
IfFieldsOf<S, SystemConfig>
visitFields(S &s, V &&v)
{
    v("numNodes", Bind::shape, s.numNodes);
    v("topology", Bind::shape, s.topology);
    v("protocol", Bind::shape, s.protocol);

    v("proto.migratoryOpt", Bind::free, s.proto.migratoryOpt);
    v("proto.tokensPerBlock", Bind::shape, s.proto.tokensPerBlock);
    v("proto.maxReissues", Bind::free, s.proto.maxReissues);
    v("proto.reissueLatencyMultiple", Bind::free,
      s.proto.reissueLatencyMultiple);
    v("proto.reissueJitter", Bind::free, s.proto.reissueJitter);
    v("proto.initialAvgMissLatency", Bind::free,
      s.proto.initialAvgMissLatency);
    v("proto.maxReissueTimeout", Bind::free, s.proto.maxReissueTimeout);
    v("proto.reissueEnabled", Bind::free, s.proto.reissueEnabled);
    v("proto.chaosDropFraction", Bind::free, s.proto.chaosDropFraction);
    v("proto.chaosMisdirectFraction", Bind::free,
      s.proto.chaosMisdirectFraction);
    v("proto.perfectDirectory", Bind::free, s.proto.perfectDirectory);
    v("proto.predictorEntries", Bind::shape, s.proto.predictorEntries);
    v("proto.adaptiveThreshold", Bind::free, s.proto.adaptiveThreshold);
    v("proto.adaptiveWindow", Bind::free, s.proto.adaptiveWindow);

    v("net.linkLatency", Bind::free, s.net.linkLatency);
    v("net.bytesPerNs", Bind::free, s.net.bytesPerNs);
    v("net.unlimitedBandwidth", Bind::free, s.net.unlimitedBandwidth);
    v("net.ctrlBytes", Bind::free, s.net.ctrlBytes);
    v("net.dataBytes", Bind::free, s.net.dataBytes);
    v("net.localDelay", Bind::free, s.net.localDelay);

    v("seq.maxOutstanding", Bind::free, s.seq.maxOutstanding);
    v("seq.thinkMean", Bind::free, s.seq.thinkMean);
    v("seq.l1", Bind::shape, s.seq.l1);
    v("seq.l1Enabled", Bind::warm, s.seq.l1Enabled);

    v("l2", Bind::shape, s.l2);
    v("dram.latency", Bind::free, s.dram.latency);
    v("dram.minGap", Bind::free, s.dram.minGap);
    v("ctrlLatency", Bind::free, s.ctrlLatency);
    v("blockBytes", Bind::shape, s.blockBytes);

    v("workload", Bind::warm, s.workload);
    v("recordTrace", Bind::free, s.recordTrace);
    v("opsPerProcessor", Bind::free, s.opsPerProcessor);
    v("warmupOpsPerProcessor", Bind::free, s.warmupOpsPerProcessor);
    v("seed", Bind::warm, s.seed);
    v("attachAuditor", Bind::shape, s.attachAuditor);
    v("maxTicks", Bind::free, s.maxTicks);

    v("sampling.ffOps", Bind::free, s.sampling.ffOps);
    v("sampling.measureOps", Bind::free, s.sampling.measureOps);
    v("sampling.windows", Bind::free, s.sampling.windows);
    // Ships as an opaque blob; a shard checks the snapshot's own
    // fingerprint when it loads it.
    v("warmSnapshot", Bind::free, s.warmSnapshot);

    v("tenants", Bind::warm, s.tenants);
}

template <class S, class V>
IfFieldsOf<S, ExperimentSpec>
visitFields(S &s, V &&v)
{
    v("cfg", Bind::shape, s.cfg);
    v("seeds", Bind::free, s.seeds);
    v("label", Bind::free, s.label);
}

} // namespace tokensim

#endif // TOKENSIM_HARNESS_CONFIG_FIELDS_HH
