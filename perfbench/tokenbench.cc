/**
 * @file
 * tokenbench — the repository's end-to-end benchmark.
 *
 *   tokenbench --workload NAME --seed N --seconds S --trace 0|1
 *              [--out-dir DIR]
 *
 * Runs one named workload through the simulator's public API only
 * (System, fastForward, run, results, aggregateResults, the warm
 * snapshot codec, DistRunner, the wire codecs, WorkloadFactory),
 * repeating its timed phase until --seconds of timed work have run.
 * Every repetition is set up from scratch outside the timed phase and
 * must reproduce the first repetition's results bit for bit.
 *
 * --trace 0 prints the end-to-end metrics (host time, tracing off).
 * --trace 1 prints the per-layer metrics: deterministic simulated
 * counts, host-side probes run outside the timed phase, per-layer
 * self times from the traced repetitions (the spans are also written
 * as a Chrome trace-event file under --out-dir), and the tracing
 * overhead.
 *
 * Every metric is printed as "name value unit"; the last stdout line
 * is one JSON object {correct, attempted, failed, metrics}. Exit
 * status: 0 when every correctness check passed, 1 when one failed,
 * 2 on bad arguments. perfbench/README.md documents the workloads and
 * the metric-to-layer map.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/dist_runner.hh"
#include "harness/experiment.hh"
#include "harness/snapshot.hh"
#include "harness/system.hh"
#include "harness/wire.hh"
#include "sim/random.hh"
#include "workload/factory.hh"

#include "spans.hh"

using namespace tokensim;
using perfbench::Clock;
using perfbench::secondsSince;
using perfbench::Tracer;

namespace {

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    std::string name;
    SystemConfig cfg;
    /** Functional warm per node in set-up (past generator preambles). */
    std::uint64_t warmOps = 0;
    /** Sweep axis: one design point per link latency (ns). Empty: one
     *  serial System instead of a DistRunner sweep. */
    std::vector<std::uint64_t> linkLatencyNs;
    int workers = 0;

    bool sweep() const { return !linkLatencyNs.empty(); }
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    SystemConfig &c = w.cfg;
    c.topology = "torus";
    c.seed = seed;
    if (name == "tokenb-oltp-64") {
        // Broadcast TokenB on the commercial mix: fan-out in net,
        // the calendar queue and reissue timers in sim, transient
        // handling in core. oltp opens with a 4096-op warm-scan
        // preamble; the functional warm runs well past it.
        c.numNodes = 64;
        c.protocol = ProtocolKind::tokenB;
        c.workload = "oltp";
        c.warmupOpsPerProcessor = 1000;
        c.opsPerProcessor = 6000;
        w.warmOps = 20000;
    } else if (name == "directory-tpcc-sweep-64") {
        // Unicast directory: no broadcasts, reissues or token
        // transients. Design points differ only in link latency, so
        // one warm snapshot serves them all; the snapshot bytes, wire
        // codec, System::reset and the runner carry real work.
        c.numNodes = 64;
        c.protocol = ProtocolKind::directory;
        c.workload = "tpcc";
        c.opsPerProcessor = 5000;
        w.warmOps = 20000;
        w.linkLatencyNs = {5, 8, 10, 12, 15, 20, 25, 30};
        w.workers = 2;
    } else if (name == "tenants-sampled-256") {
        // Two tenants on a 256-node TokenB machine with a small L2,
        // sampled: the timed phase is mostly functional fast-forward
        // (cache arrays, BlockMaps, HolderIndex), with short detailed
        // windows whose broadcasts fan out to 256 nodes.
        c.numNodes = 256;
        c.protocol = ProtocolKind::tokenB;
        c.tenants = {TenantSpec{WorkloadSpec("ycsb"), 128},
                     TenantSpec{WorkloadSpec("tpcc"), 128}};
        c.l2.sizeBytes = 512 * 1024;
        c.sampling = SamplingSpec{5000, 10, 2};
        w.warmOps = 5000;
    } else {
        throw std::invalid_argument(
            "unknown workload \"" + name +
            "\" (tokenb-oltp-64, directory-tpcc-sweep-64, "
            "tenants-sampled-256)");
    }
    return w;
}

/** Per-node ops the timed run() of one System completes. */
std::uint64_t
timedOpsPerNode(const SystemConfig &c)
{
    if (c.sampling.enabled())
        return c.sampling.windows *
            (c.sampling.ffOps + c.sampling.measureOps);
    return c.warmupOpsPerProcessor + c.opsPerProcessor;
}

/** Per-node ops of the timed run() that fast-forward executes. */
std::uint64_t
timedFfOpsPerNode(const SystemConfig &c)
{
    return c.sampling.enabled() ? c.sampling.windows * c.sampling.ffOps
                                : 0;
}

/** Per-node ops the measured window was asked for. */
std::uint64_t
requestedOpsPerNode(const SystemConfig &c)
{
    return c.sampling.enabled()
        ? c.sampling.windows * c.sampling.measureOps
        : c.opsPerProcessor;
}

std::vector<ExperimentSpec>
sweepSpecs(const Workload &w,
           const std::shared_ptr<const std::string> &snapshot)
{
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t ns : w.linkLatencyNs) {
        ExperimentSpec s;
        s.cfg = w.cfg;
        s.cfg.net.linkLatency = nsToTicks(ns);
        s.cfg.warmSnapshot = snapshot;
        s.seeds = 1;
        s.label = "link=" + std::to_string(ns) + "ns";
        specs.push_back(std::move(s));
    }
    return specs;
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Count one design point; a non-empty @p error fails it. */
    void
    point(const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            errors.push_back(error);
        }
    }

    /** A check outside any design point: counted only if it fails. */
    void
    check(const std::string &error)
    {
        if (!error.empty())
            point(error);
    }
};

/** Every sequencer retired exactly @p expected ops and pulled no more. */
std::string
checkBudgets(System &sys, std::uint64_t expected)
{
    for (int i = 0; i < sys.numNodes(); ++i) {
        const Sequencer &s = sys.sequencer(static_cast<NodeId>(i));
        if (s.completedOps() != expected || s.opsPulled() != expected) {
            return "node " + std::to_string(i) + " retired " +
                std::to_string(s.completedOps()) + " ops, pulled " +
                std::to_string(s.opsPulled()) + ", budget " +
                std::to_string(expected);
        }
    }
    return {};
}

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

/** Host seconds of one set-up: everything before the timed phase. */
struct Setup
{
    double construct = 0;     ///< System construction
    double warm = 0;          ///< functional warm
    double snapshotSave = 0;  ///< sweep only
    double total = 0;
};

struct Rep
{
    Setup setup;
    double timed = 0;
    double results = 0;       ///< results() + aggregateResults()
    std::uint64_t simOps = 0;
    std::uint64_t events = 0;     ///< dispatched in run() (serial)
    std::vector<double> shards;   ///< sweep: derived shard seconds
    std::vector<System::Results> raw;
    std::vector<ExperimentResult> points;
    /** One per design point; empty when every check passed. */
    std::vector<std::string> errors;
    std::shared_ptr<const std::string> snapshot;   ///< sweep only
    bool traced = false;
};

std::uint64_t
completedOps(System &sys)
{
    std::uint64_t n = 0;
    for (int i = 0; i < sys.numNodes(); ++i)
        n += sys.sequencer(static_cast<NodeId>(i)).completedOps();
    return n;
}

/**
 * Build a fresh System for @p cfg into @p sys and warm it
 * functionally; on the sweep, also save the warm snapshot into
 * @p snapshot. The previous System is freed before the clock starts.
 */
Setup
setUp(const Workload &w, const SystemConfig &cfg, Tracer &tr,
      std::unique_ptr<System> &sys,
      std::shared_ptr<const std::string> *snapshot)
{
    Setup t;
    sys.reset();
    const auto t0 = Clock::now();
    {
        Tracer::Scope s(tr, "System::System");
        sys = std::make_unique<System>(cfg);
    }
    t.construct = secondsSince(t0);
    const auto t1 = Clock::now();
    {
        Tracer::Scope s(tr, "System::fastForward");
        sys->fastForward(w.warmOps);
    }
    t.warm = secondsSince(t1);
    if (snapshot) {
        const auto t2 = Clock::now();
        {
            Tracer::Scope s(tr, "saveWarmSnapshot");
            *snapshot = std::make_shared<const std::string>(
                saveWarmSnapshot(*sys));
        }
        t.snapshotSave = secondsSince(t2);
    }
    t.total = secondsSince(t0);
    return t;
}

/** Set up and run one System; @p sys keeps it for the probes. */
Rep
runSerialRep(const Workload &w, Tracer &tr, bool audit,
             std::unique_ptr<System> &sys)
{
    Rep r;
    SystemConfig cfg = w.cfg;
    cfg.attachAuditor = audit;
    Tracer::Scope rep(tr, audit ? "audited-rep" : "rep");
    r.setup = setUp(w, cfg, tr, sys, nullptr);

    const std::uint64_t ops0 = completedOps(*sys);
    const std::uint64_t ev0 = sys->eq().dispatched();
    const auto t2 = Clock::now();
    {
        Tracer::Scope s(tr, "System::run");
        sys->run();
    }
    r.timed = secondsSince(t2);
    r.simOps = completedOps(*sys) - ops0;
    r.events = sys->eq().dispatched() - ev0;

    const auto t3 = Clock::now();
    {
        Tracer::Scope s(tr, "System::results");
        r.raw.push_back(sys->results());
    }
    {
        Tracer::Scope s(tr, "aggregateResults");
        r.points.push_back(aggregateResults(r.raw, w.name));
    }
    r.results = secondsSince(t3);

    std::string err =
        checkBudgets(*sys, w.warmOps + timedOpsPerNode(cfg));
    if (err.empty() && audit && sys->auditor()) {
        Tracer::Scope s(tr, "TokenAuditor::auditAll");
        std::string why;
        if (!sys->auditor()->auditAll(&why))
            err = "token audit: " + why;
    }
    r.errors.push_back(err);
    return r;
}

/** Warm and snapshot once, then run every design point on DistRunner. */
Rep
runSweepRep(const Workload &w, Tracer &tr)
{
    Rep r;
    Tracer::Scope rep(tr, "rep");
    {
        std::unique_ptr<System> sys;
        r.setup = setUp(w, w.cfg, tr, sys, &r.snapshot);
    }
    const std::vector<ExperimentSpec> specs = sweepSpecs(w, r.snapshot);

    // Shard completions arrive through the progress callback; with W
    // workers each fed one shard at a time, the k-th completion's
    // shard started when completion k-W freed its worker (or at the
    // sweep's start for the first W).
    std::vector<double> done;
    DistRunnerOptions opts;
    opts.workers = w.workers;
    opts.progress = [&done, &tr](const std::string &line) {
        if (line.compare(0, 6, "shard ") == 0)
            done.push_back(tr.now());
    };
    const DistRunner runner(opts);
    const double start = tr.now();
    const auto t3 = Clock::now();
    int distSpan = -1;
    {
        Tracer::Scope s(tr, "DistRunner::run");
        distSpan = s.id();
        r.points = runner.run(specs);
    }
    r.timed = secondsSince(t3);
    std::vector<int> lane(done.size());
    for (std::size_t k = 0; k < done.size(); ++k) {
        const std::size_t W = static_cast<std::size_t>(w.workers);
        const double begin = k < W ? start : done[k - W];
        lane[k] = k < W ? static_cast<int>(k) + 1 : lane[k - W];
        r.shards.push_back(done[k] - begin);
        tr.add("shard", begin, done[k], distSpan, lane[k]);
    }

    const std::uint64_t perPoint =
        static_cast<std::uint64_t>(w.cfg.numNodes) * w.cfg.opsPerProcessor;
    if (r.points.size() != specs.size()) {
        throw std::runtime_error("DistRunner returned " +
                                 std::to_string(r.points.size()) +
                                 " design points");
    }
    for (const ExperimentResult &p : r.points) {
        r.simOps += perPoint;
        r.errors.push_back(p.ops == perPoint
                               ? std::string()
                               : p.label + ": measured " +
                                   std::to_string(p.ops) + " ops, budget " +
                                   std::to_string(perPoint));
    }
    return r;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Reading
{
    std::string name;
    double value;
    std::string unit;
};

/** Set-up samples per run (repetitions plus set-up-only trials). */
constexpr std::size_t kSetupSamples = 9;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0;
}

/** Percentile of a power-of-two histogram, linear within the bucket
 *  holding the rank (bucket b spans [2^(b-1), 2^b) ticks). */
double
histPercentileNs(const LogHistogram *h, double q)
{
    if (!h || h->empty())
        return 0;
    const double rank = q * static_cast<double>(h->total());
    double below = 0;
    for (const auto &[b, count] : h->buckets()) {
        const double c = static_cast<double>(count);
        if (below + c >= rank) {
            const double lo = b == 0 ? 0 : std::ldexp(1.0, b - 1);
            const double hi = b == 0 ? 1 : std::ldexp(1.0, b);
            return ticksToNsF(lo + (hi - lo) * ((rank - below) / c));
        }
        below += c;
    }
    return ticksToNsF(std::ldexp(1.0, h->buckets().back().first));
}

/** The simulated (deterministic) per-layer metrics of @p res. */
void
simulatedMetrics(const System::Results &res,
                 std::uint64_t requestedOps, std::vector<Reading> &out)
{
    const double ops = static_cast<double>(res.ops());
    const double misses = static_cast<double>(res.misses());
    double msgs = 0;
    for (std::size_t c = 0; c < numMsgClasses; ++c)
        msgs += static_cast<double>(res.messagesOf(static_cast<MsgClass>(c)));
    const MetricRegistry &m = res.metrics;
    const double reissued =
        static_cast<double>(res.missesReissuedOnce() +
                            res.missesReissuedMore());

    out.push_back({"sim.events_per_op", res.eventsPerOp(), "events/op"});
    out.push_back({"sim.scheduled_per_op",
                   ratio(static_cast<double>(res.eventsScheduled()), ops),
                   "events/op"});
    out.push_back({"sim.cancelled_per_op",
                   ratio(static_cast<double>(res.timersCancelled()), ops),
                   "timers/op"});
    out.push_back({"net.msgs_per_miss", ratio(msgs, misses), "msgs/miss"});
    out.push_back({"net.link_bytes_per_miss", res.bytesPerMiss(),
                   "B/miss"});
    out.push_back({"net.latency_ns_mean",
                   ticksToNsF(m.statValue("net_latency_ticks").mean()),
                   "ns"});
    const LogHistogram *hist = m.histogram("miss_latency_hist");
    out.push_back({"proto.miss_latency_ns_p50",
                   histPercentileNs(hist, 0.50), "ns"});
    out.push_back({"proto.miss_latency_ns_p99",
                   histPercentileNs(hist, 0.99), "ns"});
    out.push_back({"proto.reissued_pct", 100 * ratio(reissued, misses),
                   "%"});
    out.push_back({"proto.persistent_pct",
                   100 * ratio(static_cast<double>(res.missesPersistent()),
                               misses),
                   "%"});
    out.push_back({"proto.c2c_frac",
                   ratio(static_cast<double>(res.cacheToCache()), misses),
                   "fraction"});
    out.push_back({"mem.l1_hit_frac",
                   ratio(static_cast<double>(res.l1Hits()), ops),
                   "fraction"});
    out.push_back({"mem.l2_miss_frac",
                   ratio(misses, static_cast<double>(res.l2Accesses())),
                   "fraction"});
    out.push_back({"mem.identity_gap",
                   ops - static_cast<double>(res.l1Hits()) -
                       static_cast<double>(res.l2Accesses()),
                   "ops"});
    out.push_back({"cpu.cpt_ns", m.statValue("cpt_ns").mean(), "ns"});
    out.push_back({"cpu.window_coverage",
                   ratio(ops, static_cast<double>(requestedOps)),
                   "fraction"});
}

long
peakRssKb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_maxrss;
}

// ---------------------------------------------------------------------
// Per-layer probes (outside every timed phase)
// ---------------------------------------------------------------------

struct Probes
{
    double ffOpsPerS = 0;
    double snapshotMb = 0;
    double snapshotSave = 0;
    double snapshotLoad = 0;
    double reset = 0;
    double wireJobMb = 0;
    double wireEncodeMbPerS = 0;
    double wireDecodeMbPerS = 0;
    double genNsPerOp = 0;
    std::shared_ptr<const std::string> snapshot;
};

/** Fast-forward a fresh System past the warm, then time a further
 *  fast-forward of the timed phase's op count. Serial workloads also
 *  take their probe snapshot from this System. */
void
probeFastForward(const Workload &w, Tracer &tr, Probes &p)
{
    Tracer::Scope probe(tr, "probe.fastForward");
    System sys(w.cfg);
    {
        Tracer::Scope s(tr, "System::fastForward");
        sys.fastForward(w.warmOps);
    }
    if (!w.sweep()) {
        const auto t = Clock::now();
        {
            Tracer::Scope s(tr, "saveWarmSnapshot");
            p.snapshot = std::make_shared<const std::string>(
                saveWarmSnapshot(sys));
        }
        p.snapshotSave = secondsSince(t);
    }
    // The timed phase's fast-forward share; a timed phase with none
    // probes its detailed op count instead.
    std::uint64_t ops = timedFfOpsPerNode(w.cfg);
    if (ops == 0)
        ops = timedOpsPerNode(w.cfg);
    const auto t = Clock::now();
    {
        Tracer::Scope s(tr, "System::fastForward");
        sys.fastForward(ops);
    }
    p.ffOpsPerS = static_cast<double>(ops) * w.cfg.numNodes /
        secondsSince(t);
}

/** Reset the benchmark's own (already run) System, then restore the
 *  warm snapshot into it. */
std::string
probeResetAndLoad(const SystemConfig &cfg, System &sys, Tracer &tr,
                  Probes &p)
{
    Tracer::Scope probe(tr, "probe.resetAndLoad");
    const auto t0 = Clock::now();
    bool ok = false;
    {
        Tracer::Scope s(tr, "System::reset");
        ok = sys.reset(cfg);
    }
    p.reset = secondsSince(t0);
    if (!ok)
        return "System::reset refused the workload's own config";
    const auto t1 = Clock::now();
    {
        Tracer::Scope s(tr, "loadWarmSnapshot");
        loadWarmSnapshot(sys, *p.snapshot);
    }
    p.snapshotLoad = secondsSince(t1);
    p.snapshotMb = static_cast<double>(p.snapshot->size()) / 1e6;
    return {};
}

/** Encode and decode a real job and result payload, repeated until
 *  each direction has run for at least 0.2 s. */
std::string
probeWire(const SystemConfig &jobCfg, const System::Results &res,
          Tracer &tr, Probes &p)
{
    Tracer::Scope probe(tr, "probe.wire");
    std::string job, result;
    double bytes = 0, enc = 0, dec = 0;
    std::string err;
    {
        Tracer::Scope s(tr, "wire.encode");
        for (int i = 0; i < 3 || enc < 0.2; ++i) {
            const auto t = Clock::now();
            job = encodeJobPayload(1, jobCfg, jobCfg.seed);
            result = encodeResultPayload(1, res);
            enc += secondsSince(t);
            bytes += static_cast<double>(job.size() + result.size());
        }
    }
    int decodes = 0;
    {
        Tracer::Scope s(tr, "wire.decode");
        for (; decodes < 3 || dec < 0.2; ++decodes) {
            const auto t = Clock::now();
            const JobFrame jf = decodeJobPayload(job);
            const ResultFrame rf = decodeResultPayload(result);
            dec += secondsSince(t);
            if (jf.seed != jobCfg.seed ||
                rf.results.metrics != res.metrics)
                err = "wire round trip changed the job or result "
                      "payload";
        }
    }
    p.wireJobMb = static_cast<double>(job.size()) / 1e6;
    p.wireEncodeMbPerS = bytes / 1e6 / enc;
    p.wireDecodeMbPerS = static_cast<double>(job.size() + result.size()) *
        decodes / 1e6 / dec;
    return err;
}

/** Keeps the generated streams observable to the optimizer. */
volatile std::uint64_t genSink = 0;

/** Generate every node's op stream on its own, through the public
 *  WorkloadFactory, with the seeds System construction draws (one
 *  controller draw per node, then a workload and a sequencer draw per
 *  node — the seeding contract in harness/system.cc). */
void
probeGeneration(const Workload &w, std::uint64_t opsPerNode, Tracer &tr,
                Probes &p)
{
    Tracer::Scope probe(tr, "probe.workload");
    const SystemConfig &c = w.cfg;
    Rng seeder(c.seed);
    for (int i = 0; i < c.numNodes; ++i)
        (void)seeder.next();
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < c.numNodes; ++i) {
        seeds.push_back(seeder.next());
        (void)seeder.next();
    }
    std::vector<TenantSpec> groups = c.tenants;
    if (groups.empty())
        groups.push_back(TenantSpec{c.workload, c.numNodes});
    AddressMap map;
    map.blockBytes = c.blockBytes;

    std::uint64_t sink = 0;
    const auto t = Clock::now();
    {
        Tracer::Scope s(tr, "WorkloadFactory");
        int node = 0;
        for (const TenantSpec &g : groups) {
            const WorkloadFactory f(g.workload, g.nodes, map);
            for (int local = 0; local < g.nodes; ++local, ++node) {
                auto gen = f.make(static_cast<NodeId>(local), seeds[node]);
                for (std::uint64_t k = 0; k < opsPerNode; ++k)
                    sink += gen->next().addr;
            }
        }
    }
    const double secs = secondsSince(t);
    genSink = sink;
    p.genNsPerOp = secs * 1e9 /
        (static_cast<double>(opsPerNode) * c.numNodes);
}

// ---------------------------------------------------------------------
// Main program
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string outDir = ".";
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        std::size_t used = 0;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::stoull(v, &used);
            haveSeed = used == v.size() && v[0] != '-';
        } else if (a == "--seconds") {
            o.seconds = std::stod(v, &used);
            if (used != v.size() || !(o.seconds > 0))
                throw std::invalid_argument("bad --seconds " + v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace wants 0 or 1");
            o.trace = v[0] - '0';
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else {
            throw std::invalid_argument("unknown option " + a);
        }
    }
    if (o.workload.empty() || !haveSeed || o.seconds <= 0 || o.trace < 0) {
        throw std::invalid_argument(
            "usage: tokenbench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--out-dir DIR]");
    }
    return o;
}

/** Bit-identical design-point results: digest and whole registry. */
bool
sameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    return identicalResults(a, b) && resultDigest(a) == resultDigest(b);
}

/** Set up once more, untraced, only for a set-up sample. It replaces
 *  @p sys and frees it at once, so no two Systems are ever alive and
 *  no forked sweep worker inherits one. */
Setup
setUpTrial(const Workload &w, Tracer &tr, std::unique_ptr<System> &sys)
{
    tr.setEnabled(false);
    std::shared_ptr<const std::string> snap;
    const Setup t = setUp(w, w.cfg, tr, sys, w.sweep() ? &snap : nullptr);
    sys.reset();
    return t;
}

/**
 * Repeat the timed phase until @p budget seconds of it have run (at
 * least @p minReps times); with @p alternate, repetitions are traced
 * in the order untraced, traced, traced, untraced, ... so neither half
 * gets all the early (fresh-heap) repetitions. Every repetition must
 * match the first one bit for bit.
 *
 * Set-up is short, and the first samples of a process pay for a fresh
 * heap, so @p setups gets every repetition's set-up plus set-up-only
 * trials between repetitions, topped up to kSetupSamples at the end.
 */
void
repeat(const Workload &w, Tracer &tr, Gate &gate, double budget,
       int minReps, bool alternate, std::vector<Rep> &reps,
       std::vector<Setup> &setups, std::unique_ptr<System> &sys)
{
    double spent = 0;
    for (int n = 0; n < minReps || spent < budget; ++n) {
        if (n > 0 && setups.size() < kSetupSamples)
            setups.push_back(setUpTrial(w, tr, sys));
        tr.setEnabled(alternate && (n % 4 == 1 || n % 4 == 2));
        Rep r = w.sweep() ? runSweepRep(w, tr)
                          : runSerialRep(w, tr, false, sys);
        r.traced = tr.enabled();
        spent += r.timed;
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            if (!reps.empty() && r.errors[i].empty() &&
                !sameResult(r.points[i], reps.front().points[i])) {
                r.errors[i] = "repetition " + std::to_string(reps.size()) +
                    " diverged from the first on " + r.points[i].label;
            }
            gate.point(r.errors[i]);
        }
        if (!reps.empty())
            r.snapshot.reset();   // the first repetition's serves probes
        setups.push_back(r.setup);
        reps.push_back(std::move(r));
    }
    while (setups.size() < kSetupSamples)
        setups.push_back(setUpTrial(w, tr, sys));
    tr.setEnabled(false);
}

double
medianOf(const std::vector<Rep> &reps, double Rep::*field)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(r.*field);
    return median(v);
}

std::vector<double>
setupField(const std::vector<Setup> &setups, double Setup::*field)
{
    std::vector<double> v;
    for (const Setup &t : setups)
        v.push_back(t.*field);
    return v;
}

double
opsPerSecond(const std::vector<Rep> &reps)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(static_cast<double>(r.simOps) / r.timed);
    return median(v);
}

void
printResult(const Gate &gate, const std::vector<Reading> &ms)
{
    for (const Reading &m : ms)
        std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                gate.failed ? "false" : "true", gate.attempted,
                gate.failed);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
runBenchmark(const Options &o)
{
    const Workload w = makeWorkload(o.workload, o.seed);
    Tracer tr(w.name);
    Gate gate;
    std::vector<Rep> reps;
    std::unique_ptr<System> sys;
    const int n = w.cfg.numNodes;
    std::vector<Reading> out;

    auto guarded = [&gate](const char *what, auto &&fn) {
        try {
            fn();
        } catch (const std::exception &e) {
            gate.point(std::string(what) + ": " + e.what());
        }
    };

    // A --trace 1 run interleaves untraced and traced repetitions, so
    // both halves see the same heap and machine state; the untraced
    // half is the baseline of the tracing overhead.
    std::vector<Setup> setups;
    guarded("timed run", [&] {
        repeat(w, tr, gate, o.seconds, o.trace ? 4 : 2, o.trace == 1, reps,
               setups, sys);
    });

    // The sweep's in-process oracle: one design point through the
    // runOnce path must equal what the worker processes returned.
    double oracleRun = 0, oracleResults = 0;
    std::uint64_t oracleEvents = 0;
    System::Results oracleRes;
    if (w.sweep() && !reps.empty()) {
        guarded("sweep oracle", [&] {
            const Rep &r = reps.front();
            const std::vector<ExperimentSpec> specs =
                sweepSpecs(w, r.snapshot);
            const std::size_t k = o.seed % specs.size();
            sys.reset();
            sys = std::make_unique<System>(specs[k].cfg);
            const auto t = Clock::now();
            oracleRes = runOnceReusing(sys, specs[k].cfg, specs[k].cfg.seed);
            oracleRun = secondsSince(t);
            oracleEvents = oracleRes.eventsDispatched();
            const auto t1 = Clock::now();
            const ExperimentResult local =
                aggregateResults({sys->results()}, specs[k].label);
            oracleResults = secondsSince(t1);
            std::string err = checkBudgets(
                *sys, w.warmOps + w.cfg.opsPerProcessor);
            if (!sameResult(local, r.points[k])) {
                err = specs[k].label +
                    ": in-process runOnce differs from the DistRunner "
                    "result";
            }
            gate.point(err);
        });
    }

    if (reps.empty()) {
        // Nothing to report: the gate already holds the failure.
    } else if (!o.trace) {
        // Forked workers inherit the parent's pages; their peaks count
        // those shared pages again, so this is an upper bound.
        const double selfKb = static_cast<double>(peakRssKb(RUSAGE_SELF));
        const double workerKb =
            static_cast<double>(peakRssKb(RUSAGE_CHILDREN));
        const double peakKb = selfKb + w.workers * workerKb;
        if (w.workers) {
            std::printf("peak rss: parent %.1f MB + %d workers x %.1f MB\n",
                        selfKb / 1024, w.workers, workerKb / 1024);
        }
        out.push_back({"sim_ops_per_s", opsPerSecond(reps), "ops/s"});
        out.push_back({"setup_s", median(setupField(setups, &Setup::total)),
                       "s"});
        out.push_back({"peak_rss_mb", peakKb / 1024, "MB"});
    } else {
        // The probes and the audited repetition are traced too.
        tr.setEnabled(true);
        std::vector<Rep> untracedReps, tracedReps;
        for (const Rep &r : reps)
            (r.traced ? tracedReps : untracedReps).push_back(r);
        Probes p;
        const Rep &first = reps.front();
        const std::uint64_t perNodeTimed =
            first.simOps / static_cast<std::uint64_t>(n) /
            (w.sweep() ? w.linkLatencyNs.size() : 1);
        guarded("fast-forward probe", [&] { probeFastForward(w, tr, p); });
        guarded("generation probe", [&] {
            probeGeneration(w, perNodeTimed, tr, p);
        });
        SystemConfig jobCfg = w.cfg;
        System::Results jobRes = first.raw.empty() ? oracleRes
                                                   : first.raw.front();
        if (w.sweep()) {
            p.snapshot = first.snapshot;
            p.snapshotSave = median(setupField(setups, &Setup::snapshotSave));
            jobCfg = sweepSpecs(w, first.snapshot).front().cfg;
        }
        guarded("reset/load probe", [&] {
            if (!sys && !w.sweep()) {
                // Set-up-only trials after the last repetition freed
                // its System: run one more repetition, untraced and
                // outside every metric, so the probe resets a System
                // that has run, as it does on every other path.
                tr.setEnabled(false);
                Rep r = runSerialRep(w, tr, false, sys);
                tr.setEnabled(true);
                if (r.errors[0].empty() &&
                    !sameResult(r.points[0], first.points[0]))
                    r.errors[0] = "the probe's repetition diverged from "
                                  "the timed runs";
                gate.point(r.errors[0]);
            }
            if (!sys || !p.snapshot)
                throw std::runtime_error("no System or snapshot to probe");
            gate.check(probeResetAndLoad(w.cfg, *sys, tr, p));
        });
        guarded("wire probe", [&] {
            gate.check(probeWire(jobCfg, jobRes, tr, p));
        });

        // Deterministic per-layer counts (every repetition matched).
        const std::uint64_t requested =
            requestedOpsPerNode(w.cfg) * static_cast<std::uint64_t>(n) *
            std::max<std::size_t>(first.points.size(), 1);
        MetricRegistry merged;
        for (const ExperimentResult &pt : first.points)
            merged.merge(pt.metrics);
        System::Results all;
        all.metrics = merged;

        const double untracedOps = opsPerSecond(untracedReps);
        const double timed = medianOf(untracedReps, &Rep::timed);
        const double ffShare = ratio(
            static_cast<double>(timedFfOpsPerNode(w.cfg)) * n / p.ffOpsPerS,
            timed);
        double hostNsPerEvent = 0;
        if (w.sweep()) {
            hostNsPerEvent = ratio(
                (oracleRun - p.reset - p.snapshotLoad) * 1e9,
                static_cast<double>(oracleEvents));
        } else {
            hostNsPerEvent = ratio(timed * (1 - ffShare) * 1e9,
                                   static_cast<double>(first.events));
        }

        std::vector<Reading> simulated;
        simulatedMetrics(all, requested, simulated);
        out.insert(out.end(), simulated.begin(), simulated.begin() + 3);
        out.push_back({"sim.host_ns_per_event", hostNsPerEvent, "ns"});
        out.insert(out.end(), simulated.begin() + 3, simulated.end());
        out.push_back({"workload.gen_ns_per_op", p.genNsPerOp, "ns"});

        std::vector<double> shards;
        for (const Rep &r : reps)
            shards.insert(shards.end(), r.shards.begin(), r.shards.end());
        double runnerOverhead = 0;
        if (w.sweep()) {
            // Share of the sweep's wall clock not explained by the
            // in-process cost of its design points spread over the
            // workers (estimated from the oracle point).
            runnerOverhead = 1 - ratio(
                oracleRun * static_cast<double>(w.linkLatencyNs.size()) /
                    w.workers,
                timed);
        } else {
            // No runner: the run() call is the one shard.
            for (const Rep &r : reps)
                shards.push_back(r.timed);
        }
        std::sort(shards.begin(), shards.end());
        out.push_back({"harness.construct_s",
                       median(setupField(setups, &Setup::construct)), "s"});
        out.push_back({"harness.warm_ff_s",
                       median(setupField(setups, &Setup::warm)), "s"});
        out.push_back({"harness.ff_ops_per_s", p.ffOpsPerS, "ops/s"});
        out.push_back({"harness.ff_share", ffShare, "fraction"});
        out.push_back({"harness.results_s",
                       w.sweep() ? oracleResults
                                             : medianOf(reps, &Rep::results),
                       "s"});
        out.push_back({"harness.snapshot_mb", p.snapshotMb, "MB"});
        out.push_back({"harness.snapshot_save_s", p.snapshotSave, "s"});
        out.push_back({"harness.snapshot_load_s", p.snapshotLoad, "s"});
        out.push_back({"harness.reset_s", p.reset, "s"});
        out.push_back({"harness.wire_job_mb", p.wireJobMb, "MB"});
        out.push_back({"harness.wire_encode_mb_per_s", p.wireEncodeMbPerS,
                       "MB/s"});
        out.push_back({"harness.wire_decode_mb_per_s", p.wireDecodeMbPerS,
                       "MB/s"});
        out.push_back({"harness.shard_s_p50", median(shards), "s"});
        out.push_back({"harness.shard_s_max",
                       shards.empty() ? 0 : shards.back(), "s"});
        out.push_back({"harness.runner_overhead_frac", runnerOverhead,
                       "fraction"});
        out.push_back({"trace.overhead_frac",
                       ratio(untracedOps, opsPerSecond(tracedReps)) - 1,
                       "fraction"});

        // Self time per layer: every traced call folds into the layer
        // it enters, summed over the traced repetitions and probes.
        static const std::pair<const char *, const char *> layers[] = {
            {"rep", "trace.self.bench_s"},
            {"probe.fastForward", "trace.self.bench_s"},
            {"probe.resetAndLoad", "trace.self.bench_s"},
            {"probe.wire", "trace.self.bench_s"},
            {"probe.workload", "trace.self.bench_s"},
            {"System::System", "trace.self.harness_s"},
            {"System::reset", "trace.self.harness_s"},
            {"System::results", "trace.self.harness_s"},
            {"aggregateResults", "trace.self.harness_s"},
            {"DistRunner::run", "trace.self.harness_s"},
            {"System::fastForward", "trace.self.fast_forward_s"},
            {"System::run", "trace.self.run_s"},
            {"shard", "trace.self.run_s"},
            {"saveWarmSnapshot", "trace.self.snapshot_s"},
            {"loadWarmSnapshot", "trace.self.snapshot_s"},
            {"wire.encode", "trace.self.wire_s"},
            {"wire.decode", "trace.self.wire_s"},
            {"WorkloadFactory", "trace.self.workload_gen_s"},
        };
        std::vector<Reading> selfTimes;
        for (const auto &l : layers) {
            if (std::none_of(selfTimes.begin(), selfTimes.end(),
                             [&](const Reading &m) {
                                 return m.name == l.second;
                             }))
                selfTimes.push_back({l.second, 0.0, "s"});
        }
        for (const auto &[span, secs] : tr.selfSeconds()) {
            const auto it = std::find_if(
                std::begin(layers), std::end(layers),
                [&span = span](const auto &l) { return span == l.first; });
            if (it == std::end(layers)) {
                gate.check("span " + span + " has no layer");
                continue;
            }
            std::find_if(selfTimes.begin(), selfTimes.end(),
                         [&](const Reading &m) {
                             return m.name == it->second;
                         })->value += secs;
        }
        std::sort(selfTimes.begin(), selfTimes.end(),
                  [](const Reading &a, const Reading &b) {
                      return a.name < b.name;
                  });
        out.insert(out.end(), selfTimes.begin(), selfTimes.end());

        // The token auditor: traced (its spans go to the file), but
        // after the self times, so its hooks never count as run time.
        if (!w.sweep() && isTokenProtocol(w.cfg.protocol)) {
            guarded("audited run", [&] {
                std::unique_ptr<System> audited;
                Rep r = runSerialRep(w, tr, true, audited);
                if (r.errors[0].empty() &&
                    !sameResult(r.points[0], reps.front().points[0]))
                    r.errors[0] = "the audited run diverged from the "
                                  "timed runs";
                gate.point(r.errors[0]);
            });
        }
        const std::string path = o.outDir + "/trace-" + w.name + "-seed" +
            std::to_string(o.seed) + ".json";
        if (tr.writeChromeTrace(path))
            std::printf("spans: %zu written to %s\n", tr.spans().size(),
                        path.c_str());
        else
            std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }

    // Release the last System before reporting (the exit path).
    sys.reset();
    std::printf("workload %s seed %" PRIu64 ": %zu repetitions, "
                "failed_frac %.6g fraction\n",
                w.name.c_str(), o.seed, reps.size(),
                ratio(static_cast<double>(gate.failed),
                      static_cast<double>(gate.attempted)));
    for (std::size_t i = 0; i < reps.size(); ++i) {
        std::printf("rep %zu: setup %.4f s, timed %.4f s, %" PRIu64
                    " simulated ops%s\n",
                    i, reps[i].setup.total, reps[i].timed, reps[i].simOps,
                    reps[i].traced ? " (traced)" : "");
    }
    if (!reps.empty()) {
        for (const ExperimentResult &p : reps.front().points)
            std::printf("digest %s %s\n", p.label.c_str(),
                        resultDigest(p).c_str());
    }
    for (Reading &m : out) {
        if (!std::isfinite(m.value)) {
            gate.check(m.name + " is not a finite number");
            m.value = 0;
        }
    }
    for (const std::string &e : gate.errors)
        std::printf("FAILED: %s\n", e.c_str());
    if (gate.attempted == 0)
        gate.point("no design point ran");
    printResult(gate, out);
    return gate.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parseOptions(argc, argv);
        (void)makeWorkload(o.workload, o.seed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tokenbench: %s\n", e.what());
        return 2;
    }
    return runBenchmark(o);
}
