/**
 * @file
 * The processor timing model.
 *
 * The paper evaluates with TFsim: dynamically-scheduled SPARC cores
 * generating multiple outstanding coherence requests. This repository
 * substitutes a sequencer that preserves the properties the evaluation
 * depends on (DESIGN.md §1): a stream of memory operations with
 * configurable memory-level parallelism (several outstanding misses),
 * think time standing in for non-memory instructions, an L1 that
 * filters hits at 2 ns, and cycles-per-transaction accounting.
 *
 * The L1 is kept inclusive with the L2 through the cache controller's
 * line-removed callback; stores write through to the L2 (the coherence
 * point), so protocol permission checks always happen where the
 * protocol state lives.
 */

#ifndef TOKENSIM_CPU_SEQUENCER_HH
#define TOKENSIM_CPU_SEQUENCER_HH

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "proto/controller.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace tokensim {

/** Sequencer tuning parameters. */
struct SequencerParams
{
    /** Maximum overlapping memory operations (MLP window). */
    int maxOutstanding = 4;

    /**
     * Mean think time between operation issues, in ticks. This also
     * stands in for the L1-resident instruction stream the simulator
     * does not model individually; the default is calibrated so a
     * 16-processor commercial run offers a realistic per-processor
     * L2-miss spacing (~100-150 ns) rather than saturating the
     * interconnect (see DESIGN.md).
     */
    Tick thinkMean = nsToTicks(10);

    /** L1 data cache (Table 1: 128 kB, 4-way, 2 ns). */
    CacheParams l1{128 * 1024, 4, 64, nsToTicks(2)};

    /** Disable the L1 entirely (the random tester does this so every
     *  access exercises the protocol). */
    bool l1Enabled = true;
};

/** Per-sequencer statistics. */
struct SequencerStats
{
    std::uint64_t opsIssued = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t transactions = 0;
    RunningStat opLatency;   ///< ticks, all operations
};

/**
 * One processor: pulls operations from its workload, issues them
 * against the cache controller with bounded overlap, and retires a
 * fixed budget.
 */
class Sequencer
{
  public:
    /**
     * @param ctx shared environment.
     * @param id this node.
     * @param cache the node's L2 coherence controller.
     * @param workload the operation stream (ownership taken).
     * @param params timing parameters.
     * @param op_budget operations to run before stopping.
     * @param seed think-time RNG seed.
     */
    Sequencer(ProtoContext &ctx, NodeId id, CacheController *cache,
              std::unique_ptr<Workload> workload,
              const SequencerParams &params, std::uint64_t op_budget,
              std::uint64_t seed);

    /** Begin issuing (schedules the first issue event). */
    void start();

    /**
     * Reinitialize to exactly match a freshly constructed sequencer
     * with @p params, @p workload, @p op_budget, and RNG seed
     * @p seed, keeping the L1 array storage (the L1 geometry in
     * @p params must match construction; timing knobs may differ).
     * The controller callbacks installed at construction stay valid
     * (reusable-System path).
     */
    void reset(const SequencerParams &params,
               std::unique_ptr<Workload> workload,
               std::uint64_t op_budget, std::uint64_t seed);

    /** All budgeted operations have completed. */
    bool done() const { return completedCtl_ >= opBudget_; }

    /**
     * Run @p n operations of the workload functionally: architectural
     * state (L1/L2 contents, protocol warm state via
     * CacheController::applyFunctional) advances exactly as the
     * detailed path would leave it at quiescence, but no events,
     * messages, timers, RNG draws, or statistics happen. The op budget
     * grows by @p n (functional ops ride on top of the detailed
     * budget). Requires a drained system: no outstanding operations.
     */
    void fastForward(std::uint64_t n, FunctionalEnv &env);

    /**
     * Cap on issued operations for the current detailed phase; issuing
     * pauses (without ending the run) once @p at ops have been issued
     * since construction/reset. Raise it and kick() to resume. The
     * default (no cap) leaves the classic single-phase path untouched.
     */
    void setIssueLimit(std::uint64_t at) { issueLimit_ = at; }

    /** Re-arm the issue loop after raising the issue limit. */
    void kick() { wakeIssuer(ctx_.now() + 1); }

    /**
     * Adopt the progress a warm-state snapshot recorded: account
     * @p warm_ops operations as pulled/issued/completed, grow the
     * budget to match, and skip the workload past the ops the saved
     * fast-forward consumed. Must be called on a freshly reset
     * sequencer, after decodeWarmState().
     */
    void adoptWarmProgress(std::uint64_t warm_ops);

    /** Serialize warm state (request-id counter, L1 contents with
     *  exact LRU stamps). Requires a pristine fast-forward-only
     *  sequencer (nothing in flight). @throws WireError otherwise. */
    void encodeWarmState(WireWriter &w) const;

    /** Inverse of encodeWarmState() into a freshly reset sequencer.
     *  @throws WireError on malformed input. */
    void decodeWarmState(WireReader &r);

    /** Operations completed since construction (warmup included). */
    std::uint64_t completedOps() const { return completedCtl_; }

    /**
     * Operations pulled from the workload so far. A completed run
     * pulls exactly op_budget ops — never more (a same-block-stalled
     * op is buffered, not re-pulled) — independent of protocol or
     * timing. Trace recording and replay lean on this contract: a
     * recorded trace holds op_budget ops per node and replays against
     * any protocol with the same budget (tests/test_trace.cc pins it).
     */
    std::uint64_t opsPulled() const { return pulledCtl_; }

    /**
     * Arm a completion milestone: when the completed-op count reaches
     * @p at, increment @p counter once. If the count is already
     * there, the increment happens immediately. The System uses this
     * so its run loop can poll one counter instead of querying every
     * sequencer after every event.
     */
    void
    setMilestone(std::uint64_t at, std::uint64_t *counter)
    {
        milestone_ = at;
        milestoneCounter_ = counter;
        if (counter && completedCtl_ >= at)
            ++*counter;
    }

    /** Zero the reported statistics (end-of-warmup measurement
     *  boundary); control state (budget progress) is unaffected. */
    void resetStats() { stats_ = SequencerStats{}; }

    const SequencerStats &stats() const { return stats_; }
    NodeId nodeId() const { return id_; }
    Workload &workload() { return *workload_; }

    /** Observer invoked on every completion that reached the L2
     *  controller (the random tester checks values through this). */
    using ObserverFn = std::function<void(NodeId,
                                          const ProcResponse &)>;
    void setObserver(ObserverFn fn) { observer_ = std::move(fn); }

    /** Observer invoked on every issue (issue tick, op). */
    using IssueObserverFn = std::function<void(NodeId,
                                               const ProcRequest &)>;
    void setIssueObserver(IssueObserverFn fn)
    {
        issueObserver_ = std::move(fn);
    }

  private:
    struct L1Line
    {
        std::uint64_t data = 0;
    };
    static_assert(sizeof(L1Line) == 8, "an L1 way's payload is 8 bytes");

    /** Bump counters for one completed operation. */
    void
    noteCompleted()
    {
        ++completedCtl_;
        ++stats_.opsCompleted;
        if (milestoneCounter_ && completedCtl_ == milestone_)
            ++*milestoneCounter_;
    }

    /** Issue loop: issue ops while slots and budget allow. */
    void tryIssue();

    /** Completion callback from the cache controller. */
    void onComplete(const ProcResponse &resp);

    /** Inclusion callback: the L2 dropped a block. */
    void onLineRemoved(Addr addr);

    ProtoContext &ctx_;
    NodeId id_;
    CacheController *cache_;
    std::unique_ptr<Workload> workload_;
    SequencerParams params_;
    std::uint64_t opBudget_;
    Rng rng_;
    CacheArray<L1Line> l1_;

    /** Schedule a tryIssue event (at most one pending at a time). */
    void wakeIssuer(Tick when);

    /** Blocks with an operation in flight (same-block serialization). */
    BlockSet busyBlocks_;
    int outstanding_ = 0;
    bool issueScheduled_ = false;
    Tick nextIssueAllowed_ = 0;
    std::uint64_t nextReqId_ = 1;
    std::uint64_t issueLimit_ = ~std::uint64_t{0};
    std::uint64_t issuedCtl_ = 0;
    std::uint64_t pulledCtl_ = 0;
    std::uint64_t completedCtl_ = 0;
    std::uint64_t milestone_ = 0;
    std::uint64_t *milestoneCounter_ = nullptr;

    /** A deferred op waiting for its block to free up. */
    bool stalled_ = false;
    WorkloadOp stalledOp_;

    ObserverFn observer_;
    IssueObserverFn issueObserver_;
    SequencerStats stats_;
};

} // namespace tokensim

#endif // TOKENSIM_CPU_SEQUENCER_HH
