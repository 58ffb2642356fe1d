/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, time
 * conversions, the deterministic RNG, the statistics utilities, and
 * the allocation-freedom of the Event record / bucket-ring steady
 * state (enforced with a counting global operator new).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

// The counting operator new below pairs malloc with the (correctly
// overridden) deletes; GCC's heuristic cannot see the pairing through
// the replacement and warns spuriously.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

/** Global allocation counter for the no-alloc steady-state tests. */
std::atomic<std::uint64_t> gAllocCount{0};

std::uint64_t
allocCount()
{
    return gAllocCount.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace tokensim {
namespace {

// The Event record's size contract: two cache lines, inline storage
// only. The constructor's static_assert rejects any closure in src/
// that would not fit, so compiling the library is itself the proof
// that no event capture can spill to the heap.
static_assert(sizeof(Event) == 128, "Event record size contract");
static_assert(Event::inlineCapacity == 120,
              "Event inline capacity contract");

TEST(EventRecord, InvokesAndDestroysCapturesExactlyOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    int fired = 0;
    {
        EventQueue eq;
        eq.schedule(5, [token, &fired]() { fired += *token; });
        token.reset();
        EXPECT_FALSE(watch.expired());   // capture keeps it alive
        eq.run();
        EXPECT_EQ(fired, 7);
        EXPECT_TRUE(watch.expired());    // dispatch destroyed it
    }
}

TEST(EventRecord, PendingCapturesReleasedOnQueueDestruction)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(10, [token]() {});
        eq.schedule(100000, [token]() {});   // far-horizon copy too
        token.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventRecord, SteadyStateSchedulingIsAllocationFree)
{
    EventQueue eq;
    auto round = [&eq]() {
        std::uint64_t sink = 0;
        for (int i = 0; i < 512; ++i) {
            eq.scheduleIn(static_cast<Tick>((i * 37) % 300),
                          [&sink]() { ++sink; });
        }
        for (int i = 0; i < 64; ++i) {
            // Beyond the ring horizon: exercises the overflow heap.
            eq.scheduleIn(static_cast<Tick>(5000 + (i * 911) % 90000),
                          [&sink]() { ++sink; });
        }
        eq.run();
        EXPECT_EQ(sink, 576u);
    };
    // Reset between rounds like the reusable-System path does, so
    // every round schedules into the same ring slots.
    round();   // warm the ring buckets, drain buffer, overflow heap
    eq.reset();
    round();
    eq.reset();
    const std::uint64_t before = allocCount();
    round();
    eq.reset();
    round();
    EXPECT_EQ(allocCount(), before)
        << "event scheduling/dispatch allocated on a warmed queue";
}

TEST(EventQueue, ResetRestoresFreshStateKeepingStorage)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventQueue eq;
    int ran = 0;
    eq.schedule(3, [&ran]() { ++ran; });
    eq.run();
    eq.schedule(eq.curTick() + 1, [token, &ran]() { ++ran; });
    eq.schedule(eq.curTick() + 50000, [token, &ran]() { ++ran; });
    token.reset();

    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_TRUE(watch.expired());   // pending captures destroyed

    eq.schedule(2, [&ran]() { ran += 10; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ran, 11);
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(nsToTicks(15), 150u);
    EXPECT_EQ(ticksToNs(150), 15u);
    EXPECT_DOUBLE_EQ(ticksToNsF(Tick{25}), 2.5);
    // The double overload preserves fractional ticks (a pooled
    // latency mean is rarely integral).
    EXPECT_DOUBLE_EQ(ticksToNsF(3.5), 0.35);
    EXPECT_EQ(nsToTicks(0), 0u);
}

TEST(Types, BitHelpers)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(65));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        eq.scheduleIn(5, [&]() {
            ++fired;
            eq.scheduleIn(5, [&]() { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 11u);
}

TEST(EventQueue, MaxTickStopsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(100, [&]() { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventAtExactlyMaxTickRuns)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&]() { ++fired; });
    EXPECT_TRUE(eq.run(50));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(static_cast<Tick>(i), [&]() { ++count; });
    EXPECT_TRUE(eq.runUntil([&]() { return count == 4; }));
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.curTick(), 4u);
}

TEST(EventQueue, PastScheduleClampsToNow)
{
    EventQueue eq;
    Tick seen = tickNever;
    eq.schedule(100, [&]() {
        // Scheduling "in the past" must not rewind time.
        eq.schedule(5, [&]() { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 100u);
}

// --- Bucketed-queue specifics: the ring horizon is 4096 ticks, so
// these exercise the overflow heap and the migrate-on-advance path.

TEST(EventQueue, FarFutureEventsRunInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100000, [&]() { order.push_back(3); });
    eq.schedule(50000, [&]() { order.push_back(2); });
    eq.schedule(3, [&]() { order.push_back(1); });
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 100000u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, FarFutureSameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(1 << 20, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, FifoAcrossHorizonMigration)
{
    // a and b start beyond the ring horizon; c is scheduled for the
    // same tick once that tick is inside the window. FIFO order of
    // scheduling (a, b, c) must survive the overflow->ring migration.
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(5000, [&]() { order.push_back('a'); });
    eq.schedule(5000, [&]() { order.push_back('b'); });
    EXPECT_FALSE(eq.run(4000));
    EXPECT_EQ(eq.curTick(), 4000u);
    eq.schedule(5000, [&]() { order.push_back('c'); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventQueue, DenseAndSparseMix)
{
    // Dense same-tick bursts plus sparse far jumps, crossing many
    // window wraps; every event must run exactly once, in tick order.
    EventQueue eq;
    std::vector<Tick> fired;
    Tick t = 0;
    std::vector<Tick> expect;
    for (int i = 0; i < 200; ++i) {
        t += static_cast<Tick>((i % 7 == 0) ? 9001 : i % 5);
        expect.push_back(t);
        eq.schedule(t, [&fired, &eq]() {
            fired.push_back(eq.curTick());
        });
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(eq.executed(), 200u);
}

TEST(EventQueue, RunUntilResumesMidBucket)
{
    // Stop mid-way through a same-tick bucket, then resume: the
    // unexecuted suffix must still run, exactly once, in order.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        eq.schedule(7, [&, i]() { order.push_back(i); });
    EXPECT_TRUE(eq.runUntil([&]() { return order.size() == 2; }));
    EXPECT_EQ(eq.curTick(), 7u);
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, MaxTickDoesNotRewindClock)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.curTick(), 100u);
    // A bound in the past must not move time backwards.
    eq.schedule(200, []() {});
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.curTick(), 200u);
}

TEST(EventQueue, HandlerSchedulesIntoCurrentAndFarTicks)
{
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(10, [&]() {
        order.push_back('x');
        // Same-tick append lands at the tail of the live bucket...
        eq.schedule(10, [&]() { order.push_back('y'); });
        // ...and a far event takes the overflow path.
        eq.scheduleIn(100000, [&]() { order.push_back('z'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'x', 'y', 'z'}));
    EXPECT_EQ(eq.curTick(), 100010u);
}

TEST(EventQueue, ResumableAfterHandlerThrows)
{
    // A throwing handler must leave the queue consistent: the
    // unexecuted same-tick suffix and later events still run, and no
    // moved-from handler is ever re-invoked.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(0); });
    eq.schedule(5, [&]() { throw std::runtime_error("boom"); });
    eq.schedule(5, [&]() { order.push_back(2); });
    eq.schedule(9, [&]() { order.push_back(3); });
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(eq.curTick(), 5u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(eq.executed(), 4u);
}

// --- Timers: the cancellable/reschedulable pooled handles that the
// reissue-timeout and arbiter-broadcast paths are built on.

TEST(Timer, FiresOnceAtDeadline)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    t.schedule(eq, 25, [&]() { fired += 1; });
    EXPECT_TRUE(t.pending());
    EXPECT_EQ(t.deadline(), 25u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.pending());
    EXPECT_EQ(eq.curTick(), 25u);
    EXPECT_EQ(eq.dispatched(), 1u);
}

TEST(Timer, CancelBeforeFire)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    t.scheduleIn(eq, 10, [&]() { ++fired; });
    t.cancel();
    EXPECT_FALSE(t.pending());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.cancelled(), 1u);
    // The superseded proxy drained as a record but dispatched nothing.
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.dispatched(), 0u);
}

TEST(Timer, CancelReleasesCapturesImmediately)
{
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    Timer t;
    t.schedule(eq, 5, [token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    t.cancel();
    EXPECT_TRUE(watch.expired());   // destroyed at cancel, not drain
    eq.run();
}

TEST(Timer, RescheduleMovesDeadlineKeepingCallback)
{
    EventQueue eq;
    std::vector<Tick> fired;
    Timer t;
    t.schedule(eq, 10, [&]() { fired.push_back(eq.curTick()); });
    t.reschedule(50);
    EXPECT_EQ(t.deadline(), 50u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
    EXPECT_EQ(eq.curTick(), 50u);

    // Rescheduling EARLIER works too: the late proxy fires stale.
    t.schedule(eq, eq.curTick() + 100, [&]() {
        fired.push_back(eq.curTick());
    });
    t.reschedule(eq.curTick() + 10);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], 60u);
}

TEST(Timer, StaleTimerNeverDispatches)
{
    // A cancelled deadline must never reach the callback even though
    // its proxy record still drains through the ring — and a slot
    // recycled to a NEW timer must not resurrect the old deadline.
    EventQueue eq;
    int old_fired = 0, new_fired = 0;
    {
        Timer victim;
        victim.schedule(eq, 10, [&]() { ++old_fired; });
    }   // destroyed while pending: cancels and frees its slot
    Timer fresh;   // recycles the released slot
    fresh.schedule(eq, 10, [&]() { ++new_fired; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(old_fired, 0);
    EXPECT_EQ(new_fired, 1);
    EXPECT_EQ(eq.executed(), 2u);     // both proxies drained
    EXPECT_EQ(eq.dispatched(), 1u);   // only the live one dispatched
}

TEST(Timer, HandleReuseAcrossManyArms)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    for (int i = 0; i < 5; ++i) {
        t.scheduleIn(eq, 7, [&]() { ++fired; });
        EXPECT_TRUE(eq.run());
    }
    EXPECT_EQ(fired, 5);

    // Re-arm + cancel churn on the same handle.
    for (int i = 0; i < 5; ++i) {
        t.scheduleIn(eq, 7, [&]() { ++fired; });
        t.cancel();
    }
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 5);
}

TEST(Timer, CallbackMayRearmItsOwnTimer)
{
    // The reissue-timeout shape: the callback re-arms the very timer
    // that is firing.
    EventQueue eq;
    int fired = 0;
    Timer t;
    std::function<void()> arm = [&]() {
        t.scheduleIn(eq, 10, [&]() {
            ++fired;
            if (fired < 3)
                arm();
        });
    };
    arm();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(Timer, CancelAfterQueueResetIsSafeAndHandleReusable)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    t.schedule(eq, 100, [&]() { ++fired; });
    eq.reset();   // disarms every timer, drops every event
    EXPECT_FALSE(t.pending());
    t.cancel();   // must be a harmless no-op
    EXPECT_TRUE(eq.empty());

    // The handle (and its slot) survive the reset and re-arm cleanly.
    t.schedule(eq, 5, [&]() { fired += 10; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 10);
}

TEST(Timer, QueueResetDestroysArmedCaptures)
{
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    Timer t;
    t.schedule(eq, 50, [token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    eq.reset();
    EXPECT_TRUE(watch.expired());
}

TEST(Timer, MoveTransfersOwnership)
{
    EventQueue eq;
    int fired = 0;
    Timer a;
    a.schedule(eq, 10, [&]() { ++fired; });
    Timer b = std::move(a);
    EXPECT_TRUE(b.pending());
    b.cancel();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);

    // Move-assign over a pending timer cancels the overwritten one.
    Timer c, d;
    c.schedule(eq, eq.curTick() + 10, [&]() { ++fired; });
    d.schedule(eq, eq.curTick() + 10, [&]() { fired += 100; });
    d = std::move(c);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1);   // c's callback ran; d's was cancelled
}

TEST(Timer, CountersTrackScheduleDispatchCancel)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&]() { ++fired; });
    Timer t;
    t.schedule(eq, 10, [&]() { ++fired; });   // fires
    Timer u;
    u.schedule(eq, 15, [&]() { ++fired; });   // cancelled below
    u.cancel();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.scheduled(), 3u);
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.dispatched(), 2u);
    EXPECT_EQ(eq.cancelled(), 1u);
    eq.reset();
    EXPECT_EQ(eq.scheduled(), 0u);
    EXPECT_EQ(eq.dispatched(), 0u);
    EXPECT_EQ(eq.cancelled(), 0u);
}

TEST(Timer, SteadyStateTimerChurnIsAllocationFree)
{
    // Timer arm/fire/cancel/reschedule churn must stay allocation-free
    // once the slot pool and ring are warm, like plain scheduling.
    EventQueue eq;
    std::vector<Timer> timers(32);
    std::uint64_t fired = 0;
    auto round = [&]() {
        for (int rep = 0; rep < 8; ++rep) {
            for (std::size_t i = 0; i < timers.size(); ++i) {
                timers[i].scheduleIn(eq,
                                     static_cast<Tick>(1 + (i % 13)),
                                     [&fired]() { ++fired; });
            }
            for (std::size_t i = 0; i < timers.size(); i += 3)
                timers[i].cancel();
            for (std::size_t i = 1; i < timers.size(); i += 3)
                timers[i].rescheduleIn(20);
            eq.run();
            // Fresh handles each rep exercise slot recycling.
            Timer scratch;
            scratch.scheduleIn(eq, 5, [&fired]() { ++fired; });
            eq.run();
        }
    };
    round();   // warm the pool, ring, and free list
    eq.reset();
    round();
    eq.reset();
    const std::uint64_t before = allocCount();
    round();
    eq.reset();
    round();
    EXPECT_EQ(allocCount(), before)
        << "timer churn allocated on a warmed queue";
    EXPECT_GT(fired, 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(9);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++hits[rng.below(8)];
    for (int h : hits) {
        EXPECT_GT(h, 700);   // roughly uniform
        EXPECT_LT(h, 1300);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsfraction)
{
    Rng rng(13);
    int yes = 0;
    for (int i = 0; i < 10000; ++i)
        yes += rng.chance(0.25);
    EXPECT_NEAR(yes / 10000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(17);
    double sum = 0;
    const double p = 0.1;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / 20000.0, 1.0 / p, 0.5);
}

TEST(Rng, ForkIndependence)
{
    Rng parent(5);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c1.next() == c2.next();
    EXPECT_LT(same, 2);
}

TEST(RunningStat, MeanAndStddev)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Ewma, TracksRecentValues)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.primed());
    e.add(100.0);
    EXPECT_TRUE(e.primed());
    EXPECT_DOUBLE_EQ(e.value(), 100.0);   // first sample primes
    e.add(200.0);
    EXPECT_DOUBLE_EQ(e.value(), 150.0);
    e.add(200.0);
    EXPECT_DOUBLE_EQ(e.value(), 175.0);
}

TEST(Strformat, FormatsLikePrintf)
{
    EXPECT_EQ(strformat("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strformat("%04x", 0xab), "00ab");
    EXPECT_EQ(strformat("%s", ""), "");
}

} // namespace
} // namespace tokensim
