#include "des/environment.hpp"
#include "des/resource.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/frame_pool.hpp"
#include "heap_queue.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "util/rng.hpp"

namespace {

using borg::des::Environment;
using borg::des::Event;
using borg::des::Process;
using borg::des::Resource;

Process single_delay(Environment& env, double dt, std::vector<double>& log) {
    co_await env.delay(dt);
    log.push_back(env.now());
}

TEST(Des, DelayAdvancesClock) {
    Environment env;
    std::vector<double> log;
    env.spawn(single_delay(env, 2.5, log));
    env.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_DOUBLE_EQ(log[0], 2.5);
    EXPECT_DOUBLE_EQ(env.now(), 2.5);
}

Process chained_delays(Environment& env, std::vector<double>& log) {
    co_await env.delay(1.0);
    log.push_back(env.now());
    co_await env.delay(0.5);
    log.push_back(env.now());
    co_await env.delay(0.0);
    log.push_back(env.now());
}

TEST(Des, ChainedDelaysAccumulate) {
    Environment env;
    std::vector<double> log;
    env.spawn(chained_delays(env, log));
    env.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_DOUBLE_EQ(log[0], 1.0);
    EXPECT_DOUBLE_EQ(log[1], 1.5);
    EXPECT_DOUBLE_EQ(log[2], 1.5);
}

TEST(Des, NegativeDelayClampedToZero) {
    Environment env;
    std::vector<double> log;
    env.spawn(single_delay(env, -1.0, log));
    env.run();
    EXPECT_DOUBLE_EQ(env.now(), 0.0);
}

Process tagged(Environment& env, double dt, int tag, std::vector<int>& order) {
    co_await env.delay(dt);
    order.push_back(tag);
}

TEST(Des, EventsFireInTimeOrder) {
    Environment env;
    std::vector<int> order;
    env.spawn(tagged(env, 3.0, 3, order));
    env.spawn(tagged(env, 1.0, 1, order));
    env.spawn(tagged(env, 2.0, 2, order));
    env.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Des, SimultaneousEventsFifo) {
    Environment env;
    std::vector<int> order;
    for (int tag = 0; tag < 5; ++tag) env.spawn(tagged(env, 1.0, tag, order));
    env.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Des, RunUntilStopsAtDeadline) {
    Environment env;
    std::vector<int> order;
    env.spawn(tagged(env, 1.0, 1, order));
    env.spawn(tagged(env, 5.0, 5, order));
    env.run_until(2.0);
    EXPECT_EQ(order, (std::vector<int>{1}));
    // SimPy run(until=...) semantics: the clock advances to the deadline
    // even though an event remains queued past it. (Regression: the clock
    // used to rest on the last fired event whenever the queue was
    // non-empty, so a subsequent delay() computed from a stale time.)
    EXPECT_DOUBLE_EQ(env.now(), 2.0);
    env.run();
    EXPECT_EQ(order, (std::vector<int>{1, 5}));
    EXPECT_DOUBLE_EQ(env.now(), 5.0);
}

TEST(Des, RunUntilDeadlineClockFeedsSubsequentDelays) {
    // The consequence of the stale-clock bug: a process spawned after
    // run_until(t) must measure its delay from t, not from the last event
    // that happened to fire.
    Environment env;
    std::vector<double> log;
    env.spawn(single_delay(env, 1.0, log));  // fires at 1.0
    env.spawn(single_delay(env, 10.0, log)); // fires at 10.0
    env.run_until(4.0);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_DOUBLE_EQ(env.now(), 4.0);
    env.spawn(single_delay(env, 1.0, log)); // must fire at 5.0, not 2.0
    env.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_DOUBLE_EQ(log[1], 5.0);
    EXPECT_DOUBLE_EQ(log[2], 10.0);
}

TEST(Des, RunUntilAdvancesIdleClock) {
    Environment env;
    env.run_until(10.0);
    EXPECT_DOUBLE_EQ(env.now(), 10.0);
}

Process stopper(Environment& env, std::vector<int>& order) {
    co_await env.delay(1.0);
    order.push_back(0);
    env.stop();
}

TEST(Des, StopHaltsRun) {
    Environment env;
    std::vector<int> order;
    env.spawn(stopper(env, order));
    env.spawn(tagged(env, 2.0, 2, order));
    env.run();
    EXPECT_TRUE(env.stopped());
    EXPECT_EQ(order, (std::vector<int>{0}));
}

TEST(Des, FinishedProcessCount) {
    Environment env;
    std::vector<int> order;
    env.spawn(tagged(env, 1.0, 1, order));
    env.spawn(tagged(env, 2.0, 2, order));
    env.run();
    EXPECT_EQ(env.finished_processes(), 2u);
}

Process thrower(Environment& env) {
    co_await env.delay(1.0);
    throw std::runtime_error("boom");
}

TEST(Des, ProcessExceptionPropagates) {
    Environment env;
    env.spawn(thrower(env));
    EXPECT_THROW(env.run(), std::runtime_error);
}

// --------------------------------------------------------------- Resource

Process resource_user(Environment& env, Resource& res, double hold, int tag,
                      std::vector<std::pair<int, double>>& log) {
    co_await res.acquire();
    log.emplace_back(tag, env.now());
    co_await env.delay(hold);
    res.release();
}

TEST(Resource, SerializesCapacityOne) {
    Environment env;
    Resource res(env, 1);
    std::vector<std::pair<int, double>> log;
    for (int tag = 0; tag < 3; ++tag)
        env.spawn(resource_user(env, res, 2.0, tag, log));
    env.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_DOUBLE_EQ(log[0].second, 0.0);
    EXPECT_DOUBLE_EQ(log[1].second, 2.0);
    EXPECT_DOUBLE_EQ(log[2].second, 4.0);
}

TEST(Resource, GrantsFifo) {
    Environment env;
    Resource res(env, 1);
    std::vector<std::pair<int, double>> log;
    for (int tag = 0; tag < 6; ++tag)
        env.spawn(resource_user(env, res, 1.0, tag, log));
    env.run();
    for (int i = 0; i < 6; ++i) EXPECT_EQ(log[i].first, i);
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
    Environment env;
    Resource res(env, 2);
    std::vector<std::pair<int, double>> log;
    for (int tag = 0; tag < 4; ++tag)
        env.spawn(resource_user(env, res, 3.0, tag, log));
    env.run();
    EXPECT_DOUBLE_EQ(log[0].second, 0.0);
    EXPECT_DOUBLE_EQ(log[1].second, 0.0);
    EXPECT_DOUBLE_EQ(log[2].second, 3.0);
    EXPECT_DOUBLE_EQ(log[3].second, 3.0);
}

TEST(Resource, ContentionStatistics) {
    Environment env;
    Resource res(env, 1);
    std::vector<std::pair<int, double>> log;
    for (int tag = 0; tag < 4; ++tag)
        env.spawn(resource_user(env, res, 1.0, tag, log));
    env.run();
    EXPECT_EQ(res.total_acquires(), 4u);
    EXPECT_EQ(res.contended_acquires(), 3u); // all but the first waited
    EXPECT_EQ(res.in_use(), 0u);
}

TEST(Resource, TraceEventsMirrorContentionCounters) {
    // FIFO direct handoff keeps the counters and the emitted event stream
    // consistent: one acquire_request per acquire (queue depth > 0 exactly
    // when the acquirer had to wait), one acquire_grant per acquisition
    // that actually resumed, and a drained run grants everything.
    Environment env;
    borg::obs::EventTrace trace;
    env.set_trace(&trace);
    Resource res(env, 1);
    std::vector<std::pair<int, double>> log;
    for (int tag = 0; tag < 5; ++tag)
        env.spawn(resource_user(env, res, 1.0, tag, log));
    env.run();

    using borg::obs::EventKind;
    EXPECT_EQ(trace.count(EventKind::acquire_request), res.total_acquires());
    EXPECT_EQ(trace.count(EventKind::acquire_grant), res.total_acquires());
    EXPECT_EQ(trace.count(EventKind::release), 5u);
    EXPECT_EQ(res.in_use(), 0u);

    std::size_t contended_requests = 0;
    std::vector<double> grant_waits;
    for (const borg::obs::Event& e : trace.events()) {
        if (e.kind == EventKind::acquire_request && e.count > 0)
            ++contended_requests;
        if (e.kind == EventKind::acquire_grant) grant_waits.push_back(e.value);
    }
    EXPECT_EQ(contended_requests, res.contended_acquires());
    // FIFO: each successive holder waited one hold-time longer.
    ASSERT_EQ(grant_waits.size(), 5u);
    for (std::size_t i = 0; i < grant_waits.size(); ++i)
        EXPECT_DOUBLE_EQ(grant_waits[i], static_cast<double>(i));
}

TEST(Resource, NoTraceSinkEmitsNothing) {
    Environment env;
    Resource res(env, 1);
    std::vector<std::pair<int, double>> log;
    for (int tag = 0; tag < 3; ++tag)
        env.spawn(resource_user(env, res, 1.0, tag, log));
    env.run();
    EXPECT_EQ(env.trace(), nullptr); // null-sink fast path
    EXPECT_EQ(res.total_acquires(), 3u);
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
    Environment env;
    Resource res(env, 1);
    EXPECT_THROW(res.release(), std::logic_error);
}

TEST(Resource, ZeroCapacityRejected) {
    Environment env;
    EXPECT_THROW(Resource(env, 0), std::invalid_argument);
}

// ------------------------------------------------------------------ Event

Process event_waiter(Environment& env, Event& event, int tag,
                     std::vector<std::pair<int, double>>& log) {
    co_await event.wait();
    log.emplace_back(tag, env.now());
}

Process event_trigger(Environment& env, Event& event, double at) {
    co_await env.delay(at);
    event.trigger();
}

TEST(Event, WakesAllWaitersAtTriggerTime) {
    Environment env;
    Event event(env);
    std::vector<std::pair<int, double>> log;
    env.spawn(event_waiter(env, event, 0, log));
    env.spawn(event_waiter(env, event, 1, log));
    env.spawn(event_trigger(env, event, 4.0));
    env.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_DOUBLE_EQ(log[0].second, 4.0);
    EXPECT_DOUBLE_EQ(log[1].second, 4.0);
    EXPECT_EQ(log[0].first, 0);
    EXPECT_EQ(log[1].first, 1);
}

TEST(Event, TriggeredEventCompletesImmediately) {
    Environment env;
    Event event(env);
    event.trigger();
    std::vector<std::pair<int, double>> log;
    env.spawn(event_waiter(env, event, 7, log));
    env.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_DOUBLE_EQ(log[0].second, 0.0);
}

TEST(Event, ResetReArms) {
    Environment env;
    Event event(env);
    event.trigger();
    EXPECT_TRUE(event.triggered());
    event.reset();
    EXPECT_FALSE(event.triggered());
}

// ---------------------------------------------------- determinism property

struct MmOneResult {
    double makespan;
    std::uint64_t events;
};

Process mm1_worker(Environment& env, Resource& master, borg::util::Rng& rng,
                   int jobs, double service) {
    for (int j = 0; j < jobs; ++j) {
        co_await env.delay(rng.uniform() * 0.1);
        co_await master.acquire();
        co_await env.delay(service);
        master.release();
    }
}

MmOneResult run_mm1(std::uint64_t seed) {
    Environment env;
    Resource master(env, 1);
    borg::util::Rng rng(seed);
    for (int w = 0; w < 10; ++w)
        env.spawn(mm1_worker(env, master, rng, 20, 0.01));
    env.run();
    return {env.now(), env.event_count()};
}

TEST(Des, QueueingRunIsDeterministic) {
    const auto a = run_mm1(123);
    const auto b = run_mm1(123);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.events, b.events);
    const auto c = run_mm1(456);
    EXPECT_NE(a.makespan, c.makespan);
}

TEST(Des, SaturatedServerMakespanLowerBound) {
    // 10 workers x 20 jobs x 0.01 s service through one server: the server
    // alone needs 2.0 s, so the makespan cannot be below that.
    const auto r = run_mm1(9);
    EXPECT_GE(r.makespan, 2.0);
    EXPECT_LT(r.makespan, 2.2); // and contention keeps it close to the bound
}

// ------------------------------------------- non-finite time validation

TEST(Des, NonFiniteDelayThrows) {
    Environment env;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // A NaN admitted into the queue would corrupt its ordering silently
    // (every NaN comparison is false); the engine rejects it loudly
    // instead, at the delay() call site.
    EXPECT_THROW(env.delay(nan), std::invalid_argument);
    EXPECT_THROW(env.delay(inf), std::invalid_argument);
    EXPECT_THROW(env.delay(-inf), std::invalid_argument);
}

Process bad_delay(Environment& env, double dt) { co_await env.delay(dt); }

TEST(Des, NonFiniteDelayInsideProcessPropagates) {
    Environment env;
    env.spawn(bad_delay(env, std::numeric_limits<double>::quiet_NaN()));
    EXPECT_THROW(env.run(), std::invalid_argument);
    EXPECT_EQ(env.live_processes(), 0u); // the faulting frame was reclaimed
}

TEST(Des, ScheduleAtNonFiniteThrows) {
    Environment env;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(env.schedule_at(std::noop_coroutine(), nan),
                 std::invalid_argument);
    EXPECT_THROW(env.schedule_at(std::noop_coroutine(), inf),
                 std::invalid_argument);
    EXPECT_THROW(env.schedule_at(std::noop_coroutine(), -1.0),
                 std::logic_error);
}

TEST(Des, RunUntilNonFiniteDeadlineThrows) {
    Environment env;
    EXPECT_THROW(env.run_until(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

// ------------------------------------ contract enforcement + fault exits

Process waits_forever(Environment& /*env*/, Event& event) {
    co_await event.wait();
}

TEST(Event, ResetWithLiveWaitersThrows) {
    Environment env;
    Event event(env);
    env.spawn(waits_forever(env, event));
    env.run(); // waiter is now suspended inside the event's FIFO
    ASSERT_EQ(event.waiter_count(), 1u);
    EXPECT_THROW(event.reset(), std::logic_error);
    event.trigger(); // still usable after the rejected reset
    env.run();
    EXPECT_EQ(event.waiter_count(), 0u);
}

TEST(Des, MetricsPublishedOnExceptionExit) {
    borg::obs::MetricsRegistry metrics;
    Environment env;
    env.set_metrics(&metrics);
    env.spawn(thrower(env));
    std::vector<int> order;
    env.spawn(tagged(env, 5.0, 5, order));
    EXPECT_THROW(env.run(), std::runtime_error);
    // The engine gauges must reflect the truncated run, not be skipped
    // because a process threw.
    ASSERT_NE(metrics.find_gauge("des.events"), nullptr);
    EXPECT_DOUBLE_EQ(metrics.find_gauge("des.events")->value(),
                     static_cast<double>(env.event_count()));
    ASSERT_NE(metrics.find_gauge("des.finished_processes"), nullptr);
    EXPECT_DOUBLE_EQ(metrics.find_gauge("des.finished_processes")->value(),
                     static_cast<double>(env.finished_processes()));
}

TEST(Des, MetricsPublishedOnRunUntilExceptionExit) {
    borg::obs::MetricsRegistry metrics;
    Environment env;
    env.set_metrics(&metrics);
    env.spawn(thrower(env));
    EXPECT_THROW(env.run_until(2.0), std::runtime_error);
    ASSERT_NE(metrics.find_gauge("des.events"), nullptr);
    EXPECT_DOUBLE_EQ(metrics.find_gauge("des.events")->value(),
                     static_cast<double>(env.event_count()));
}

// ------------------------------------------------- teardown-order safety

Process holds_forever(Environment& env, Resource& res) {
    co_await res.acquire();
    co_await env.delay(1e6);
    res.release();
}

TEST(Des, TeardownWithSuspendedResourceWaiters) {
    // Destroying an environment while processes are still suspended inside
    // a Resource's waiter FIFO must reclaim every pooled frame exactly
    // once (pinned under the ASan CI tier), in either declaration order.
    {
        Environment env;
        Resource res(env, 1);
        for (int i = 0; i < 4; ++i) env.spawn(holds_forever(env, res));
        env.run_until(1.0);
        EXPECT_EQ(res.queue_length(), 3u);
        EXPECT_EQ(env.live_processes(), 4u);
    } // env destroyed before res
    {
        auto res_first = std::make_unique<Environment>();
        Environment& env = *res_first;
        Resource res(env, 1);
        for (int i = 0; i < 4; ++i) env.spawn(holds_forever(env, res));
        env.run_until(1.0);
        res_first.reset(); // env destroyed while res still holds waiters
    }
}

TEST(Des, StopThenSecondRunResumes) {
    // stop() latches only until the next run()/run_until() call: a second
    // run resumes the remaining events (and teardown afterwards reclaims
    // nothing twice — the frames completed on the second run).
    Environment env;
    std::vector<int> order;
    env.spawn(stopper(env, order));
    env.spawn(tagged(env, 2.0, 2, order));
    env.run();
    EXPECT_TRUE(env.stopped());
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(env.live_processes(), 1u);
    env.run();
    EXPECT_FALSE(env.stopped());
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
    EXPECT_EQ(env.live_processes(), 0u);
}

TEST(Des, StopThenDestroyReclaimsSuspendedFrames) {
    Environment env;
    std::vector<int> order;
    env.spawn(stopper(env, order));
    for (int tag = 0; tag < 8; ++tag)
        env.spawn(tagged(env, 3.0, tag, order));
    env.run();
    EXPECT_EQ(env.live_processes(), 8u); // reaped by ~Environment
}

// ----------------------------------------------------- frame pooling

TEST(Des, FramePoolRecyclesFrames) {
#if BORG_DES_FRAME_POOL_PASSTHROUGH
    GTEST_SKIP() << "frame pool is pass-through under sanitizers";
#else
    // First batch warms the pool (its frames may themselves be reuses of
    // frames earlier tests retired); the invariant under test is that an
    // identical second batch is then fully recycled — zero fresh mallocs.
    {
        Environment env;
        std::vector<int> order;
        for (int tag = 0; tag < 64; ++tag)
            env.spawn(tagged(env, 1.0, tag, order));
        env.run();
    }
    const auto mid = borg::des::frame_pool_stats();
    EXPECT_GE(mid.retained, 64u);
    {
        Environment env;
        std::vector<int> order;
        for (int tag = 0; tag < 64; ++tag)
            env.spawn(tagged(env, 1.0, tag, order));
        env.run();
    }
    const auto after = borg::des::frame_pool_stats();
    // The second batch's frames came out of the pool, not malloc.
    EXPECT_GE(after.reused, mid.reused + 64);
    EXPECT_EQ(after.fresh, mid.fresh);
#endif
}

// ------------------------------------------ calendar-vs-heap pop oracle
//
// The environment's schedule depends only on the order its queue pops
// events, so the calendar queue is pinned against the pre-rebuild binary
// heap (tests/heap_queue.hpp) at the queue level: both receive the same
// reactive push/pop stream and every pop must agree on (time, handle).

using borg::des::CalendarQueue;
using borg::des::EventRecord;
using borg::des::HeapQueue;
using borg::des::ParkedFrames;

/// Drives a HeapQueue and a CalendarQueue in lockstep. Event seq s carries
/// frame s % frames.size(); with more frames than events ever pending,
/// no two pending events share a handle, so a swapped pair (same-time ties
/// included) shows up as a handle mismatch.
struct LockstepQueues {
    explicit LockstepQueues(std::size_t frame_count) : frames(frame_count) {}

    void push(double t) {
        const auto handle = frames[seq % frames.size()];
        heap.push(t, seq, handle);
        calendar.push(t, seq, handle);
        ++seq;
    }

    /// Pops from both queues under \p deadline; returns whether an event
    /// was due. Records the first disagreement instead of asserting per
    /// pop, so a broken queue fails with one message, not thousands.
    bool pop(double deadline) {
        EventRecord expected;
        const bool due = heap.pop_if(deadline, expected);
        const CalendarQueue::Popped got = calendar.pop_ready(deadline);
        const bool agree =
            due == (got.handle != nullptr) &&
            (!due || (std::bit_cast<std::uint64_t>(expected.time) ==
                          std::bit_cast<std::uint64_t>(got.time) &&
                      expected.handle == got.handle));
        if (!agree && first_mismatch.empty())
            first_mismatch = "pop " + std::to_string(pops) + " (deadline " +
                             std::to_string(deadline) + "): heap " +
                             (due ? std::to_string(expected.time) : "none") +
                             ", calendar " +
                             (got.handle ? std::to_string(got.time) : "none");
        if (!due) return false;
        now = expected.time;
        ++pops;
        return true;
    }

    ParkedFrames frames;
    HeapQueue heap;
    CalendarQueue calendar;
    std::uint64_t seq = 0;
    std::uint64_t pops = 0;
    double now = 0.0;
    std::string first_mismatch;
};

TEST(Des, CalendarQueuePopsInHeapOrder) {
    LockstepQueues q(1u << 15);
    borg::util::Rng rng(20240611);
    constexpr int kPopulation = 256;
    // Every process starts at t = 0: one epoch holding the whole
    // population, which sends the first refill through the re-tune path.
    for (int p = 0; p < kPopulation; ++p) q.push(0.0);

    // Hold model: each pop schedules its successor from a bimodal mix
    // (90% long holds, 10% short), plus zero-delay pushes (they land at or
    // below the epoch being drained: the overflow heap), same-time pairs,
    // near-zero holds and retirements. Pops alternate between unbounded
    // ones and run_until-style deadlines, some of which find nothing due.
    for (int step = 0; step < 60000; ++step) {
        if (step % 97 == 0) {
            // Nothing is due before the clock: the earliest pending event
            // is never earlier than the last one popped.
            EXPECT_FALSE(q.pop(std::nextafter(q.now, -1.0)));
        }
        const double deadline =
            step % 5 == 0 ? q.now + 0.05
                          : std::numeric_limits<double>::infinity();
        if (!q.pop(deadline)) {
            ASSERT_FALSE(q.heap.empty()) << "population died out";
            continue;
        }
        const double u = rng.uniform();
        if (u < 0.03) {
            // Retire: no successor.
        } else if (u < 0.08) {
            q.push(q.now);
        } else if (u < 0.13) {
            const double t = q.now + 0.3 * rng.uniform();
            q.push(t);
            q.push(t);
        } else if (u < 0.16) {
            q.push(q.now + 1e-9);
        } else if (u < 0.26) {
            q.push(q.now + 0.02 + 0.2 * rng.uniform());
        } else {
            q.push(q.now + 0.7 + 0.4 * rng.uniform());
        }
    }
    ASSERT_TRUE(q.first_mismatch.empty()) << q.first_mismatch;

    // Drain the hold population: the bucket table shrinks as it empties.
    while (q.pop(std::numeric_limits<double>::infinity())) {
    }
    ASSERT_TRUE(q.first_mismatch.empty()) << q.first_mismatch;
    ASSERT_TRUE(q.calendar.empty());

    // Ramp: 20k pushes into the empty queue with no pops grow the bucket
    // table through several resizes. Every other push descends, so after
    // each resize pushes keep landing below the earliest pending epoch;
    // the rest scatter. Then the drain shrinks the table back, still
    // pushing the odd zero-delay event.
    for (int r = 0; r < 20000; ++r)
        q.push(q.now + (r % 2 == 0 ? 5.0 - 2.5e-4 * r : 5.0 * rng.uniform()));
    EXPECT_EQ(q.calendar.size(), 20000u);
    std::uint64_t drained = 0;
    while (q.pop(std::numeric_limits<double>::infinity()))
        if (++drained % 10 == 0 && drained < 30000) q.push(q.now);
    EXPECT_TRUE(q.first_mismatch.empty()) << q.first_mismatch;
    EXPECT_TRUE(q.heap.empty());
    EXPECT_TRUE(q.calendar.empty());
    EXPECT_EQ(q.pops, q.seq);
    EXPECT_FALSE(q.pop(std::numeric_limits<double>::infinity()));
}

TEST(Des, CalendarScalesToManyProcesses) {
    // Resize/re-tune path: 20k tickers push the bucket table through
    // several doublings, then the drain empties it back down.
    Environment env;
    constexpr int kProcs = 20000;
    borg::util::Rng rng(11);
    std::vector<int> order;
    for (int p = 0; p < kProcs; ++p)
        env.spawn(tagged(env, 1.0 + rng.uniform() * 0.2, p, order));
    env.run();
    EXPECT_EQ(order.size(), static_cast<std::size_t>(kProcs));
    EXPECT_EQ(env.event_count(), static_cast<std::uint64_t>(2 * kProcs));
    EXPECT_EQ(env.live_processes(), 0u);
    EXPECT_EQ(env.finished_processes(), static_cast<std::size_t>(kProcs));
}

} // namespace
