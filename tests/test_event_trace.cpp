/// Tests for the run-observability layer: trace determinism, JSONL export,
/// metrics instruments, and — the core invariant — that every aggregate an
/// executor reports can be recomputed exactly from its own event trace.
/// Also holds the regression test for the zero-virtual-time completion bug
/// (a run finishing at t = 0 used to be reported as never finishing).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "moea/nsga2.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_check.hpp"
#include "parallel/async_executor.hpp"
#include "parallel/sync_executor.hpp"
#include "parallel/thread_executor.hpp"
#include "parallel/trace_check.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using namespace borg::parallel;
using borg::obs::EventKind;
using borg::stats::Distribution;
using borg::stats::make_delay;

struct Fixture {
    std::unique_ptr<problems::Problem> problem =
        problems::make_problem("zdt1");
    std::unique_ptr<Distribution> tf = make_delay(0.01, 0.1);
    std::unique_ptr<Distribution> tc = make_delay(0.000006, 0.0);
    std::unique_ptr<Distribution> ta = make_delay(0.000029, 0.2);

    moea::BorgParams params() const {
        return moea::BorgParams::for_problem(*problem, 0.01);
    }
    VirtualClusterConfig cluster(std::uint64_t p,
                                 std::uint64_t seed = 1) const {
        return VirtualClusterConfig{p, tf.get(), tc.get(), ta.get(), seed};
    }
};

// ------------------------------------------------------- sink fundamentals

TEST(EventTrace, RecordsCountsAndExportsJsonl) {
    obs::EventTrace trace;
    trace.record({EventKind::run_start, 0.0, -1, 8.0, 100});
    trace.record({EventKind::tf_sample, 0.25, 3, 0.01, 0});
    trace.record({EventKind::run_end, 1.5, -1, 1.5, 100});

    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.count(EventKind::tf_sample), 1u);
    EXPECT_EQ(trace.count(EventKind::worker_failure), 0u);

    const std::string jsonl = trace.to_jsonl();
    std::ostringstream out;
    trace.write_jsonl(out);
    EXPECT_EQ(out.str(), jsonl); // both export paths agree byte-for-byte
    EXPECT_EQ(jsonl.find("\"k\":\"run_start\""), 1u);
    // Three lines, each a JSON object.
    std::size_t lines = 0;
    for (const char c : jsonl)
        if (c == '\n') ++lines;
    EXPECT_EQ(lines, 3u);
}

TEST(Metrics, InstrumentsAccumulateAndExport) {
    obs::MetricsRegistry metrics;
    metrics.counter("test.results").inc(41);
    metrics.counter("test.results").inc();
    metrics.gauge("test.elapsed").set(2.5);
    obs::Histogram& h = metrics.histogram("test.wait");
    for (const double x : {1.0, 2.0, 3.0, 4.0}) h.observe(x);

    EXPECT_EQ(metrics.counter("test.results").value(), 42u);
    EXPECT_DOUBLE_EQ(metrics.gauge("test.elapsed").value(), 2.5);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
    EXPECT_NEAR(h.stddev(), 1.2909944487358056, 1e-12); // sample stddev

    EXPECT_NE(metrics.find_counter("test.results"), nullptr);
    EXPECT_EQ(metrics.find_counter("test.missing"), nullptr);
    EXPECT_EQ(metrics.size(), 3u);

    std::ostringstream out;
    metrics.write_json(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"test.results\""), std::string::npos);
    EXPECT_NE(json.find("\"test.wait\""), std::string::npos);
}

// --------------------------------------------- async executor observability

TEST(AsyncTrace, SameSeedRunsEmitByteIdenticalTraces) {
    Fixture f;
    obs::EventTrace trace_a;
    obs::EventTrace trace_b;
    for (obs::EventTrace* trace : {&trace_a, &trace_b}) {
        moea::BorgMoea algo(*f.problem, f.params(), 21);
        AsyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(9, 22));
        exec.run(4000, {.trace = trace});
    }
    ASSERT_EQ(trace_a.size(), trace_b.size());
    EXPECT_TRUE(trace_a.events() == trace_b.events());
    EXPECT_EQ(trace_a.to_jsonl(), trace_b.to_jsonl());
}

TEST(AsyncTrace, ReportedAggregatesMatchTraceRecomputation) {
    Fixture f;
    obs::EventTrace trace;
    moea::BorgMoea algo(*f.problem, f.params(), 23);
    AsyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(9, 24));
    const auto reported = exec.run(4000, {.trace = &trace});

    const auto issues = cross_validate(trace, reported);
    for (const auto& issue : issues) ADD_FAILURE() << issue;

    const auto agg = obs::recompute(trace);
    EXPECT_EQ(agg.results, 4000u);
    EXPECT_EQ(agg.worker_spawns, 8u);
    EXPECT_EQ(agg.final_archive_size, algo.archive().size());
    EXPECT_GT(agg.master_busy_fraction, 0.0);
    EXPECT_TRUE(reported.completed_target);
}

TEST(AsyncTrace, MetricsMirrorTheRunResult) {
    Fixture f;
    obs::MetricsRegistry metrics;
    moea::BorgMoea algo(*f.problem, f.params(), 25);
    AsyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(9, 26));
    const auto result = exec.run(3000, {.metrics = &metrics});

    const auto* results = metrics.find_counter("async.results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->value(), result.evaluations);
    const auto* elapsed = metrics.find_gauge("async.elapsed_seconds");
    ASSERT_NE(elapsed, nullptr);
    EXPECT_DOUBLE_EQ(elapsed->value(), result.elapsed);
    const auto* tf = metrics.find_histogram("async.tf_seconds");
    ASSERT_NE(tf, nullptr);
    EXPECT_EQ(tf->count(), result.tf_applied.count);
    EXPECT_DOUBLE_EQ(tf->mean(), result.tf_applied.mean);
}

// Regression: a run whose virtual delays are all zero finishes at t = 0.
// The old `finish_time > 0.0` sentinel read that as "never finished" and
// reported elapsed = last-event time with no way to tell the run starved.
TEST(AsyncTrace, ZeroDelayRunCompletesAtVirtualTimeZero) {
    Fixture f;
    const auto zero = make_delay(0.0, 0.0);
    VirtualClusterConfig cfg{5, zero.get(), zero.get(), zero.get(), 27};
    moea::BorgMoea algo(*f.problem, f.params(), 28);
    const auto result =
        AsyncMasterSlaveExecutor(algo, *f.problem, cfg).run(200);
    EXPECT_TRUE(result.completed_target);
    EXPECT_EQ(result.evaluations, 200u);
    EXPECT_DOUBLE_EQ(result.elapsed, 0.0);
}

// ---------------------------------------------- sync executor observability

TEST(SyncTrace, ReportedAggregatesMatchTraceRecomputation) {
    Fixture f;
    obs::EventTrace trace;
    moea::Nsga2 algo(*f.problem, 17, 31);
    SyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(17, 32));
    const auto reported = exec.run(4000, {.trace = &trace});

    const auto issues = cross_validate(trace, reported);
    for (const auto& issue : issues) ADD_FAILURE() << issue;

    EXPECT_TRUE(reported.completed_target);
    EXPECT_GT(trace.count(EventKind::generation), 0u);
}

TEST(SyncTrace, SameSeedRunsEmitByteIdenticalTraces) {
    Fixture f;
    obs::EventTrace trace_a;
    obs::EventTrace trace_b;
    for (obs::EventTrace* trace : {&trace_a, &trace_b}) {
        moea::Nsga2 algo(*f.problem, 17, 33);
        SyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(17, 34));
        exec.run(3000, {.trace = trace});
    }
    EXPECT_EQ(trace_a.to_jsonl(), trace_b.to_jsonl());
}

// -------------------------------------------- thread executor observability

TEST(ThreadTrace, TraceCarriesOneResultPerEvaluation) {
    const auto problem = problems::make_problem("zdt1");
    moea::BorgMoea algo(*problem,
                        moea::BorgParams::for_problem(*problem, 0.01), 35);
    ThreadMasterSlaveExecutor exec(4);
    obs::EventTrace trace;
    obs::MetricsRegistry metrics;
    const auto result = exec.run(algo, *problem, 2000, {.trace = &trace, .metrics = &metrics});

    EXPECT_EQ(trace.count(EventKind::result), 2000u);
    EXPECT_EQ(trace.count(EventKind::worker_spawn), 4u);
    EXPECT_EQ(trace.count(EventKind::run_end), 1u);
    const auto agg = obs::recompute(trace);
    EXPECT_EQ(agg.results, result.evaluations);
    EXPECT_TRUE(agg.saw_run_end);
    EXPECT_DOUBLE_EQ(agg.elapsed, result.elapsed);
    const auto* ta = metrics.find_histogram("async.ta_seconds");
    ASSERT_NE(ta, nullptr);
    EXPECT_EQ(ta->count(), 2000u);
}

} // namespace
