#include "parallel/thread_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "metrics/hypervolume.hpp"
#include "net_test_support.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/message.hpp"
#include "parallel/trace_check.hpp"
#include "parallel/trajectory.hpp"
#include "problems/delayed.hpp"
#include "problems/problem.hpp"
#include "problems/reference_set.hpp"
#include "stats/fitting.hpp"
#include "stats/summary.hpp"

#include <thread>

namespace {

using namespace borg;
using namespace borg::parallel;

TEST(Channel, SendReceiveOrder) {
    Channel<int> ch;
    ch.send(1);
    ch.send(2);
    ch.send(3);
    EXPECT_EQ(ch.receive(), 1);
    EXPECT_EQ(ch.receive(), 2);
    EXPECT_EQ(ch.receive(), 3);
}

TEST(Channel, CloseDrainsThenNullopt) {
    Channel<int> ch;
    ch.send(7);
    ch.close();
    EXPECT_EQ(ch.receive(), 7);
    EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(Channel, SendAfterCloseDropped) {
    Channel<int> ch;
    ch.close();
    ch.send(1);
    EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(Channel, CrossThreadDelivery) {
    Channel<int> ch;
    std::thread producer([&] {
        for (int i = 0; i < 100; ++i) ch.send(i);
        ch.close();
    });
    int expected = 0;
    while (auto v = ch.receive()) EXPECT_EQ(*v, expected++);
    EXPECT_EQ(expected, 100);
    producer.join();
}

moea::BorgParams quick_params(const problems::Problem& problem) {
    return moea::BorgParams::for_problem(problem, 0.01);
}

TEST(ThreadExecutor, CompletesExactEvaluationCount) {
    const auto problem = problems::make_problem("zdt1");
    moea::BorgMoea algo(*problem, quick_params(*problem), 1);
    ThreadMasterSlaveExecutor exec(4);
    const auto result = exec.run(algo, *problem, 5000);
    EXPECT_EQ(result.evaluations, 5000u);
    EXPECT_EQ(algo.evaluations(), 5000u);
    EXPECT_EQ(result.ta_samples.size(), 5000u);
    EXPECT_EQ(result.tc_samples.size(), 5000u);
}

TEST(ThreadExecutor, SearchConvergesUnderRealConcurrency) {
    const auto problem = problems::make_problem("zdt1");
    moea::BorgMoea algo(*problem, quick_params(*problem), 2);
    ThreadMasterSlaveExecutor exec(8);
    exec.run(algo, *problem, 20000);
    const auto refset = problems::reference_set_for("zdt1");
    const double hv = metrics::normalized_hypervolume(
        algo.archive().objective_vectors(), refset);
    EXPECT_GT(hv, 0.9);
}

TEST(ThreadExecutor, PhysicalDelayGivesRealSpeedup) {
    // 1 ms controlled delay, 8 workers: wall time must be well below the
    // serial N * T_F and the measured T_F share must dominate.
    auto inner =
        std::shared_ptr<const problems::Problem>(problems::make_problem("zdt1"));
    const problems::DelayedProblem delayed(
        inner, stats::make_delay(0.001, 0.1), 3, true);
    moea::BorgMoea algo(delayed, quick_params(delayed), 3);
    ThreadMasterSlaveExecutor exec(8);
    const auto result = exec.run(algo, delayed, 2000);
    const double serial_estimate = 2000 * 0.001;
    EXPECT_LT(result.elapsed, 0.6 * serial_estimate);
    EXPECT_GT(result.elapsed, serial_estimate / 8.5);
}

TEST(ThreadExecutor, MeasuredSamplesFeedTheFittingPipeline) {
    // End-to-end calibration workflow: run, fit T_A samples, check the
    // fitted distribution reproduces the sample mean.
    const auto problem = problems::make_problem("zdt1");
    moea::BorgMoea algo(*problem, quick_params(*problem), 4);
    ThreadMasterSlaveExecutor exec(4);
    const auto result = exec.run(algo, *problem, 4000);
    for (const double ta : result.ta_samples) EXPECT_GE(ta, 0.0);
    const auto fitted = stats::best_fit(result.ta_samples);
    const auto summary = stats::summarize(result.ta_samples);
    // Real OS timing samples are heavy-tailed (scheduler jitter spikes),
    // so the maximum-likelihood family's mean can sit well off the sample
    // mean; require order-of-magnitude agreement, which is what the
    // queueing model needs from the calibration.
    EXPECT_GT(fitted->mean(), 0.2 * summary.mean);
    EXPECT_LT(fitted->mean(), 5.0 * summary.mean);
}

TEST(ThreadExecutor, SingleWorkerDegeneratesToSerialOrder) {
    const auto problem = problems::make_problem("zdt1");
    moea::BorgMoea threaded(*problem, quick_params(*problem), 5);
    ThreadMasterSlaveExecutor exec(1);
    exec.run(threaded, *problem, 3000);

    // With one worker the evaluation order is serial, so the archive must
    // match a serial run with the same seed exactly.
    moea::BorgMoea serial(*problem, quick_params(*problem), 5);
    moea::run_serial(serial, *problem, 3000);
    ASSERT_EQ(threaded.archive().size(), serial.archive().size());
    for (std::size_t i = 0; i < serial.archive().size(); ++i)
        EXPECT_TRUE(std::ranges::equal(threaded.archive()[i].objectives,
                                       serial.archive()[i].objectives));
}

TEST(ThreadExecutor, DispatchArchiveMatchesSerialWindowEmulation) {
    // The determinism contract checked against an oracle that shares no
    // code with the master: under dispatch ingest the thread run's
    // archive must equal the window protocol replayed on one thread —
    // unconstrained, five-objective, and constrained (srn) problems.
    struct Case {
        const char* problem;
        double epsilon;
    };
    for (const Case c : {Case{"zdt1", 0.01}, Case{"dtlz2_5", 0.1},
                         Case{"srn", 1.0}}) {
        const auto problem = problems::make_problem(c.problem);
        for (const std::size_t window : {1u, 3u, 8u}) {
            const std::uint64_t seed = 40 + window;
            moea::BorgMoea algo(
                *problem, moea::BorgParams::for_problem(*problem, c.epsilon),
                seed);
            ThreadMasterSlaveExecutor exec(window, IngestOrder::dispatch);
            exec.run(algo, *problem, 3000);
            const std::vector<moea::Solution> expected =
                testnet::window_serial_archive(*problem, c.epsilon, seed,
                                               window, 3000);
            ASSERT_FALSE(expected.empty());
            EXPECT_TRUE(testnet::archives_identical(
                algo.archive().solutions(), expected))
                << c.problem << " W=" << window;
        }
    }
}

// ------------------------------------------------------- observability

/// One traced, metered, recorded thread run shared by the tests below.
struct ObservedRun {
    static constexpr std::uint64_t kEvals = 4500;

    ObservedRun()
        : problem(problems::make_problem("zdt1")),
          normalizer(problems::reference_set_for("zdt1")),
          recorder(normalizer, 1000),
          algo(*problem, quick_params(*problem), 21) {
        ThreadMasterSlaveExecutor exec(4, IngestOrder::dispatch);
        result = exec.run(algo, *problem, kEvals,
                          {.recorder = &recorder, .trace = &trace,
                           .metrics = &metrics});
    }

    std::unique_ptr<problems::Problem> problem;
    metrics::HypervolumeNormalizer normalizer;
    TrajectoryRecorder recorder;
    moea::BorgMoea algo;
    obs::EventTrace trace;
    obs::MetricsRegistry metrics;
    ThreadRunResult result;
};

TEST(ThreadExecutor, TraceCrossValidatesAgainstTheRunResult) {
    const ObservedRun run;
    EXPECT_TRUE(run.result.completed_target);
    EXPECT_EQ(run.result.evaluations, ObservedRun::kEvals);
    for (const std::string& discrepancy :
         cross_validate(run.trace, run.result))
        ADD_FAILURE() << discrepancy;
}

TEST(ThreadExecutor, TaSamplesAreTheEngineAppliedTa) {
    const ObservedRun run;
    ASSERT_EQ(run.result.ta_samples.size(), ObservedRun::kEvals);
    EXPECT_EQ(run.result.ta_applied.count, ObservedRun::kEvals);
    const stats::Summary samples = stats::summarize(run.result.ta_samples);
    EXPECT_NEAR(samples.mean, run.result.ta_applied.mean,
                1e-9 * run.result.ta_applied.mean);
    EXPECT_DOUBLE_EQ(samples.min, run.result.ta_applied.min);
    EXPECT_DOUBLE_EQ(samples.max, run.result.ta_applied.max);
}

TEST(ThreadExecutor, RecorderGetsPerResultCheckpointsAndFinalize) {
    const ObservedRun run;
    // Checkpoints at 1000..4000, then finalize's terminal point at 4500.
    const std::vector<TrajectoryPoint>& points = run.recorder.points();
    ASSERT_EQ(points.size(), 5u);
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        EXPECT_EQ(points[i].evaluations, 1000u * (i + 1));
        EXPECT_LE(points[i].time, points[i + 1].time);
    }
    EXPECT_EQ(points.back().evaluations, ObservedRun::kEvals);
    EXPECT_DOUBLE_EQ(points.back().time, run.result.elapsed);
    EXPECT_GT(run.recorder.final_hypervolume(), 0.5);
}

TEST(ThreadExecutor, MetricsCarryOneTcAndTaSamplePerResult) {
    const ObservedRun run;
    const obs::Histogram* tc = run.metrics.find_histogram("async.tc_seconds");
    const obs::Histogram* ta = run.metrics.find_histogram("async.ta_seconds");
    const obs::Histogram* tf = run.metrics.find_histogram("async.tf_seconds");
    ASSERT_NE(tc, nullptr);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tf, nullptr);
    EXPECT_EQ(tc->count(), ObservedRun::kEvals);
    EXPECT_EQ(ta->count(), ObservedRun::kEvals);
    EXPECT_EQ(tf->count(), ObservedRun::kEvals);
    const obs::Counter* results = run.metrics.find_counter("async.results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->value(), ObservedRun::kEvals);
}

/// Forwards to ZDT1 but throws once a configured number of evaluations has
/// been reached — exercised concurrently from the worker threads.
class ThrowingProblem final : public problems::Problem {
public:
    ThrowingProblem(std::unique_ptr<problems::Problem> inner,
                    std::uint64_t throw_after)
        : inner_(std::move(inner)), throw_after_(throw_after) {}

    std::string name() const override { return "throwing_" + inner_->name(); }
    std::size_t num_variables() const override {
        return inner_->num_variables();
    }
    std::size_t num_objectives() const override {
        return inner_->num_objectives();
    }
    double lower_bound(std::size_t i) const override {
        return inner_->lower_bound(i);
    }
    double upper_bound(std::size_t i) const override {
        return inner_->upper_bound(i);
    }
    void evaluate(std::span<const double> variables,
                  std::span<double> objectives) const override {
        if (calls_.fetch_add(1, std::memory_order_relaxed) >= throw_after_)
            throw std::runtime_error("injected evaluation failure");
        inner_->evaluate(variables, objectives);
    }

private:
    std::unique_ptr<problems::Problem> inner_;
    std::uint64_t throw_after_;
    mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(ThreadExecutor, WorkerExceptionRethrownInMaster) {
    // Regression: an exception escaping moea::evaluate on a worker thread
    // used to leave the coroutine-free thread body, calling std::terminate
    // (or, had the thread died quietly, the master would block forever on
    // the result channel). The executor must capture it, join the fleet,
    // and rethrow in the calling thread.
    const ThrowingProblem problem(problems::make_problem("zdt1"), 500);
    moea::BorgMoea algo(problem, quick_params(problem), 11);
    ThreadMasterSlaveExecutor exec(4);
    EXPECT_THROW(exec.run(algo, problem, 5000), std::runtime_error);
    // The fleet was joined and the run aborted short of the target.
    EXPECT_LT(algo.evaluations(), 5000u);
}

TEST(ThreadExecutor, ImmediateWorkerExceptionStillRethrown) {
    // Every evaluation throws: the master never ingests a single result.
    const ThrowingProblem problem(problems::make_problem("zdt1"), 0);
    moea::BorgMoea algo(problem, quick_params(problem), 12);
    ThreadMasterSlaveExecutor exec(2);
    EXPECT_THROW(exec.run(algo, problem, 100), std::runtime_error);
    EXPECT_EQ(algo.evaluations(), 0u);
}

TEST(ThreadExecutor, RejectsBadInput) {
    EXPECT_THROW(ThreadMasterSlaveExecutor(0), std::invalid_argument);
    const auto problem = problems::make_problem("zdt1");
    moea::BorgMoea algo(*problem, quick_params(*problem), 6);
    ThreadMasterSlaveExecutor exec(2);
    EXPECT_THROW(exec.run(algo, *problem, 0), std::invalid_argument);
    exec.run(algo, *problem, 10);
    EXPECT_THROW(exec.run(algo, *problem, 10), std::logic_error);
}

} // namespace
