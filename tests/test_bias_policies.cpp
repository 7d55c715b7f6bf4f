/// Tests for the evaluation-time-bias lab (DESIGN.md §17): the BiasMonitor's
/// row-keyed fold semantics, the observational-only contract (attaching a
/// monitor leaves runs byte-identical), the frequency-selection policy's
/// configuration guard, and the speculative policy's staleness bounding and
/// budget accounting.

#include "parallel/master_policies.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "moea/borg.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/bias_monitor.hpp"
#include "parallel/cluster_engine.hpp"
#include "parallel/time_model.hpp"
#include "problems/dtlz.hpp"
#include "stats/distribution.hpp"

namespace {

using namespace borg;
using namespace borg::parallel;
using borg::stats::make_delay;

// --------------------------------------------- BiasMonitor fold semantics

TEST(BiasMonitor, PerfectAntiCorrelationFoldsToMinusOne) {
    BiasMonitor monitor;
    // Four solutions: the cheaper the evaluation, the more selections.
    const double evals[] = {1.0, 2.0, 3.0, 4.0};
    const int picks[] = {3, 2, 1, 0};
    for (std::uint32_t row = 0; row < 4; ++row) {
        monitor.on_result(row, evals[row], /*staleness=*/row);
        for (int i = 0; i < picks[row]; ++i) monitor.on_parent_row(row);
    }
    const auto s = monitor.finalize();
    EXPECT_EQ(s.solutions, 4u);
    EXPECT_NEAR(s.correlation, -1.0, 1e-12);
    EXPECT_EQ(s.selected, 3u);
    EXPECT_EQ(s.unselected, 1u);
    EXPECT_NEAR(s.mean_eval_selected, 2.0, 1e-12);   // (1+2+3)/3
    EXPECT_NEAR(s.mean_eval_unselected, 4.0, 1e-12); // the never-picked one
    EXPECT_EQ(s.results, 4u);
    EXPECT_NEAR(s.staleness_max, 3.0, 1e-12);
    // finalize() is idempotent.
    EXPECT_NEAR(monitor.finalize().correlation, -1.0, 1e-12);
}

TEST(BiasMonitor, RowResetFoldsTheOldOccupantSeparately) {
    // Row 0 hosts two solutions in sequence; the reset between them must
    // attribute each occupant's selections to its own T_F.
    BiasMonitor monitor;
    monitor.on_result(0, 1.0, 0);
    monitor.on_parent_row(0);
    monitor.on_parent_row(0);
    monitor.on_row_reset(0); // row recycled: folds (1.0, 2 picks)
    monitor.on_result(0, 10.0, 0);
    const auto s = monitor.finalize(); // folds (10.0, 0 picks)
    EXPECT_EQ(s.solutions, 2u);
    EXPECT_EQ(s.selected, 1u);
    EXPECT_EQ(s.unselected, 1u);
    EXPECT_NEAR(s.mean_eval_selected, 1.0, 1e-12);
    EXPECT_NEAR(s.mean_eval_unselected, 10.0, 1e-12);
}

TEST(BiasMonitor, RowCopyCarriesEvalAttributionNotSelections) {
    BiasMonitor monitor;
    monitor.on_result(1, 5.0, 0);
    monitor.on_parent_row(1);
    monitor.on_row_copied(1, 2); // population copy of the archive row
    monitor.on_parent_row(2);
    const auto s = monitor.finalize();
    // Both rows fold with T_F = 5.0 and one selection each — the copy
    // inherited the cost, not the original's selection history.
    EXPECT_EQ(s.solutions, 2u);
    EXPECT_EQ(s.selected, 2u);
    EXPECT_NEAR(s.mean_eval_selected, 5.0, 1e-12);
}

TEST(BiasMonitor, RowsWithoutAttributionAreCountedButNotFolded) {
    // A restart-rebuilt row is selected but never reported by the policy:
    // it must not enter the correlation (no T_F to pair with).
    BiasMonitor monitor;
    monitor.on_parent_row(7);
    monitor.on_result(0, 1.0, 0);
    const auto s = monitor.finalize();
    EXPECT_EQ(s.solutions, 1u);
    EXPECT_DOUBLE_EQ(s.correlation, 0.0); // single point: degenerate
}

// ----------------------------------------- shared run-fixture machinery

struct BiasRun {
    std::uint64_t seed = 77;
    std::uint64_t procs = 8;
    std::uint64_t evals = 600;
    std::uint64_t bound = 0;       ///< nonzero selects AsyncSpecPolicy
    bool frequency = false;        ///< selects AsyncFreqPolicy
    bool attach_monitor = false;

    BiasMonitor::Summary bias;
    std::uint64_t duplicates_issued = 0;
    VirtualRunResult result;
    std::vector<obs::Event> events;

    void run() {
        problems::Dtlz2 problem(2);
        moea::BorgParams params =
            moea::BorgParams::for_problem(problem, 0.01);
        params.frequency_selection = frequency;
        moea::BorgMoea algorithm(problem, params, seed);

        // Every 4th worker is a chronic ~20x straggler, so staleness and
        // T_F spread are both real.
        const stats::LogNormalDistribution body(-3.0, 0.25);
        const stats::LogNormalDistribution tail(0.0, 0.5);
        const auto model = PerWorkerTimeModel::straggler_fleet(
            procs - 1, body, tail, 4);
        const auto tc = make_delay(0.000006, 0.0);
        const auto ta = make_delay(0.000060, 0.0);

        ClusterEngine::Setup setup{
            .cluster = {procs, nullptr, tc.get(), ta.get(), seed}};
        setup.cluster.time_model = model.get();

        obs::EventTrace trace;
        const RunContext ctx{.trace = &trace};
        ClusterEngine engine(std::move(setup), ctx);

        BiasMonitor monitor;
        std::unique_ptr<AsyncBorgPolicy> policy;
        if (bound > 0)
            policy = std::make_unique<AsyncSpecPolicy>(algorithm, problem,
                                                       bound);
        else if (frequency)
            policy = std::make_unique<AsyncFreqPolicy>(algorithm, problem);
        else
            policy = std::make_unique<AsyncBorgPolicy>(algorithm, problem);
        if (attach_monitor) {
            algorithm.set_selection_observer(&monitor);
            policy->set_bias_monitor(&monitor);
        }

        result = engine.run_events(*policy, evals);
        bias = monitor.finalize();
        if (const auto* spec =
                dynamic_cast<const AsyncSpecPolicy*>(policy.get()))
            duplicates_issued = spec->duplicates_issued();
        events = trace.events();
    }
};

// ------------------------------------------- observational-only contract

TEST(BiasPolicies, AttachingAMonitorLeavesTheRunByteIdentical) {
    // The monitor consumes no randomness and emits no events; the traced
    // schedule with and without one attached must match event-for-event.
    BiasRun bare;
    bare.run();
    BiasRun monitored;
    monitored.attach_monitor = true;
    monitored.run();

    ASSERT_TRUE(monitored.bias.results > 0); // the monitor did observe
    ASSERT_EQ(bare.events.size(), monitored.events.size());
    for (std::size_t i = 0; i < bare.events.size(); ++i)
        ASSERT_TRUE(bare.events[i] == monitored.events[i])
            << "event " << i << " diverged";
}

// ----------------------------------------------------- configuration guards

TEST(BiasPolicies, FreqPolicyRequiresFrequencySelection) {
    problems::Dtlz2 problem(2);
    moea::BorgParams params = moea::BorgParams::for_problem(problem, 0.01);
    ASSERT_FALSE(params.frequency_selection);
    moea::BorgMoea algorithm(problem, params, 1);
    EXPECT_THROW(AsyncFreqPolicy(algorithm, problem), std::invalid_argument);
}

TEST(BiasPolicies, SpecPolicyRejectsZeroBound) {
    problems::Dtlz2 problem(2);
    moea::BorgMoea algorithm(
        problem, moea::BorgParams::for_problem(problem, 0.01), 1);
    EXPECT_THROW(AsyncSpecPolicy(algorithm, problem, 0),
                 std::invalid_argument);
}

// -------------------------------------------------- speculative bounding

TEST(BiasPolicies, SpecBoundsStalenessAndChargesDuplicatesToTheBudget) {
    BiasRun async;
    async.attach_monitor = true;
    async.run();
    BiasRun spec = async;
    spec.bound = 24;
    spec.run();

    ASSERT_TRUE(async.result.completed_target);
    ASSERT_TRUE(spec.result.completed_target);
    // Equal budget: duplicates consume evaluations, they don't add any.
    EXPECT_EQ(spec.result.evaluations, async.result.evaluations);
    EXPECT_GT(spec.duplicates_issued, 0u);
    // The straggler fleet drives async staleness far past the bound; the
    // speculative policy pulls the tail back near it.
    EXPECT_GT(async.bias.staleness_max,
              3.0 * static_cast<double>(spec.bound));
    EXPECT_LT(spec.bias.staleness_max, async.bias.staleness_max);
    EXPECT_LE(spec.bias.staleness_max, 3.0 * static_cast<double>(spec.bound));
}

TEST(BiasPolicies, FreqRunsTheSameProtocolToCompletion) {
    BiasRun freq;
    freq.frequency = true;
    freq.attach_monitor = true;
    freq.run();
    ASSERT_TRUE(freq.result.completed_target);
    EXPECT_EQ(freq.result.evaluations, freq.evals);
    EXPECT_GT(freq.bias.results, 0u);
}

} // namespace
