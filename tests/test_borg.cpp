#include "moea/borg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "metrics/hypervolume.hpp"
#include "problems/problem.hpp"
#include "problems/reference_set.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

BorgParams quick_params(const problems::Problem& problem,
                        double epsilon = 0.01) {
    BorgParams params = BorgParams::for_problem(problem, epsilon);
    params.restart.window = 500;
    return params;
}

TEST(Borg, InitializationIssuesRandomSolutions) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 1);
    for (int i = 0; i < 100; ++i) {
        const SolutionHandle h = algo.next_offspring_handle();
        const ConstSolutionView s = algo.pool().view(h);
        EXPECT_EQ(s.operator_index, kNoOperator);
        EXPECT_TRUE(problem->within_bounds(s.variables));
        EXPECT_FALSE(s.evaluated);
    }
    EXPECT_EQ(algo.issued(), 100u);
}

TEST(Borg, ReceiveGrowsPopulationAndArchive) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 2);
    for (int i = 0; i < 50; ++i) {
        const SolutionHandle h = algo.next_offspring_handle();
        evaluate(*problem, algo.pool(), h);
        algo.receive_handle(h);
    }
    EXPECT_EQ(algo.evaluations(), 50u);
    EXPECT_EQ(algo.population().size(), 50u);
    EXPECT_GE(algo.archive().size(), 1u);
}

TEST(Borg, OperatorOffspringAfterInitialization) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 3);
    run_serial(algo, *problem, 150);
    // Beyond the initial population, offspring carry operator credit.
    const SolutionHandle h = algo.next_offspring_handle();
    const int op = algo.pool().operator_index(h);
    EXPECT_GE(op, 0);
    EXPECT_LT(op, static_cast<int>(algo.num_operators()));
}

TEST(Borg, ManyOffspringBeforeAnyResultIsSafe) {
    // Asynchronous start with more workers than the initial population:
    // the master must keep producing work without any results back.
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 4);
    std::vector<SolutionHandle> inflight;
    for (int i = 0; i < 500; ++i)
        inflight.push_back(algo.next_offspring_handle());
    EXPECT_EQ(algo.issued(), 500u);
    for (const SolutionHandle h : inflight) {
        evaluate(*problem, algo.pool(), h);
        algo.receive_handle(h);
    }
    EXPECT_EQ(algo.evaluations(), 500u);
}

TEST(Borg, RejectsUnevaluatedResult) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 5);
    const SolutionHandle h = algo.next_offspring_handle();
    EXPECT_THROW(algo.receive_handle(h), std::invalid_argument);
    // The caller keeps ownership of the rejected row.
    EXPECT_TRUE(algo.pool().is_live(h));
}

TEST(Borg, OperatorUsageAccumulates) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 6);
    run_serial(algo, *problem, 2000);
    std::uint64_t used = 0;
    for (const auto count : algo.operator_usage()) used += count;
    EXPECT_GT(used, 1500u); // everything after initialization + mutants
    EXPECT_EQ(algo.operator_names().size(), algo.num_operators());
}

TEST(Borg, AdaptationShiftsProbabilities) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 7);
    run_serial(algo, *problem, 5000);
    const auto& probs = algo.operator_probabilities();
    double lo = 1.0, hi = 0.0;
    for (const double p : probs) {
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    // After 5000 evaluations on ZDT1 the ensemble cannot still be uniform.
    EXPECT_GT(hi - lo, 0.02);
    double total = 0.0;
    for (const double p : probs) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Borg, RestartsFireOnHardProblem) {
    const auto problem = problems::make_problem("zdt1");
    BorgParams params = quick_params(*problem);
    params.restart.window = 200;
    BorgMoea algo(*problem, params, 8);
    run_serial(algo, *problem, 20000);
    EXPECT_GE(algo.restarts(), 1u);
}

TEST(Borg, DisableRestartsHonored) {
    const auto problem = problems::make_problem("zdt1");
    BorgParams params = quick_params(*problem);
    params.restart.window = 200;
    params.enable_restarts = false;
    BorgMoea algo(*problem, params, 9);
    run_serial(algo, *problem, 10000);
    EXPECT_EQ(algo.restarts(), 0u);
}

TEST(Borg, ForcedOperatorOnlyUsesThatOperator) {
    const auto problem = problems::make_problem("zdt1");
    BorgParams params = quick_params(*problem);
    params.forced_operator = 0; // SBX+PM
    BorgMoea algo(*problem, params, 10);
    run_serial(algo, *problem, 3000);
    const auto& usage = algo.operator_usage();
    for (std::size_t i = 1; i < usage.size(); ++i) EXPECT_EQ(usage[i], 0u);
    EXPECT_GT(usage[0], 0u);
}

TEST(Borg, DeterministicGivenSeed) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea a(*problem, quick_params(*problem), 42);
    BorgMoea b(*problem, quick_params(*problem), 42);
    run_serial(a, *problem, 3000);
    run_serial(b, *problem, 3000);
    ASSERT_EQ(a.archive().size(), b.archive().size());
    for (std::size_t i = 0; i < a.archive().size(); ++i)
        EXPECT_TRUE(std::ranges::equal(a.archive()[i].objectives,
                                       b.archive()[i].objectives));
    EXPECT_EQ(a.restarts(), b.restarts());
}

TEST(Borg, SeedsChangeTheSearchPath) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea a(*problem, quick_params(*problem), 1);
    BorgMoea b(*problem, quick_params(*problem), 2);
    run_serial(a, *problem, 2000);
    run_serial(b, *problem, 2000);
    bool differs = a.archive().size() != b.archive().size();
    if (!differs)
        for (std::size_t i = 0; i < a.archive().size() && !differs; ++i)
            differs = !std::ranges::equal(a.archive()[i].objectives,
                                          b.archive()[i].objectives);
    EXPECT_TRUE(differs);
}

TEST(Borg, ConvergesOnZdt1) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 11);
    run_serial(algo, *problem, 20000);
    const auto refset = problems::reference_set_for("zdt1");
    const double hv = metrics::normalized_hypervolume(
        algo.archive().objective_vectors(), refset);
    EXPECT_GT(hv, 0.95);
}

TEST(Borg, ConvergesOnConcaveZdt2) {
    const auto problem = problems::make_problem("zdt2");
    BorgMoea algo(*problem, quick_params(*problem), 12);
    run_serial(algo, *problem, 20000);
    const auto refset = problems::reference_set_for("zdt2");
    const double hv = metrics::normalized_hypervolume(
        algo.archive().objective_vectors(), refset);
    EXPECT_GT(hv, 0.9);
}

TEST(Borg, ArchiveContainsOnlyFeasiblePoints) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, quick_params(*problem), 13);
    run_serial(algo, *problem, 5000);
    for (std::size_t i = 0; i < algo.archive().size(); ++i)
        EXPECT_TRUE(problem->within_bounds(algo.archive()[i].variables));
}

TEST(Borg, RejectsBadConfiguration) {
    const auto problem = problems::make_problem("zdt1");
    BorgParams params; // epsilons missing
    EXPECT_THROW(BorgMoea(*problem, params, 1), std::invalid_argument);

    params = BorgParams::for_problem(*problem, 0.01);
    params.initial_population_size = 0;
    EXPECT_THROW(BorgMoea(*problem, params, 1), std::invalid_argument);

    params = BorgParams::for_problem(*problem, 0.01);
    params.forced_operator = 99;
    EXPECT_THROW(BorgMoea(*problem, params, 1), std::invalid_argument);
}

TEST(Borg, RestartMutantsFlowThroughPipeline) {
    const auto problem = problems::make_problem("zdt1");
    BorgParams params = quick_params(*problem);
    params.restart.window = 100;
    BorgMoea algo(*problem, params, 14);
    // Drive until a restart leaves mutants pending, then confirm the next
    // offspring are injection mutants without operator credit.
    std::uint64_t i = 0;
    while (algo.pending_restart_mutants() == 0 && i < 50000) {
        const SolutionHandle h = algo.next_offspring_handle();
        evaluate(*problem, algo.pool(), h);
        algo.receive_handle(h);
        ++i;
    }
    ASSERT_GT(algo.pending_restart_mutants(), 0u)
        << "no restart fired within 50k evaluations";
    const SolutionHandle mutant = algo.next_offspring_handle();
    EXPECT_EQ(algo.pool().operator_index(mutant), kNoOperator);
}

} // namespace
