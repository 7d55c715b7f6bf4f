/// Constraint-handling tests: constraint-domination, the archive's
/// feasibility-seeking phase, and end-to-end constrained optimization on
/// the SRN and welded-beam problems.

#include <gtest/gtest.h>

#include "moea/borg.hpp"
#include "moea/dominance.hpp"
#include "moea/epsilon_archive.hpp"
#include "moea/population.hpp"
#include "problems/engineering.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

Solution with_violation(std::vector<double> objectives, double violation) {
    Solution s;
    s.variables = {0.0};
    s.set_objectives(objectives);
    // Always carry the constraint slot: arity is uniform per problem, and
    // pool-backed containers take their shape from the first member.
    s.constraints = {violation};
    return s;
}

// ------------------------------------------------------ solution helpers

TEST(ConstrainedSolution, ViolationAccounting) {
    Solution s;
    s.constraints = {0.0, 0.5, 0.25};
    EXPECT_DOUBLE_EQ(s.total_violation(), 0.75);
    EXPECT_FALSE(s.feasible());
    s.constraints = {0.0, 0.0};
    EXPECT_TRUE(s.feasible());
    s.constraints.clear();
    EXPECT_TRUE(s.feasible()); // unconstrained problems are always feasible
}

// ------------------------------------------------- constraint domination

TEST(ConstrainedDominance, FeasibleBeatsInfeasible) {
    const std::vector<double> worse{9.0, 9.0};
    const std::vector<double> better{1.0, 1.0};
    // Even with far worse objectives, feasibility wins.
    EXPECT_EQ(compare_constrained(worse, 0.0, better, 0.1),
              Dominance::kDominates);
    EXPECT_EQ(compare_constrained(better, 0.1, worse, 0.0),
              Dominance::kDominatedBy);
}

TEST(ConstrainedDominance, SmallerViolationWins) {
    const std::vector<double> a{1.0, 1.0};
    const std::vector<double> b{2.0, 2.0};
    EXPECT_EQ(compare_constrained(b, 0.1, a, 0.5), Dominance::kDominates);
}

TEST(ConstrainedDominance, BothFeasibleFallsBackToPareto) {
    const std::vector<double> a{1.0, 1.0};
    const std::vector<double> b{2.0, 2.0};
    EXPECT_EQ(compare_constrained(a, 0.0, b, 0.0), Dominance::kDominates);
    const std::vector<double> c{0.5, 3.0};
    EXPECT_EQ(compare_constrained(a, 0.0, c, 0.0),
              Dominance::kNondominated);
}

TEST(ConstrainedDominance, EqualViolationComparesObjectives) {
    const std::vector<double> a{1.0, 1.0};
    const std::vector<double> b{2.0, 2.0};
    EXPECT_EQ(compare_constrained(a, 0.3, b, 0.3), Dominance::kDominates);
}

// ------------------------------------------------------------ population

TEST(ConstrainedPopulation, FeasibleOffspringEvictsInfeasible) {
    Population pop(2);
    util::Rng rng(1);
    pop.inject(with_violation({1.0, 1.0}, 0.5), rng);
    pop.inject(with_violation({1.0, 1.0}, 0.7), rng);
    EXPECT_TRUE(pop.inject(with_violation({5.0, 5.0}, 0.0), rng));
    int feasible = 0;
    for (std::size_t i = 0; i < pop.size(); ++i)
        if (pop[i].feasible()) ++feasible;
    EXPECT_EQ(feasible, 1);
}

TEST(ConstrainedPopulation, TournamentPrefersFeasible) {
    Population pop(10);
    util::Rng rng(2);
    pop.inject(with_violation({3.0, 3.0}, 0.0), rng);
    for (int i = 1; i < 10; ++i)
        pop.inject(with_violation({1.0, 1.0}, 0.2 + 0.01 * i), rng);
    int feasible_wins = 0;
    for (int trial = 0; trial < 100; ++trial)
        if (pop[pop.tournament_pick_index(10, rng)].feasible())
            ++feasible_wins;
    EXPECT_GT(feasible_wins, 60);
}

// --------------------------------------------------------------- archive

TEST(ConstrainedArchive, TracksLeastViolatingBeforeFeasibility) {
    EpsilonBoxArchive archive({0.1, 0.1});
    EXPECT_EQ(archive.add(with_violation({0.5, 0.5}, 0.9)),
              ArchiveAdd::kAddedNewBox);
    EXPECT_EQ(archive.add(with_violation({0.2, 0.2}, 1.5)),
              ArchiveAdd::kRejected); // worse violation
    EXPECT_EQ(archive.add(with_violation({0.9, 0.9}, 0.4)),
              ArchiveAdd::kAddedNewBox); // better violation wins
    EXPECT_EQ(archive.size(), 1u);
    EXPECT_DOUBLE_EQ(archive[0].total_violation(), 0.4);
}

TEST(ConstrainedArchive, FirstFeasibleEvictsAnchor) {
    EpsilonBoxArchive archive({0.1, 0.1});
    archive.add(with_violation({0.5, 0.5}, 0.9));
    EXPECT_EQ(archive.add(with_violation({0.85, 0.85}, 0.0)),
              ArchiveAdd::kAddedNewBox);
    EXPECT_EQ(archive.size(), 1u);
    EXPECT_TRUE(archive[0].feasible());
    // Infeasible solutions can never re-enter.
    EXPECT_EQ(archive.add(with_violation({0.1, 0.1}, 0.01)),
              ArchiveAdd::kRejected);
}

TEST(ConstrainedArchive, ViolationImprovementCountsAsProgress) {
    EpsilonBoxArchive archive({0.1, 0.1});
    archive.add(with_violation({0.5, 0.5}, 0.9));
    const auto progress = archive.epsilon_progress();
    archive.add(with_violation({0.5, 0.5}, 0.5));
    EXPECT_GT(archive.epsilon_progress(), progress);
}

// -------------------------------------------------------------- problems

TEST(Srn, KnownFeasiblePoint) {
    const problems::Srn srn;
    std::vector<double> f(2), v(2);
    srn.evaluate(std::vector<double>{0.0, 5.0}, f, v);
    EXPECT_DOUBLE_EQ(f[0], 4.0 + 16.0 + 2.0);
    EXPECT_DOUBLE_EQ(f[1], -16.0);
    EXPECT_DOUBLE_EQ(v[0], 0.0); // 25 <= 225
    EXPECT_DOUBLE_EQ(v[1], 0.0); // 0 - 15 + 10 <= 0
}

TEST(Srn, ConstraintViolationsDetected) {
    const problems::Srn srn;
    std::vector<double> f(2), v(2);
    srn.evaluate(std::vector<double>{15.0, 15.0}, f, v);
    EXPECT_GT(v[0], 0.0);        // 450 > 225: radius constraint violated
    EXPECT_DOUBLE_EQ(v[1], 0.0); // 15 - 45 + 10 = -20 <= 0: satisfied
}

TEST(Srn, SecondConstraintSign) {
    const problems::Srn srn;
    std::vector<double> f(2), v(2);
    // g2: x1 - 3 x2 + 10 <= 0; x = (5, 0) gives 15 > 0: violated.
    srn.evaluate(std::vector<double>{5.0, 0.0}, f, v);
    EXPECT_GT(v[1], 0.0);
    srn.evaluate(std::vector<double>{-15.0, 0.0}, f, v);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(WeldedBeam, ReasonableDesignIsFeasible) {
    const problems::WeldedBeam beam;
    // A sturdy (expensive) design satisfies all constraints.
    std::vector<double> f(2), v(4);
    beam.evaluate(std::vector<double>{2.0, 5.0, 9.0, 4.0}, f, v);
    for (const double violation : v) EXPECT_DOUBLE_EQ(violation, 0.0);
    EXPECT_GT(f[0], 0.0);
    EXPECT_GT(f[1], 0.0);
}

TEST(WeldedBeam, FlimsyDesignViolates) {
    const problems::WeldedBeam beam;
    std::vector<double> f(2), v(4);
    beam.evaluate(std::vector<double>{0.125, 0.1, 0.1, 0.125}, f, v);
    double total = 0.0;
    for (const double violation : v) total += violation;
    EXPECT_GT(total, 0.0);
}

TEST(WeldedBeam, GeometryConstraintHBound) {
    const problems::WeldedBeam beam;
    std::vector<double> f(2), v(4);
    beam.evaluate(std::vector<double>{3.0, 5.0, 9.0, 1.0}, f, v);
    EXPECT_GT(v[2], 0.0); // h = 3 > b = 1
}

// ------------------------------------------------------------ end to end

TEST(ConstrainedBorg, SolvesSrn) {
    const auto problem = problems::make_problem("srn");
    BorgParams params;
    params.epsilons = {1.0, 1.0}; // SRN objectives span hundreds of units
    BorgMoea algo(*problem, params, 5);
    run_serial(algo, *problem, 20000);

    ASSERT_GT(algo.archive().size(), 10u);
    for (std::size_t i = 0; i < algo.archive().size(); ++i) {
        const ConstSolutionView s = algo.archive()[i];
        EXPECT_TRUE(s.feasible());
        // Constrained optimum region: f1 roughly in [2, 250].
        EXPECT_LT(s.objectives[0], 300.0);
    }
}

TEST(ConstrainedBorg, FindsFeasibleWeldedBeams) {
    const auto problem = problems::make_problem("welded_beam");
    BorgParams params;
    params.epsilons = {0.05, 0.0005};
    BorgMoea algo(*problem, params, 6);
    run_serial(algo, *problem, 20000);

    ASSERT_GT(algo.archive().size(), 5u);
    double best_cost = 1e300;
    for (std::size_t i = 0; i < algo.archive().size(); ++i) {
        const ConstSolutionView s = algo.archive()[i];
        EXPECT_TRUE(s.feasible());
        best_cost = std::min(best_cost, s.objectives[0]);
    }
    // Known near-optimal minimum-cost welded beams cost ~2.4-4; anything
    // below 10 demonstrates genuine constrained convergence.
    EXPECT_LT(best_cost, 10.0);
}

} // namespace
