/// Tests for the two-objective CEC'09 problems (UF1-UF4, UF7) and the
/// DTLZ5-7 extensions: known optimal points land on the closed-form
/// fronts, off-front points are penalized, and Borg makes progress on the
/// coupled landscapes.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "metrics/hypervolume.hpp"
#include "moea/borg.hpp"
#include "problems/dtlz.hpp"
#include "problems/problem.hpp"
#include "problems/reference_set.hpp"
#include "problems/uf.hpp"

namespace {

using namespace borg;
using namespace borg::problems;

std::vector<double> eval(const Problem& p, const std::vector<double>& x) {
    std::vector<double> f(p.num_objectives());
    p.evaluate(x, f);
    return f;
}

/// Constructs the Pareto-optimal decision vector for the sinusoidal UF
/// family at position value x1: x_j = sin(6 pi x1 + j pi / n).
std::vector<double> uf_sin_optimum(const Problem& p, double x1) {
    const std::size_t n = p.num_variables();
    std::vector<double> x(n);
    x[0] = x1;
    for (std::size_t j = 2; j <= n; ++j)
        x[j - 1] = std::sin(6.0 * std::numbers::pi * x1 +
                            static_cast<double>(j) * std::numbers::pi /
                                static_cast<double>(n));
    return x;
}

class UfSqrtFront : public ::testing::TestWithParam<double> {};

TEST_P(UfSqrtFront, Uf1OptimaOnFront) {
    const Uf1 p;
    const double x1 = GetParam();
    const auto f = eval(p, uf_sin_optimum(p, x1));
    EXPECT_NEAR(f[0], x1, 1e-10);
    EXPECT_NEAR(f[1], 1.0 - std::sqrt(x1), 1e-10);
}

TEST_P(UfSqrtFront, Uf4OptimaOnFront) {
    const Uf4 p;
    const double x1 = GetParam();
    const auto f = eval(p, uf_sin_optimum(p, x1));
    EXPECT_NEAR(f[0], x1, 1e-10);
    EXPECT_NEAR(f[1], 1.0 - x1 * x1, 1e-10);
}

TEST_P(UfSqrtFront, Uf7OptimaOnFront) {
    const Uf7 p;
    const double x1 = GetParam();
    const auto f = eval(p, uf_sin_optimum(p, x1));
    const double root = std::pow(x1, 0.2);
    EXPECT_NEAR(f[0], root, 1e-10);
    EXPECT_NEAR(f[1], 1.0 - root, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(PositionSweep, UfSqrtFront,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.77, 1.0));

TEST(Uf2, OptimumLandsOnFront) {
    const Uf2 p;
    const std::size_t n = p.num_variables();
    for (const double x1 : {0.2, 0.6, 0.9}) {
        std::vector<double> x(n);
        x[0] = x1;
        for (std::size_t j = 2; j <= n; ++j) {
            const double jd = static_cast<double>(j);
            const double amp =
                0.3 * x1 * x1 *
                    std::cos(24.0 * std::numbers::pi * x1 +
                             4.0 * jd * std::numbers::pi / n) +
                0.6 * x1;
            const double angle = 6.0 * std::numbers::pi * x1 +
                                 jd * std::numbers::pi / n;
            x[j - 1] = amp * (j % 2 == 1 ? std::cos(angle) : std::sin(angle));
        }
        const auto f = eval(p, x);
        EXPECT_NEAR(f[0], x1, 1e-10);
        EXPECT_NEAR(f[1], 1.0 - std::sqrt(x1), 1e-10);
    }
}

TEST(Uf3, OptimumLandsOnFront) {
    const Uf3 p;
    const std::size_t n = p.num_variables();
    for (const double x1 : {0.1, 0.5, 1.0}) {
        std::vector<double> x(n);
        x[0] = x1;
        for (std::size_t j = 2; j <= n; ++j) x[j - 1] = p.optimal_xj(x1, j);
        const auto f = eval(p, x);
        EXPECT_NEAR(f[0], x1, 1e-9);
        EXPECT_NEAR(f[1], 1.0 - std::sqrt(x1), 1e-9);
    }
}

TEST(UfSuite, OffFrontPointsArePenalized) {
    for (const char* name : {"uf1", "uf2", "uf3", "uf4", "uf7"}) {
        const auto p = make_problem(name);
        std::vector<double> x(p->num_variables(), 0.0);
        x[0] = 0.5;
        // Push every coupled variable to its upper bound: y_j != 0.
        for (std::size_t j = 1; j < x.size(); ++j) x[j] = p->upper_bound(j);
        const auto f = eval(*p, x);
        const auto refset = reference_set_for(name);
        // The point must lie strictly above the front in at least f2.
        double front_f2 = 2.0;
        for (const auto& r : refset)
            if (std::abs(r[0] - f[0]) < 0.01) front_f2 = r[1];
        if (front_f2 < 2.0) {
            EXPECT_GT(f[1], front_f2 + 0.01) << name;
        }
        EXPECT_TRUE(std::isfinite(f[0]) && std::isfinite(f[1])) << name;
    }
}

TEST(UfSuite, BorgMakesProgressOnUf1) {
    const auto p = make_problem("uf1");
    moea::BorgMoea algo(*p, moea::BorgParams::for_problem(*p, 0.01), 3);
    moea::run_serial(algo, *p, 30000);
    const double hv = metrics::normalized_hypervolume(
        algo.archive().objective_vectors(), reference_set_for("uf1"));
    // UF1 is hard; partial convergence demonstrates the coupling is
    // being handled, not solved to optimality.
    EXPECT_GT(hv, 0.5);
}

// ------------------------------------------------------------- DTLZ5/6/7

TEST(Dtlz5, OptimaOnUnitSphere) {
    const Dtlz5 p(3);
    std::vector<double> x(p.num_variables(), 0.5); // g = 0
    const auto f = eval(p, x);
    double norm = 0.0;
    for (const double v : f) norm += v * v;
    EXPECT_NEAR(norm, 1.0, 1e-10);
}

TEST(Dtlz5, FrontIsDegenerateCurve) {
    // With g = 0 the squeeze maps every middle position variable to
    // theta = pi/4, so f1 = f2 regardless of x2.
    const Dtlz5 p(3);
    std::vector<double> a(p.num_variables(), 0.5);
    std::vector<double> b(p.num_variables(), 0.5);
    a[1] = 0.0;
    b[1] = 1.0;
    a[0] = b[0] = 0.3;
    EXPECT_NEAR(eval(p, a)[0], eval(p, b)[0], 1e-10);
    EXPECT_NEAR(eval(p, a)[1], eval(p, b)[1], 1e-10);
}

TEST(Dtlz6, HarderGAwayFromZero) {
    const Dtlz6 p(3);
    std::vector<double> x(p.num_variables(), 0.5);
    const auto f = eval(p, x);
    // g = sum(0.5^0.1) over 10 distance variables ~ 9.3: far from front.
    double norm = 0.0;
    for (const double v : f) norm += v * v;
    EXPECT_GT(std::sqrt(norm), 5.0);

    std::fill(x.begin() + 2, x.end(), 0.0); // optimal distance block
    const auto f0 = eval(p, x);
    norm = 0.0;
    for (const double v : f0) norm += v * v;
    EXPECT_NEAR(norm, 1.0, 1e-10);
}

TEST(Dtlz7, KnownValues) {
    const Dtlz7 p(2);
    std::vector<double> x(p.num_variables(), 0.0); // g = 1
    x[0] = 0.0;
    auto f = eval(p, x);
    EXPECT_DOUBLE_EQ(f[0], 0.0);
    EXPECT_NEAR(f[1], 4.0, 1e-12); // (1+1) * (2 - 0)
    x[0] = 1.0;                    // sin(3 pi) = 0
    f = eval(p, x);
    EXPECT_NEAR(f[1], 2.0 * (2.0 - 0.5), 1e-9);
}

TEST(Dtlz7, ReferenceSetIsDisconnectedAndNondominated) {
    const auto front = dtlz7_reference_set(2000);
    ASSERT_GT(front.size(), 100u);
    // Disconnected: there are gaps in f1 coverage.
    double largest_gap = 0.0;
    for (std::size_t i = 1; i < front.size(); ++i)
        largest_gap = std::max(largest_gap, front[i][0] - front[i - 1][0]);
    EXPECT_GT(largest_gap, 0.05);
}

TEST(Dtlz7, BorgFindsAllFourRegions) {
    const auto p = make_problem("dtlz7");
    moea::BorgMoea algo(*p, moea::BorgParams::for_problem(*p, 0.02), 4);
    moea::run_serial(algo, *p, 30000);
    const double hv = metrics::normalized_hypervolume(
        algo.archive().objective_vectors(), reference_set_for("dtlz7"));
    EXPECT_GT(hv, 0.9);
}

TEST(FactoryExtensions, NewNamesResolve) {
    EXPECT_EQ(make_problem("dtlz5_3")->name(), "DTLZ5_3");
    EXPECT_EQ(make_problem("dtlz6")->num_objectives(), 3u);
    EXPECT_EQ(make_problem("dtlz7")->num_variables(), 21u);
    EXPECT_EQ(make_problem("uf1")->num_variables(), 30u);
    EXPECT_EQ(make_problem("uf4")->lower_bound(5), -2.0);
}

} // namespace
