#include "stats/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "stats/summary.hpp"

namespace {

using namespace borg::stats;
using borg::util::Rng;

/// Checks that sampled mean and variance match the distribution's declared
/// moments to within sampling tolerance.
void check_moments(const Distribution& d, std::uint64_t seed,
                   int n = 200000) {
    Rng rng(seed);
    Accumulator acc;
    for (int i = 0; i < n; ++i) acc.add(d.sample(rng));
    const double tol_mean =
        5.0 * d.stddev() / std::sqrt(static_cast<double>(n)) + 1e-12;
    EXPECT_NEAR(acc.mean(), d.mean(), tol_mean) << d.describe();
    if (d.variance() > 0.0) {
        EXPECT_NEAR(acc.variance(), d.variance(), 0.05 * d.variance())
            << d.describe();
    }
}

TEST(Constant, SamplesExactValue) {
    ConstantDistribution d(0.01);
    Rng rng(1);
    for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 0.01);
    EXPECT_DOUBLE_EQ(d.mean(), 0.01);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_DOUBLE_EQ(d.cv(), 0.0);
}

TEST(Constant, LogPdfPointMass) {
    ConstantDistribution d(2.0);
    EXPECT_DOUBLE_EQ(d.log_pdf(2.0), 0.0);
    EXPECT_TRUE(std::isinf(d.log_pdf(2.1)));
}

TEST(Uniform, Moments) { check_moments(UniformDistribution(1.0, 3.0), 10); }

TEST(Uniform, SamplesWithinSupport) {
    UniformDistribution d(-1.0, 1.0);
    Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        const double x = d.sample(rng);
        ASSERT_GE(x, -1.0);
        ASSERT_LT(x, 1.0);
    }
}

TEST(Uniform, RejectsDegenerate) {
    EXPECT_THROW(UniformDistribution(1.0, 1.0), std::invalid_argument);
}

TEST(Exponential, Moments) { check_moments(ExponentialDistribution(4.0), 11); }

TEST(Exponential, LogPdfMatchesFormula) {
    ExponentialDistribution d(2.0);
    EXPECT_NEAR(d.log_pdf(0.5), std::log(2.0) - 1.0, 1e-12);
    EXPECT_TRUE(std::isinf(d.log_pdf(-0.1)));
}

TEST(Normal, Moments) { check_moments(NormalDistribution(5.0, 2.0), 12); }

TEST(Normal, LogPdfPeakAtMean) {
    NormalDistribution d(1.0, 0.5);
    EXPECT_GT(d.log_pdf(1.0), d.log_pdf(1.4));
    EXPECT_GT(d.log_pdf(1.0), d.log_pdf(0.6));
}

TEST(TruncatedNormal, Moments) {
    check_moments(TruncatedNormalDistribution(0.01, 0.001, 0.0), 13);
}

TEST(TruncatedNormal, NeverBelowBound) {
    // Heavy truncation: half the parent mass is below the bound.
    TruncatedNormalDistribution d(0.0, 1.0, 0.0);
    Rng rng(14);
    for (int i = 0; i < 20000; ++i) ASSERT_GE(d.sample(rng), 0.0);
    // Mean of half-normal is sqrt(2/pi).
    EXPECT_NEAR(d.mean(), std::sqrt(2.0 / M_PI), 1e-9);
}

TEST(TruncatedNormal, MomentsUnderHeavyTruncation) {
    check_moments(TruncatedNormalDistribution(0.0, 1.0, 0.0), 15);
}

TEST(LogNormal, Moments) { check_moments(LogNormalDistribution(-2.0, 0.5), 16); }

TEST(LogNormal, PositiveSupport) {
    LogNormalDistribution d(0.0, 1.0);
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) ASSERT_GT(d.sample(rng), 0.0);
    EXPECT_TRUE(std::isinf(d.log_pdf(0.0)));
}

class GammaMoments : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GammaMoments, SampleMatchesDeclared) {
    const auto [shape, scale] = GetParam();
    check_moments(GammaDistribution(shape, scale), 18);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GammaMoments,
    ::testing::Values(std::pair{0.5, 1.0}, std::pair{1.0, 2.0},
                      std::pair{3.0, 0.01}, std::pair{20.0, 0.5}));

TEST(Gamma, RejectsBadParameters) {
    EXPECT_THROW(GammaDistribution(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(GammaDistribution(1.0, -1.0), std::invalid_argument);
}

class WeibullMoments
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WeibullMoments, SampleMatchesDeclared) {
    const auto [shape, scale] = GetParam();
    check_moments(WeibullDistribution(shape, scale), 19);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WeibullMoments,
    ::testing::Values(std::pair{0.8, 1.0}, std::pair{1.0, 0.01},
                      std::pair{2.5, 3.0}));

TEST(Weibull, ShapeOneIsExponential) {
    WeibullDistribution w(1.0, 2.0);
    ExponentialDistribution e(0.5);
    EXPECT_NEAR(w.mean(), e.mean(), 1e-12);
    EXPECT_NEAR(w.log_pdf(1.0), e.log_pdf(1.0), 1e-12);
}

TEST(MakeDelay, ZeroCvGivesConstant) {
    const auto d = make_delay(0.01, 0.0);
    EXPECT_DOUBLE_EQ(d->mean(), 0.01);
    EXPECT_DOUBLE_EQ(d->variance(), 0.0);
}

TEST(MakeDelay, PaperSettingHasRequestedCv) {
    // The paper's controlled delays use cv = 0.1; truncation at zero is
    // negligible for that regime, so mean and cv must match closely.
    const auto d = make_delay(0.01, 0.1);
    EXPECT_NEAR(d->mean(), 0.01, 1e-6);
    EXPECT_NEAR(d->cv(), 0.1, 1e-3);
}

TEST(MakeDelay, SamplesNeverNegative) {
    const auto d = make_delay(0.001, 0.5);
    Rng rng(20);
    for (int i = 0; i < 50000; ++i) ASSERT_GE(d->sample(rng), 0.0);
}

TEST(Clone, PreservesBehaviour) {
    GammaDistribution original(3.0, 0.25);
    const auto copy = original.clone();
    EXPECT_DOUBLE_EQ(copy->mean(), original.mean());
    EXPECT_DOUBLE_EQ(copy->log_pdf(1.0), original.log_pdf(1.0));
    EXPECT_EQ(copy->describe(), original.describe());
}

TEST(NormalHelpers, CdfKnownValues) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normal_pdf(0.0), 0.3989422804, 1e-9);
}

// --------------------------------------------------------------- Pareto

// shape 6: the 4th moment exists, so the sample-variance tolerance in
// check_moments is meaningful (at shape <= 4 it has infinite variance).
TEST(Pareto, Moments) { check_moments(ParetoDistribution(1.5, 6.0), 21); }

TEST(Pareto, SamplesAtOrAboveScale) {
    ParetoDistribution d(0.01, 1.5);
    Rng rng(22);
    for (int i = 0; i < 20000; ++i) ASSERT_GE(d.sample(rng), 0.01);
}

TEST(Pareto, LogPdfMatchesFormula) {
    ParetoDistribution d(2.0, 3.0);
    // log f(x) = log(alpha) + alpha*log(xm) - (alpha+1)*log(x)
    EXPECT_NEAR(d.log_pdf(4.0),
                std::log(3.0) + 3.0 * std::log(2.0) - 4.0 * std::log(4.0),
                1e-12);
    EXPECT_TRUE(std::isinf(d.log_pdf(1.9)));
}

TEST(Pareto, InfiniteMomentsThrowInsteadOfLying) {
    // shape <= 1: no mean; shape <= 2: no variance. Reporting a number
    // here would silently poison the sample-moment agreement tests.
    ParetoDistribution heavy(1.0, 0.9);
    EXPECT_THROW(heavy.mean(), std::domain_error);
    ParetoDistribution mid(1.0, 1.5);
    EXPECT_NO_THROW(mid.mean());
    EXPECT_THROW(mid.variance(), std::domain_error);
}

TEST(Pareto, RejectsBadParameters) {
    EXPECT_THROW(ParetoDistribution(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(ParetoDistribution(1.0, -2.0), std::invalid_argument);
}

// -------------------------------------------------------------- Mixture

std::unique_ptr<MixtureDistribution> test_straggler() {
    return MixtureDistribution::straggler(
        std::make_unique<NormalDistribution>(0.01, 0.001),
        std::make_unique<LogNormalDistribution>(-3.0, 0.5), 0.05);
}

TEST(Mixture, Moments) { check_moments(*test_straggler(), 23); }

TEST(Mixture, StragglerFactoryNormalizesWeights) {
    const auto d = test_straggler();
    ASSERT_EQ(d->component_count(), 2u);
    EXPECT_NEAR(d->weight(0), 0.95, 1e-12);
    EXPECT_NEAR(d->weight(1), 0.05, 1e-12);
    EXPECT_THROW(MixtureDistribution::straggler(
                     std::make_unique<ConstantDistribution>(1.0),
                     std::make_unique<ConstantDistribution>(2.0), 0.0),
                 std::invalid_argument);
}

TEST(Mixture, LogPdfIsWeightedDensity) {
    const auto d = test_straggler();
    const double x = 0.011;
    const double f = 0.95 * std::exp(d->component(0).log_pdf(x)) +
                     0.05 * std::exp(d->component(1).log_pdf(x));
    EXPECT_NEAR(d->log_pdf(x), std::log(f), 1e-10);
}

TEST(Mixture, RejectsDegenerateComponentLists) {
    EXPECT_THROW(
        MixtureDistribution(std::vector<MixtureDistribution::Component>{}),
        std::invalid_argument);
    std::vector<MixtureDistribution::Component> bad;
    bad.push_back({-1.0, std::make_unique<ConstantDistribution>(1.0)});
    EXPECT_THROW(MixtureDistribution(std::move(bad)), std::invalid_argument);
}

TEST(Mixture, DrawCountComposesDeterministically) {
    // The contract: one uniform for the component choice, then exactly the
    // chosen component's draws. Replaying the same recipe by hand on a
    // twin stream must produce identical values AND leave both generators
    // at the same stream position.
    const auto d = MixtureDistribution::straggler(
        std::make_unique<ExponentialDistribution>(100.0),
        std::make_unique<ParetoDistribution>(0.05, 1.5), 0.10);
    Rng a(24), b(24);
    const ExponentialDistribution body(100.0);
    const ParetoDistribution tail(0.05, 1.5);
    for (int i = 0; i < 5000; ++i) {
        const double got = d->sample(a);
        const double u = b.uniform();
        const double want = u < 0.90 ? body.sample(b) : tail.sample(b);
        ASSERT_DOUBLE_EQ(got, want);
    }
    EXPECT_EQ(a(), b()); // stream positions agree after 5000 samples
}

// ------------------------------------------- TruncatedNormal sharp edges

TEST(TruncatedNormal, DeepTailConstructorThrows) {
    // lo = 9 sigma above the mean: acceptance mass ~1e-19 is below
    // kMinAcceptMass, so the constructor refuses the de-facto hang.
    EXPECT_THROW(TruncatedNormalDistribution(0.0, 1.0, 9.0),
                 std::invalid_argument);
}

TEST(TruncatedNormal, RejectionCapThrowsInsteadOfSpinning) {
    // lo = 7 sigma: acceptance mass ~1.3e-12 clears the constructor
    // threshold, but the expected rejection count (~8e11) means sample()
    // hits kMaxRejections essentially surely and must throw, not spin.
    TruncatedNormalDistribution d(0.0, 1.0, 7.0);
    EXPECT_GT(d.accept_mass(), TruncatedNormalDistribution::kMinAcceptMass);
    Rng rng(25);
    EXPECT_THROW(d.sample(rng), std::runtime_error);
}

TEST(TruncatedNormal, DrawCountIsSeedDeterministic) {
    // One sample() consumes exactly (rejections + 1) gaussian draws.
    // Replaying the rejection loop by hand on a twin stream must match
    // value-for-value and leave both generators at the same position —
    // the contract the engine's schedule byte-identity rests on.
    TruncatedNormalDistribution d(0.0, 1.0, 0.5); // ~31% acceptance
    Rng a(26), b(26);
    for (int i = 0; i < 2000; ++i) {
        const double got = d.sample(a);
        double want = b.gaussian(0.0, 1.0);
        while (want < 0.5) want = b.gaussian(0.0, 1.0);
        ASSERT_DOUBLE_EQ(got, want);
    }
    EXPECT_EQ(a(), b());
}

// ----------------------------------- every Distribution, one sweep each

/// exp(log_pdf) must integrate to ~1 over a bracket holding essentially
/// all the mass — log_pdf and sample() describing different distributions
/// is exactly the bug the fitting code cannot detect itself.
void check_density_normalizes(const Distribution& d, double lo, double hi) {
    const int n = 20000;
    const double h = (hi - lo) / n;
    double integral = 0.0;
    for (int i = 0; i <= n; ++i) {
        const double x = lo + h * static_cast<double>(i);
        const double f = std::exp(d.log_pdf(x));
        integral += (i == 0 || i == n) ? 0.5 * f : f;
    }
    integral *= h;
    EXPECT_NEAR(integral, 1.0, 5e-3) << d.describe();
}

TEST(AllDistributions, MomentsAndDensityAgreeWithSamples) {
    // One entry per concrete Distribution; seed offset by index. Moments:
    // sampled mean/variance vs declared. Density: normalization over a
    // bracket that holds the mass (point mass skipped — no density).
    struct Case {
        std::unique_ptr<Distribution> dist;
        double lo, hi; ///< density integration bracket
    };
    std::vector<Case> cases;
    cases.push_back({std::make_unique<UniformDistribution>(0.5, 2.5),
                     0.5, 2.5});
    cases.push_back({std::make_unique<ExponentialDistribution>(2.0),
                     0.0, 15.0});
    cases.push_back({std::make_unique<NormalDistribution>(1.0, 0.3),
                     -2.0, 4.0});
    cases.push_back(
        {std::make_unique<TruncatedNormalDistribution>(0.0, 1.0, -0.5),
         -0.5, 8.0});
    cases.push_back({std::make_unique<LogNormalDistribution>(-1.0, 0.4),
                     1e-9, 5.0});
    cases.push_back({std::make_unique<GammaDistribution>(3.0, 0.5),
                     1e-9, 20.0});
    cases.push_back({std::make_unique<WeibullDistribution>(1.5, 2.0),
                     1e-9, 20.0});
    cases.push_back({std::make_unique<ParetoDistribution>(1.0, 6.0),
                     1.0, 400.0});
    cases.push_back({test_straggler(), -0.05, 1.0});
    std::uint64_t seed = 30;
    for (const Case& c : cases) {
        SCOPED_TRACE(c.dist->describe());
        check_moments(*c.dist, seed++);
        check_density_normalizes(*c.dist, c.lo, c.hi);
        const auto copy = c.dist->clone();
        EXPECT_EQ(copy->describe(), c.dist->describe());
        EXPECT_DOUBLE_EQ(copy->mean(), c.dist->mean());
    }
}

} // namespace
