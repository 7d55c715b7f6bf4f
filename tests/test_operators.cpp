#include "moea/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "operator_digests.hpp"
#include "problems/dtlz.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

class OperatorFixture : public ::testing::Test {
protected:
    OperatorFixture()
        : problem_(problems::make_problem("dtlz2_3")), rng_(12345) {}

    std::vector<double> random_point() {
        std::vector<double> x(problem_->num_variables());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = rng_.uniform(problem_->lower_bound(i),
                                problem_->upper_bound(i));
        return x;
    }

    /// Generates \p count distinct random parents.
    std::vector<std::vector<double>> make_parents(std::size_t count) {
        std::vector<std::vector<double>> parents;
        for (std::size_t i = 0; i < count; ++i)
            parents.push_back(random_point());
        return parents;
    }

    static ParentView view(const std::vector<std::vector<double>>& parents) {
        ParentView v;
        for (const auto& p : parents) v.emplace_back(p);
        return v;
    }

    void expect_within_bounds(const std::vector<double>& child) {
        ASSERT_EQ(child.size(), problem_->num_variables());
        EXPECT_TRUE(problem_->within_bounds(child));
    }

    std::unique_ptr<problems::Problem> problem_;
    util::Rng rng_;
};

// ----------------------------------------------------------- bounds sweep

TEST_F(OperatorFixture, AllOperatorsRespectBounds) {
    const auto ops = make_borg_operators(*problem_);
    for (const auto& op : ops) {
        for (int trial = 0; trial < 200; ++trial) {
            const auto parents = make_parents(op->arity());
            const auto child = op->apply(view(parents), rng_);
            expect_within_bounds(child);
        }
    }
}

TEST_F(OperatorFixture, EnsembleHasPaperOperators) {
    const auto ops = make_borg_operators(*problem_);
    ASSERT_EQ(ops.size(), 6u);
    EXPECT_EQ(ops[0]->name(), "SBX+PM");
    EXPECT_EQ(ops[1]->name(), "DE+PM");
    EXPECT_EQ(ops[2]->name(), "PCX+PM");
    EXPECT_EQ(ops[3]->name(), "SPX+PM");
    EXPECT_EQ(ops[4]->name(), "UNDX+PM");
    EXPECT_EQ(ops[5]->name(), "UM");
}

TEST_F(OperatorFixture, MultiParentArityIsTen) {
    const auto ops = make_borg_operators(*problem_);
    EXPECT_EQ(ops[0]->arity(), 2u);
    EXPECT_EQ(ops[1]->arity(), 4u);
    EXPECT_EQ(ops[2]->arity(), 10u);
    EXPECT_EQ(ops[3]->arity(), 10u);
    EXPECT_EQ(ops[4]->arity(), 10u);
    EXPECT_EQ(ops[5]->arity(), 1u);
}

// ------------------------------------------------------------------- SBX

TEST_F(OperatorFixture, SbxChildBetweenOrNearParents) {
    Sbx sbx(*problem_, 15.0, 1.0);
    int inside = 0, total = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto parents = make_parents(2);
        const auto child = sbx.apply(view(parents), rng_);
        expect_within_bounds(child);
        for (std::size_t i = 0; i < child.size(); ++i) {
            const double lo = std::min(parents[0][i], parents[1][i]);
            const double hi = std::max(parents[0][i], parents[1][i]);
            ++total;
            // High distribution index concentrates children near parents;
            // most variables stay inside the parent interval.
            if (child[i] >= lo - 1e-9 && child[i] <= hi + 1e-9) ++inside;
        }
    }
    EXPECT_GT(inside, total / 2);
}

TEST_F(OperatorFixture, SbxIdenticalParentsYieldParent) {
    Sbx sbx(*problem_);
    const auto p = random_point();
    const auto child = sbx.apply(ParentView{p, p}, rng_);
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_DOUBLE_EQ(child[i], p[i]);
}

TEST_F(OperatorFixture, SbxMeanPreserving) {
    // SBX is mean-preserving: E[child_i] equals the parent mean per
    // variable when both symmetric children are kept; our single-child
    // variant picks one of the two at random, preserving the mean too.
    Sbx sbx(*problem_, 15.0, 1.0);
    const auto parents = make_parents(2);
    double bias = 0.0;
    const int trials = 20000;
    for (int trial = 0; trial < trials; ++trial) {
        const auto child = sbx.apply(view(parents), rng_);
        bias += child[0] - 0.5 * (parents[0][0] + parents[1][0]);
    }
    EXPECT_NEAR(bias / trials, 0.0, 0.01);
}

// -------------------------------------------------------------------- DE

TEST_F(OperatorFixture, DeZeroDifferenceReturnsBase) {
    DifferentialEvolution de(*problem_, 0.9, 0.5);
    const auto base = random_point();
    const auto donor = random_point();
    // parents[2] == parents[3] makes every step zero: child == base except
    // crossed variables take donor's value + 0.
    const auto same = random_point();
    const auto child =
        de.apply(ParentView{base, donor, same, same}, rng_);
    for (std::size_t i = 0; i < child.size(); ++i)
        EXPECT_TRUE(std::abs(child[i] - base[i]) < 1e-12 ||
                    std::abs(child[i] - donor[i]) < 1e-12);
}

TEST_F(OperatorFixture, DeAlwaysCrossesAtLeastOneVariable) {
    DifferentialEvolution de(*problem_, 0.0, 0.5); // CR = 0
    int changed_runs = 0;
    for (int trial = 0; trial < 100; ++trial) {
        const auto parents = make_parents(4);
        const auto child = de.apply(view(parents), rng_);
        int changed = 0;
        for (std::size_t i = 0; i < child.size(); ++i)
            if (child[i] != parents[0][i]) ++changed;
        // Exactly the forced index changes (unless clipped back onto the
        // base value, which is measure-zero here).
        if (changed >= 1) ++changed_runs;
        EXPECT_LE(changed, 2);
    }
    EXPECT_GT(changed_runs, 95);
}

TEST_F(OperatorFixture, DeStepSizeScalesPerturbation) {
    const auto base = random_point();
    const auto a = random_point();
    const auto b = random_point();
    const auto c = random_point();
    DifferentialEvolution small(*problem_, 1.0, 0.1);
    DifferentialEvolution large(*problem_, 1.0, 0.9);
    util::Rng rng_small(7), rng_large(7); // identical streams
    const auto child_small =
        small.apply(ParentView{base, a, b, c}, rng_small);
    const auto child_large =
        large.apply(ParentView{base, a, b, c}, rng_large);
    for (std::size_t i = 0; i < base.size(); ++i) {
        const double expected_small = a[i] + 0.1 * (b[i] - c[i]);
        const double expected_large = a[i] + 0.9 * (b[i] - c[i]);
        const double clipped_small = std::clamp(expected_small, 0.0, 1.0);
        const double clipped_large = std::clamp(expected_large, 0.0, 1.0);
        EXPECT_NEAR(child_small[i], clipped_small, 1e-12);
        EXPECT_NEAR(child_large[i], clipped_large, 1e-12);
    }
}

// ------------------------------------------------------------------- PCX

TEST_F(OperatorFixture, PcxCentersOnIndexParent) {
    Pcx pcx(*problem_, 10, 0.1, 0.1);
    const auto parents = make_parents(10);
    double mean_dist_to_index = 0.0, mean_dist_to_other = 0.0;
    const int trials = 500;
    for (int trial = 0; trial < trials; ++trial) {
        const auto child = pcx.apply(view(parents), rng_);
        expect_within_bounds(child);
        double d0 = 0.0, d1 = 0.0;
        for (std::size_t i = 0; i < child.size(); ++i) {
            d0 += (child[i] - parents[0][i]) * (child[i] - parents[0][i]);
            d1 += (child[i] - parents[5][i]) * (child[i] - parents[5][i]);
        }
        mean_dist_to_index += std::sqrt(d0);
        mean_dist_to_other += std::sqrt(d1);
    }
    EXPECT_LT(mean_dist_to_index, mean_dist_to_other);
}

TEST_F(OperatorFixture, PcxDegenerateParentsReturnIndexParent) {
    Pcx pcx(*problem_);
    const auto p = random_point();
    const ParentView parents{p, p, p, p};
    const auto child = pcx.apply(parents, rng_);
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_DOUBLE_EQ(child[i], p[i]);
}

// ------------------------------------------------------------------- SPX

TEST_F(OperatorFixture, SpxCentroidOfIdenticalParentsFixed) {
    Spx spx(*problem_, 10, 3.0);
    const auto p = random_point();
    const ParentView parents{p, p, p};
    const auto child = spx.apply(parents, rng_);
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_NEAR(child[i], p[i], 1e-12);
}

TEST_F(OperatorFixture, SpxStaysInExpandedSimplexSpan) {
    // With expansion 1.0 the child lies in the convex hull of the parents.
    Spx spx(*problem_, 3, 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        const auto parents = make_parents(3);
        const auto child = spx.apply(view(parents), rng_);
        for (std::size_t i = 0; i < child.size(); ++i) {
            double lo = 1e9, hi = -1e9;
            for (const auto& p : parents) {
                lo = std::min(lo, p[i]);
                hi = std::max(hi, p[i]);
            }
            EXPECT_GE(child[i], lo - 1e-9);
            EXPECT_LE(child[i], hi + 1e-9);
        }
    }
}

TEST_F(OperatorFixture, SpxExpansionWidensSpread) {
    const auto parents = make_parents(5);
    Spx narrow(*problem_, 5, 1.0);
    Spx wide(*problem_, 5, 3.0);
    double var_narrow = 0.0, var_wide = 0.0;
    std::vector<double> g(problem_->num_variables(), 0.0);
    for (const auto& p : parents)
        for (std::size_t i = 0; i < g.size(); ++i) g[i] += p[i] / 5.0;
    for (int trial = 0; trial < 2000; ++trial) {
        const auto cn = narrow.apply(view(parents), rng_);
        const auto cw = wide.apply(view(parents), rng_);
        for (std::size_t i = 0; i < g.size(); ++i) {
            var_narrow += (cn[i] - g[i]) * (cn[i] - g[i]);
            var_wide += (cw[i] - g[i]) * (cw[i] - g[i]);
        }
    }
    EXPECT_GT(var_wide, var_narrow);
}

// ------------------------------------------------------------------ UNDX

TEST_F(OperatorFixture, UndxCentersOnPrimaryCentroid) {
    Undx undx(*problem_, 10, 0.5, 0.35);
    const auto parents = make_parents(10);
    std::vector<double> g(problem_->num_variables(), 0.0);
    for (std::size_t p = 0; p < 9; ++p) // primary parents only
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] += parents[p][i] / 9.0;
    std::vector<double> mean_child(g.size(), 0.0);
    const int trials = 3000;
    for (int trial = 0; trial < trials; ++trial) {
        const auto child = undx.apply(view(parents), rng_);
        expect_within_bounds(child);
        for (std::size_t i = 0; i < g.size(); ++i)
            mean_child[i] += child[i] / trials;
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
        // Clipping skews slightly; centroid must still be close.
        EXPECT_NEAR(mean_child[i], std::clamp(g[i], 0.0, 1.0), 0.05);
    }
}

TEST_F(OperatorFixture, UndxDegenerateParentsReturnCentroid) {
    Undx undx(*problem_);
    const auto p = random_point();
    const ParentView parents{p, p, p};
    const auto child = undx.apply(parents, rng_);
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_NEAR(child[i], p[i], 1e-12);
}

// -------------------------------------------------------------------- UM

TEST_F(OperatorFixture, UmMutatesRoughlyOneVariable) {
    UniformMutation um(*problem_); // probability 1/L
    double changed_total = 0.0;
    const int trials = 5000;
    for (int trial = 0; trial < trials; ++trial) {
        const auto p = random_point();
        const auto child = um.apply(ParentView{p}, rng_);
        for (std::size_t i = 0; i < p.size(); ++i)
            if (child[i] != p[i]) changed_total += 1.0;
    }
    EXPECT_NEAR(changed_total / trials, 1.0, 0.1);
}

TEST_F(OperatorFixture, UmProbabilityOneRandomizesEverything) {
    UniformMutation um(*problem_, 1.0);
    const auto p = random_point();
    const auto child = um.apply(ParentView{p}, rng_);
    int changed = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
        if (child[i] != p[i]) ++changed;
    EXPECT_EQ(changed, static_cast<int>(p.size()));
}

// -------------------------------------------------------------------- PM

TEST_F(OperatorFixture, PmSmallPerturbations) {
    PolynomialMutation pm(*problem_, 20.0, 1.0);
    double total_shift = 0.0;
    const int trials = 2000;
    for (int trial = 0; trial < trials; ++trial) {
        const auto p = random_point();
        const auto child = pm.apply(ParentView{p}, rng_);
        expect_within_bounds(child);
        for (std::size_t i = 0; i < p.size(); ++i)
            total_shift += std::abs(child[i] - p[i]);
    }
    // Distribution index 20 keeps moves small: average |shift| well under
    // a tenth of the range.
    EXPECT_LT(total_shift / (trials * problem_->num_variables()), 0.1);
}

TEST_F(OperatorFixture, PmDefaultProbabilityIsOneOverL) {
    PolynomialMutation pm(*problem_);
    double changed_total = 0.0;
    const int trials = 5000;
    for (int trial = 0; trial < trials; ++trial) {
        const auto p = random_point();
        const auto child = pm.apply(ParentView{p}, rng_);
        for (std::size_t i = 0; i < p.size(); ++i)
            if (child[i] != p[i]) changed_total += 1.0;
    }
    EXPECT_NEAR(changed_total / trials, 1.0, 0.1);
}

// -------------------------------------------------------------- composite

TEST_F(OperatorFixture, CompositeAppliesBothStages) {
    CompositeVariation combo(*problem_, std::make_unique<Sbx>(*problem_),
                             std::make_unique<UniformMutation>(*problem_, 1.0));
    EXPECT_EQ(combo.name(), "SBX+UM");
    EXPECT_EQ(combo.arity(), 2u);
    const auto parents = make_parents(2);
    const auto child = combo.apply(view(parents), rng_);
    // UM with probability 1 leaves no variable equal to the SBX output of
    // either parent (almost surely).
    int equal_to_parent = 0;
    for (std::size_t i = 0; i < child.size(); ++i)
        if (child[i] == parents[0][i] || child[i] == parents[1][i])
            ++equal_to_parent;
    EXPECT_LE(equal_to_parent, 1);
}

// --------------------------------------------------------------- validity

TEST_F(OperatorFixture, OperatorsRejectTooFewParents) {
    Sbx sbx(*problem_);
    DifferentialEvolution de(*problem_);
    const auto p = random_point();
    EXPECT_THROW(sbx.apply(ParentView{p}, rng_), std::invalid_argument);
    EXPECT_THROW(de.apply(ParentView{p, p}, rng_), std::invalid_argument);
}

TEST_F(OperatorFixture, OperatorsRejectMismatchedParents) {
    Sbx sbx(*problem_);
    const auto p = random_point();
    const std::vector<double> shorter(p.begin(), p.end() - 1);
    EXPECT_THROW(sbx.apply(ParentView{p, shorter}, rng_),
                 std::invalid_argument);
    // An output row shorter (or longer) than the parents is rejected
    // before anything is written into it, by every operator body.
    std::vector<double> short_row(p.size() - 1), long_row(p.size() + 1);
    for (const auto& op : make_borg_operators(*problem_)) {
        const auto parents = make_parents(op->arity());
        EXPECT_THROW(op->apply_into(view(parents), rng_, short_row),
                     std::invalid_argument)
            << op->name();
        EXPECT_THROW(op->apply_into(view(parents), rng_, long_row),
                     std::invalid_argument)
            << op->name();
    }
}

TEST_F(OperatorFixture, BadParametersRejected) {
    EXPECT_THROW(Sbx(*problem_, 0.0), std::invalid_argument);
    EXPECT_THROW(Pcx(*problem_, 1), std::invalid_argument);
    EXPECT_THROW(Spx(*problem_, 3, 0.0), std::invalid_argument);
    EXPECT_THROW(Undx(*problem_, 2), std::invalid_argument);
    EXPECT_THROW(PolynomialMutation(*problem_, -1.0), std::invalid_argument);
}

// ------------------------------------------------- recorded offspring
//
// Each operator has one body (apply_into); apply() wraps it. Both entry
// points, on lockstep RNG streams, must reproduce the offspring digests
// recorded in tests/operator_digests.hpp — 100 (resp. 50) trials per
// operator, so one extra or missing draw desyncs every later trial and
// moves the digest. The digests predate the single-body refactor: they
// were captured while each operator still had an independent
// value-returning twin that matched apply_into bit for bit.

TEST_F(OperatorFixture, ApplyIntoMatchesApplyBitForBit) {
    const auto problem = problems::make_problem(testops::kProblem);
    const auto ops = testops::all_raw_operators(*problem);
    ASSERT_EQ(ops.size(), std::size(testops::kRawDigests));
    util::Rng parent_rng(testops::kParentSeed);
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const testops::RecordedDigest& recorded = testops::kRawDigests[k];
        ASSERT_EQ(ops[k]->name(), recorded.name);
        const testops::OffspringDigests got = testops::digest_offspring(
            *ops[k], *problem, parent_rng, testops::kRawSeed,
            testops::kRawTrials);
        EXPECT_EQ(got.apply_into, recorded.digest) << recorded.name;
        EXPECT_EQ(got.apply, recorded.digest) << recorded.name;
    }
}

TEST_F(OperatorFixture, EnsembleApplyIntoMatchesApplyBitForBit) {
    // The composite (recombiner+PM) wrappers the algorithm actually uses.
    const auto problem = problems::make_problem(testops::kProblem);
    const auto ops = make_borg_operators(*problem);
    ASSERT_EQ(ops.size(), std::size(testops::kEnsembleDigests));
    util::Rng parent_rng(testops::kParentSeed);
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const testops::RecordedDigest& recorded =
            testops::kEnsembleDigests[k];
        ASSERT_EQ(ops[k]->name(), recorded.name);
        const testops::OffspringDigests got = testops::digest_offspring(
            *ops[k], *problem, parent_rng, testops::kEnsembleSeed,
            testops::kEnsembleTrials);
        EXPECT_EQ(got.apply_into, recorded.digest) << recorded.name;
        EXPECT_EQ(got.apply, recorded.digest) << recorded.name;
    }
}

TEST_F(OperatorFixture, ProduceBatchMatchesSequentialApplyInto) {
    constexpr std::size_t kBatch = 16;
    const std::size_t n = problem_->num_variables();
    for (const auto& op : make_borg_operators(*problem_)) {
        const auto parents = make_parents(op->arity());
        util::Rng batch_rng(31), seq_rng(31);
        std::vector<double> batched(kBatch * n);
        op->produce_batch(view(parents), batch_rng, kBatch, batched);
        std::vector<double> row(n);
        for (std::size_t i = 0; i < kBatch; ++i) {
            op->apply_into(view(parents), seq_rng, row);
            const std::span<const double> got(batched.data() + i * n, n);
            EXPECT_TRUE(std::ranges::equal(got, row))
                << op->name() << " offspring " << i;
        }
    }
}

} // namespace
