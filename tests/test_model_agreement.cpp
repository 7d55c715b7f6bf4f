/// Statistical agreement tests between the three model layers (DESIGN.md
/// §2) and the mergeable-statistics layer the sweep engine relies on:
///
///  * below master saturation (P < P_UB, Eq. 3) the discrete-event
///    simulation must reproduce the analytical runtime (Eq. 2) to within a
///    small tolerance — the regime where the paper reports both agree;
///  * above saturation the simulation must exceed Eq. 2 (whose known
///    failure mode is underestimating contention) and track the saturating
///    closed form instead;
///  * merged moments (stats::Accumulator / Summary / obs::Histogram) must
///    match single-pass computation to 1e-12 under any partitioning and
///    permutation of the sample — the property that makes sweep results
///    independent of scheduling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "models/analytical.hpp"
#include "models/simulation_model.hpp"
#include "obs/metrics_registry.hpp"
#include "stats/distribution.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace {

using namespace borg;

// The paper's Section VI constants: T_C = 6 us, T_A = 60 us, T_F = 10 ms,
// giving P_UB = T_F / (2 T_C + T_A) ~= 139 (Eq. 3).
constexpr double kTf = 0.01;
constexpr double kTc = 6e-6;
constexpr double kTa = 60e-6;
constexpr std::uint64_t kEvals = 20000;

parallel::VirtualRunResult simulate(std::uint64_t processors) {
    const stats::ConstantDistribution tf(kTf);
    const stats::ConstantDistribution tc(kTc);
    const stats::ConstantDistribution ta(kTa);
    const models::SimulationConfig cfg{kEvals, processors, &tf, &tc, &ta,
                                       2013};
    return models::simulate_async(cfg);
}

TEST(ModelAgreement, SimulationMatchesAnalyticalBelowSaturation) {
    const models::TimingCosts costs{kTf, kTc, kTa};
    const double p_ub = models::processor_upper_bound(costs);
    ASSERT_NEAR(p_ub, 138.9, 0.5); // the paper's worked regime

    for (const std::uint64_t p : {8u, 16u, 32u, 64u}) {
        ASSERT_LT(static_cast<double>(p), p_ub);
        const double predicted = models::async_parallel_time(kEvals, p, costs);
        const double simulated = simulate(p).elapsed;
        EXPECT_NEAR(simulated, predicted, 0.02 * predicted)
            << "P = " << p << ": Eq. 2 and the DES disagree by more than 2% "
            << "below saturation";
    }
}

TEST(ModelAgreement, SimulationExceedsAnalyticalAboveSaturation) {
    const models::TimingCosts costs{kTf, kTc, kTa};
    for (const std::uint64_t p : {512u, 1024u}) {
        ASSERT_GT(static_cast<double>(p),
                  models::processor_upper_bound(costs));
        const double analytical = models::async_parallel_time(kEvals, p, costs);
        const double saturating =
            models::async_parallel_time_saturating(kEvals, p, costs);
        const double simulated = simulate(p).elapsed;
        // Eq. 2's documented failure mode: it underestimates once workers
        // queue for the master.
        EXPECT_GT(simulated, analytical) << "P = " << p;
        // The saturating closed form stays accurate on this side.
        EXPECT_NEAR(simulated, saturating, 0.10 * saturating) << "P = " << p;
    }
}

TEST(ModelAgreement, SaturatedMasterHasNoIdleTime) {
    const auto result = simulate(1024);
    EXPECT_GT(result.master_busy_fraction, 0.95);
    EXPECT_GT(result.contention_rate, 0.5);
}

// ---------------------------------------------------------------------------
// Mergeable statistics: partition + permutation invariance to 1e-12.

std::vector<double> sample_values(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.gaussian(3.0, 1.7);
    return xs;
}

/// Splits [0, n) into uneven contiguous chunks (sizes 1, 2, 3, ...).
std::vector<std::pair<std::size_t, std::size_t>> chunks_of(std::size_t n) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t begin = 0, width = 1;
    while (begin < n) {
        const std::size_t end = std::min(n, begin + width);
        out.emplace_back(begin, end);
        begin = end;
        ++width;
    }
    return out;
}

TEST(MergeableStats, AccumulatorMergeMatchesSinglePass) {
    const auto xs = sample_values(1000, 99);
    stats::Accumulator whole;
    for (const double x : xs) whole.add(x);

    const auto chunks = chunks_of(xs.size());
    std::vector<std::size_t> perm(chunks.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (int trial = 0; trial < 3; ++trial) {
        std::reverse(perm.begin(), perm.begin() + trial * 7 + 5);
        stats::Accumulator merged;
        for (const std::size_t c : perm) {
            stats::Accumulator part;
            for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i)
                part.add(xs[i]);
            merged.merge(part);
        }
        EXPECT_EQ(merged.count(), whole.count());
        EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
        EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12);
        EXPECT_EQ(merged.min(), whole.min());
        EXPECT_EQ(merged.max(), whole.max());
    }
}

TEST(MergeableStats, AccumulatorMergeEmptySides) {
    stats::Accumulator a, b, empty;
    a.add(1.0);
    a.add(2.0);
    a.merge(empty); // no-op
    EXPECT_EQ(a.count(), 2u);
    EXPECT_NEAR(a.mean(), 1.5, 1e-15);
    b.merge(a); // into empty
    EXPECT_EQ(b.count(), 2u);
    EXPECT_NEAR(b.mean(), 1.5, 1e-15);
    EXPECT_EQ(b.min(), 1.0);
    EXPECT_EQ(b.max(), 2.0);
}

TEST(MergeableStats, SummaryMergeMatchesSinglePassMoments) {
    const auto xs = sample_values(500, 7);
    const stats::Summary whole = stats::summarize(xs);

    const auto chunks = chunks_of(xs.size());
    // Two different merge orders must both match the single pass.
    for (const bool reversed : {false, true}) {
        std::vector<std::size_t> perm(chunks.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        if (reversed) std::reverse(perm.begin(), perm.end());

        stats::Summary pooled;
        for (const std::size_t c : perm) {
            const std::span<const double> part(xs.data() + chunks[c].first,
                                               chunks[c].second -
                                                   chunks[c].first);
            pooled.merge(stats::summarize(part));
        }
        EXPECT_EQ(pooled.count, whole.count);
        EXPECT_NEAR(pooled.mean, whole.mean, 1e-12);
        EXPECT_NEAR(pooled.stddev, whole.stddev, 1e-12);
        EXPECT_EQ(pooled.min, whole.min);
        EXPECT_EQ(pooled.max, whole.max);
        // The median is documented as a count-weighted approximation, not
        // the exact pooled median — sanity-bound it only.
        EXPECT_GE(pooled.median, whole.min);
        EXPECT_LE(pooled.median, whole.max);
    }
}

TEST(MergeableStats, FreeMergeFunctionPoolsTwoSummaries) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{10.0, 20.0};
    const std::vector<double> all{1.0, 2.0, 3.0, 10.0, 20.0};
    const stats::Summary pooled =
        stats::merge(stats::summarize(a), stats::summarize(b));
    const stats::Summary whole = stats::summarize(all);
    EXPECT_EQ(pooled.count, whole.count);
    EXPECT_NEAR(pooled.mean, whole.mean, 1e-12);
    EXPECT_NEAR(pooled.stddev, whole.stddev, 1e-12);
    EXPECT_EQ(pooled.min, 1.0);
    EXPECT_EQ(pooled.max, 20.0);
}

TEST(MergeableStats, HistogramMergeMatchesSinglePass) {
    const auto xs = sample_values(777, 123);
    obs::Histogram whole;
    for (const double x : xs) whole.observe(x);

    obs::Histogram merged;
    for (const auto& [begin, end] : chunks_of(xs.size())) {
        obs::Histogram part;
        for (std::size_t i = begin; i < end; ++i) part.observe(xs[i]);
        merged.merge(part);
    }
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12);
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
}

} // namespace
