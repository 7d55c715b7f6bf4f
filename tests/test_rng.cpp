#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace {

using borg::util::derive_seed;
using borg::util::Rng;
using borg::util::splitmix64;

TEST(Rng, DeterministicForSameSeed) {
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b()) ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanAndVariance) {
    Rng rng(99);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        sum += u;
        sum_sq += u * u;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.5, 0.005);
    EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-2.5, 7.5);
        ASSERT_GE(x, -2.5);
        ASSERT_LT(x, 7.5);
    }
}

TEST(Rng, BelowIsUnbiased) {
    Rng rng(11);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
    for (const int c : counts)
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
}

TEST(Rng, BelowOneAlwaysZero) {
    Rng rng(4);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive) {
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
    Rng rng(21);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
    Rng rng(22);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, FlipProbability) {
    Rng rng(31);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.flip(0.3)) ++heads;
    EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, FlipZeroAndOne) {
    Rng rng(32);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(rng.flip(0.0));
        EXPECT_TRUE(rng.flip(1.0));
    }
}

TEST(Rng, SampleIndicesDistinct) {
    Rng rng(41);
    for (int trial = 0; trial < 100; ++trial) {
        const auto picks = rng.sample_indices(50, 10);
        ASSERT_EQ(picks.size(), 10u);
        const std::set<std::size_t> unique(picks.begin(), picks.end());
        EXPECT_EQ(unique.size(), 10u);
        for (const auto p : picks) EXPECT_LT(p, 50u);
    }
}

TEST(Rng, SampleIndicesFullRange) {
    Rng rng(42);
    auto picks = rng.sample_indices(8, 8);
    std::sort(picks.begin(), picks.end());
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(picks[i], i);
}

TEST(Rng, SampleIndicesEmpty) {
    Rng rng(43);
    EXPECT_TRUE(rng.sample_indices(5, 0).empty());
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent(55);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (parent() == child()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Rng, SplitMixAdvancesState) {
    std::uint64_t x = 0;
    const auto a = splitmix64(x);
    const auto b = splitmix64(x);
    EXPECT_NE(a, b);
}

TEST(Rng, DeriveSeedSeparatesStreams) {
    const auto a = derive_seed(100, 0, 0);
    const auto b = derive_seed(100, 1, 0);
    const auto c = derive_seed(100, 0, 1);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(b, c);
    EXPECT_EQ(a, derive_seed(100, 0, 0));
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
    static_assert(std::uniform_random_bit_generator<Rng>);
    SUCCEED();
}

TEST(Rng, BatchedBelowMatchesScalarDrawForDraw) {
    // Every value and every consumed draw must match below(n) called
    // once per value: afterwards both streams are still aligned.
    std::vector<std::uint64_t> bounds{1, 3, 5, 7, 100, 7732, 1000003};
    for (int k = 1; k < 64; ++k) bounds.push_back(std::uint64_t{1} << k);
    for (const std::uint64_t n :
         {(std::uint64_t{1} << 32) - 1, (std::uint64_t{1} << 32) + 1,
          (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0},
          ~std::uint64_t{0} - 1, (std::uint64_t{1} << 63) - 1})
        bounds.push_back(n);
    Rng pick(31);
    for (int i = 0; i < 200; ++i) {
        bounds.push_back(pick() >> pick.below(64));
        if (bounds.back() == 0) bounds.back() = 1;
    }
    for (const std::uint64_t n : bounds) {
        for (const std::size_t count : {0u, 1u, 2u, 7u, 155u}) {
            Rng scalar(n ^ count), batched(n ^ count);
            std::vector<std::uint64_t> out(count);
            batched.below(n, out);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(out[i], scalar.below(n))
                    << "n=" << n << " value " << i;
            ASSERT_EQ(batched(), scalar()) << "stream misaligned, n=" << n;
        }
    }
}

} // namespace
