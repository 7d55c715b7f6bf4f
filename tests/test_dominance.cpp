#include "moea/dominance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace {

using namespace borg::moea;

TEST(Pareto, StrictDomination) {
    const std::vector<double> a{1.0, 2.0};
    const std::vector<double> b{2.0, 3.0};
    EXPECT_EQ(compare_pareto(a, b), Dominance::kDominates);
    EXPECT_EQ(compare_pareto(b, a), Dominance::kDominatedBy);
    EXPECT_TRUE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
}

TEST(Pareto, WeakDominationCounts) {
    const std::vector<double> a{1.0, 2.0};
    const std::vector<double> b{1.0, 3.0};
    EXPECT_EQ(compare_pareto(a, b), Dominance::kDominates);
}

TEST(Pareto, Nondominated) {
    const std::vector<double> a{1.0, 3.0};
    const std::vector<double> b{2.0, 2.0};
    EXPECT_EQ(compare_pareto(a, b), Dominance::kNondominated);
    EXPECT_FALSE(dominates(a, b));
}

TEST(Pareto, Equal) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    EXPECT_EQ(compare_pareto(a, a), Dominance::kEqual);
    EXPECT_FALSE(dominates(a, a));
}

TEST(Pareto, SingleObjective) {
    const std::vector<double> a{1.0};
    const std::vector<double> b{2.0};
    EXPECT_EQ(compare_pareto(a, b), Dominance::kDominates);
}

TEST(EpsilonBox, IndexIsFloorDivision) {
    const std::vector<double> f{0.25, 0.99, -0.1};
    const std::vector<double> eps{0.1, 0.1, 0.1};
    const auto box = epsilon_box(f, eps);
    EXPECT_EQ(box[0], 2);
    EXPECT_EQ(box[1], 9);
    EXPECT_EQ(box[2], -1); // floor handles negatives correctly
}

TEST(EpsilonBox, PerObjectiveEpsilons) {
    const std::vector<double> f{0.25, 0.25};
    const std::vector<double> eps{0.1, 0.25};
    const auto box = epsilon_box(f, eps);
    EXPECT_EQ(box[0], 2);
    EXPECT_EQ(box[1], 1);
}

TEST(EpsilonBox, NearbyPointsShareBox) {
    const std::vector<double> eps{0.1, 0.1};
    const auto b1 = epsilon_box(std::vector<double>{0.51, 0.32}, eps);
    const auto b2 = epsilon_box(std::vector<double>{0.59, 0.39}, eps);
    EXPECT_EQ(b1, b2);
}

TEST(BoxComparison, MirrorsPareto) {
    const std::vector<std::int64_t> a{1, 2};
    const std::vector<std::int64_t> b{2, 3};
    const std::vector<std::int64_t> c{0, 5};
    EXPECT_EQ(compare_boxes(a, b), Dominance::kDominates);
    EXPECT_EQ(compare_boxes(b, a), Dominance::kDominatedBy);
    EXPECT_EQ(compare_boxes(a, c), Dominance::kNondominated);
    EXPECT_EQ(compare_boxes(a, a), Dominance::kEqual);
}

TEST(BoxCorner, DistanceToLowerCorner) {
    const std::vector<double> eps{0.1, 0.1};
    const std::vector<double> f{0.25, 0.31};
    const auto box = epsilon_box(f, eps);
    // Corner is (0.2, 0.3): squared distance 0.05^2 + 0.01^2.
    EXPECT_NEAR(distance_to_box_corner(f, box, eps), 0.0026, 1e-12);
}

TEST(BoxCorner, CornerItselfIsZero) {
    const std::vector<double> eps{0.5};
    const std::vector<double> f{1.0};
    const auto box = epsilon_box(f, eps);
    EXPECT_DOUBLE_EQ(distance_to_box_corner(f, box, eps), 0.0);
}

// ---------------------------------------------------------------------------
// DominanceTiles: the tile kernel against a scalar compare_constrained
// reference kept here. Values come from a small pool so ties, duplicate
// rows, ±0.0, infinities and NaN all occur; violations are
// total_violation()-style sums (0, -0.0, equal nonzero values, NaN).
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Rows {
    std::vector<std::vector<double>> values;
    std::vector<double> violations;
};

double draw_value(borg::util::Rng& rng) {
    static const double pool[] = {0.0, -0.0, 0.25, 0.5, 0.5, 1.0,
                                  -1.0, kInf, -kInf, kNaN, 2.0, 3.0};
    if (rng.flip(0.5)) return rng.uniform(-1.0, 3.0);
    return pool[rng.below(std::size(pool))];
}

double draw_violation(borg::util::Rng& rng) {
    static const double pool[] = {0.0, 0.0, 0.0, -0.0, 0.5, 0.5, 1.5, kNaN};
    return pool[rng.below(std::size(pool))];
}

Rows random_rows(std::size_t m, std::size_t n, borg::util::Rng& rng) {
    Rows rows;
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0 && rng.flip(0.1)) { // duplicate an earlier row
            const std::size_t k = rng.below(i);
            rows.values.push_back(rows.values[k]);
            rows.violations.push_back(rows.violations[k]);
            continue;
        }
        std::vector<double> v(m);
        for (double& x : v) x = draw_value(rng);
        rows.values.push_back(std::move(v));
        rows.violations.push_back(draw_violation(rng));
    }
    return rows;
}

DominanceTiles mirror_of(const Rows& rows, std::size_t m) {
    DominanceTiles tiles;
    tiles.reset(m);
    tiles.resize(rows.values.size());
    for (std::size_t i = 0; i < rows.values.size(); ++i)
        tiles.set_row(i, rows.values[i], rows.violations[i]);
    return tiles;
}

TEST(DominanceTiles, ScanMatchesScalarReference) {
    borg::util::Rng rng(2024);
    for (const std::size_t m : {1u, 2u, 3u, 5u, 8u, 11u}) {
        for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 65u, 130u,
                                    257u}) {
            const Rows rows = random_rows(m, n, rng);
            const DominanceTiles tiles = mirror_of(rows, m);
            std::vector<std::uint64_t> bits;
            for (int trial = 0; trial < 40; ++trial) {
                // Candidates: fresh rows, and copies of existing rows.
                std::vector<double> cand(m);
                for (double& x : cand) x = draw_value(rng);
                double cv = draw_violation(rng);
                if (n > 0 && trial % 4 == 0) {
                    const std::size_t k = rng.below(n);
                    cand = rows.values[k];
                    cv = rows.violations[k];
                }
                const bool flag = tiles.scan(cand, cv, bits);
                ASSERT_EQ(bits.size(), (n + 63) / 64);
                bool expected_flag = false;
                for (std::size_t i = 0; i < n; ++i) {
                    const Dominance d = compare_constrained(
                        cand, cv, rows.values[i], rows.violations[i]);
                    expected_flag |= d == Dominance::kDominatedBy;
                    const bool bit = (bits[i / 64] >> (i % 64)) & 1u;
                    ASSERT_EQ(bit, d == Dominance::kDominates)
                        << "m=" << m << " n=" << n << " row " << i;
                }
                for (std::size_t i = n; i < bits.size() * 64; ++i)
                    ASSERT_EQ((bits[i / 64] >> (i % 64)) & 1u, 0u);
                ASSERT_EQ(flag, expected_flag) << "m=" << m << " n=" << n;
            }
        }
    }
}

TEST(DominanceTiles, CompareRowsAndTournamentMatchScalarReference) {
    borg::util::Rng rng(77);
    for (const std::size_t m : {1u, 2u, 3u, 5u, 8u, 11u}) {
        for (const std::size_t n : {1u, 2u, 5u, 40u}) {
            const Rows rows = random_rows(m, n, rng);
            const DominanceTiles tiles = mirror_of(rows, m);
            for (std::size_t a = 0; a < n; ++a)
                for (std::size_t b = 0; b < n; ++b)
                    ASSERT_EQ(tiles.compare_rows(a, b),
                              compare_constrained(
                                  rows.values[a], rows.violations[a],
                                  rows.values[b], rows.violations[b]))
                        << "m=" << m << " rows " << a << ", " << b;
            for (const std::size_t size : {1u, 2u, 3u, 4u, 9u, 31u}) {
                std::vector<std::uint64_t> contestants(size);
                for (auto& c : contestants) c = rng.below(n);
                std::size_t best = contestants[0];
                for (std::size_t k = 1; k < size; ++k)
                    if (compare_constrained(
                            rows.values[contestants[k]],
                            rows.violations[contestants[k]],
                            rows.values[best], rows.violations[best]) ==
                        Dominance::kDominates)
                        best = contestants[k];
                ASSERT_EQ(tiles.tournament(contestants), best)
                    << "m=" << m << " n=" << n << " size=" << size;
            }
        }
    }
}

TEST(DominanceTiles, InfeasibleCandidateFollowsDebsRule) {
    DominanceTiles tiles;
    tiles.reset(2);
    tiles.resize(4);
    tiles.set_row(0, std::vector<double>{5.0, 5.0}, 0.0); // feasible
    tiles.set_row(1, std::vector<double>{0.0, 0.0}, 2.0); // more violating
    tiles.set_row(2, std::vector<double>{2.0, 2.0}, 1.0); // equal violation
    tiles.set_row(3, std::vector<double>{0.5, 3.0}, 1.0); // equal, nondom
    std::vector<std::uint64_t> bits;
    const std::vector<double> cand{1.0, 1.0};
    EXPECT_TRUE(tiles.scan(cand, 1.0, bits)); // row 0 dominates
    ASSERT_EQ(bits.size(), 1u);
    EXPECT_EQ(bits[0], 0b0110u); // rows 1 (violation) and 2 (objectives)
}

TEST(DominanceTiles, ClearedRowsNeverTakePart) {
    DominanceTiles tiles;
    tiles.reset(3);
    tiles.resize(3);
    const std::vector<double> low{0.0, 0.0, 0.0};
    const std::vector<double> high{9.0, 9.0, 9.0};
    tiles.set_row(0, high, 0.0);
    tiles.set_row(1, low, 0.0);
    tiles.set_row(2, high, 0.0);
    tiles.clear_row(1);
    std::vector<std::uint64_t> bits;
    const std::vector<double> mid{1.0, 1.0, 1.0};
    EXPECT_FALSE(tiles.scan(mid, 0.0, bits)); // cleared row 1 dominates no one
    EXPECT_EQ(bits[0], 0b101u);
    const std::vector<double> best{-1.0, -1.0, -1.0};
    EXPECT_FALSE(tiles.scan(best, 0.0, bits)); // nor is it dominated
    EXPECT_EQ(bits[0], 0b101u);
    tiles.resize(5); // grown rows start cleared too
    EXPECT_FALSE(tiles.scan(best, 0.0, bits));
    EXPECT_EQ(bits[0], 0b101u);
}

} // namespace
