#include "moea/dominance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
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
// Each check runs once on the dispatched kernel (the plain DominanceTiles
// tests) and once per vector width the CPU runs (DominanceTilesAtWidth,
// through detail::set_kernel_width).
// ---------------------------------------------------------------------------

/// 0 keeps the dispatched kernel; otherwise the width to force.
using Width = std::size_t;

void use_width(DominanceTiles& tiles, Width width) {
    if (width != 0) detail::set_kernel_width(tiles, width);
}

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

DominanceTiles mirror_of(const Rows& rows, std::size_t m, Width width) {
    DominanceTiles tiles;
    use_width(tiles, width);
    tiles.reset(m);
    tiles.resize(rows.values.size());
    for (std::size_t i = 0; i < rows.values.size(); ++i)
        tiles.set_row(i, rows.values[i], rows.violations[i]);
    return tiles;
}

/// The cover form's reference: the lowest row that dominates or ties the
/// candidate under Deb's rule, neither violation being NaN.
std::size_t first_cover(const Rows& rows, std::span<const double> cand,
                        double cv) {
    if (std::isnan(cv)) return rows.values.size();
    for (std::size_t i = 0; i < rows.values.size(); ++i) {
        const Dominance d = compare_constrained(
            rows.values[i], rows.violations[i], cand, cv);
        if (!std::isnan(rows.violations[i]) &&
            (d == Dominance::kDominates || d == Dominance::kEqual))
            return i;
    }
    return rows.values.size();
}

void check_scan_matches_scalar_reference(Width width) {
    borg::util::Rng rng(2024);
    for (const std::size_t m : {1u, 2u, 3u, 5u, 8u, 11u}) {
        for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u,
                                    17u, 63u, 64u, 65u, 127u, 128u, 129u,
                                    130u, 257u}) {
            const Rows rows = random_rows(m, n, rng);
            const DominanceTiles tiles = mirror_of(rows, m, width);
            std::vector<std::uint64_t> bits;
            std::vector<std::uint64_t> cover_bits;
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
                // The cover form: the first covering row, else scan's bits.
                const std::size_t expected_cover = first_cover(rows, cand, cv);
                ASSERT_EQ(tiles.cover(cand, cv, cover_bits), expected_cover)
                    << "m=" << m << " n=" << n;
                if (expected_cover == n) {
                    ASSERT_EQ(cover_bits, bits);
                }
            }
        }
    }
}

/// Archive-shaped rows: mutually box-nondominated boxes (integer
/// coordinates near the simplex Σ = 1000, as doubles, violation 0) with
/// free rows in between. A free row first holds a box that would cover
/// every candidate, then is cleared, as a released archive slot is.
struct BoxRows {
    std::vector<std::vector<std::int64_t>> boxes;
    std::vector<bool> live;
    DominanceTiles tiles;
};

std::vector<double> as_doubles(const std::vector<std::int64_t>& box) {
    return {box.begin(), box.end()};
}

BoxRows box_rows(std::size_t m, std::size_t n, borg::util::Rng& rng,
                 Width width) {
    BoxRows rows;
    use_width(rows.tiles, width);
    rows.tiles.reset(m);
    rows.tiles.resize(n);
    const std::vector<double> covers_all(m, -1e6);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::int64_t> box(m);
        bool accepted = false;
        const bool free_row = rng.flip(0.2);
        for (int attempt = 0; !free_row && attempt < 20; ++attempt) {
            std::int64_t rest = 1000;
            for (std::size_t j = 0; j + 1 < m; ++j) {
                box[j] = static_cast<std::int64_t>(rng.below(400));
                rest -= box[j];
            }
            box[m - 1] = rest + static_cast<std::int64_t>(rng.below(3));
            accepted = true;
            for (std::size_t k = 0; k < i && accepted; ++k)
                accepted = !rows.live[k] ||
                           compare_boxes(box, rows.boxes[k]) ==
                               Dominance::kNondominated;
            if (accepted) break;
        }
        rows.boxes.push_back(box);
        rows.live.push_back(accepted);
        if (accepted) {
            rows.tiles.set_row(i, as_doubles(box), 0.0);
        } else {
            rows.tiles.set_row(i, covers_all, 0.0);
            rows.tiles.clear_row(i);
        }
    }
    return rows;
}

void check_cover_finds_first_covering_box(Width width) {
    borg::util::Rng rng(4242);
    std::size_t covered = 0;
    std::size_t uncovered = 0;
    for (const std::size_t m : {1u, 2u, 3u, 5u, 8u}) {
        for (const std::size_t n : {0u, 1u, 2u, 3u, 8u, 9u, 15u, 16u, 17u,
                                    63u, 64u, 65u, 127u, 128u, 129u,
                                    257u}) {
            const BoxRows rows = box_rows(m, n, rng, width);
            std::vector<std::size_t> live;
            for (std::size_t i = 0; i < n; ++i)
                if (rows.live[i]) live.push_back(i);
            // Where the covering row sits: first, last, and each side of
            // every 64-row word boundary (the nearest live rows).
            std::vector<std::size_t> targets;
            if (!live.empty()) {
                targets = {live.front(), live.back()};
                for (std::size_t edge = 64; edge < n; edge += 64) {
                    const auto it =
                        std::lower_bound(live.begin(), live.end(), edge);
                    if (it != live.end()) targets.push_back(*it);
                    if (it != live.begin()) targets.push_back(*(it - 1));
                }
            }
            std::vector<std::vector<std::int64_t>> cands;
            for (const std::size_t t : targets) {
                const auto& box = rows.boxes[t];
                cands.push_back(box); // equal to a row
                auto worse = box;     // dominated by row t (maybe more)
                worse[rng.below(m)] += 1 + static_cast<std::int64_t>(
                                               rng.below(3));
                cands.push_back(worse);
                // Dominated by several rows, or dominating several: the
                // coordinate-wise max / min of row t and two others.
                auto hi = box;
                auto lo = box;
                for (int k = 0; k < 2; ++k) {
                    const auto& other =
                        rows.boxes[live[rng.below(live.size())]];
                    for (std::size_t j = 0; j < m; ++j) {
                        hi[j] = std::max(hi[j], other[j]);
                        lo[j] = std::min(lo[j], other[j]);
                    }
                }
                cands.push_back(hi);
                lo[rng.below(m)] -= 1;
                cands.push_back(lo);
            }
            for (int k = 0; k < 8; ++k) { // nondominated, or not
                std::vector<std::int64_t> box(m);
                for (auto& c : box)
                    c = static_cast<std::int64_t>(rng.below(1000));
                cands.push_back(box);
            }
            // Dominates every row.
            cands.push_back(std::vector<std::int64_t>(m, -100000));

            std::vector<std::uint64_t> bits;
            for (const auto& cand : cands) {
                std::size_t expected = n;
                for (std::size_t i = 0; i < n && expected == n; ++i) {
                    const Dominance d = compare_boxes(rows.boxes[i], cand);
                    if (rows.live[i] && (d == Dominance::kDominates ||
                                         d == Dominance::kEqual))
                        expected = i;
                }
                const std::size_t got =
                    rows.tiles.cover(as_doubles(cand), 0.0, bits);
                ASSERT_EQ(got, expected) << "m=" << m << " n=" << n;
                if (expected < n) {
                    ++covered;
                    continue;
                }
                ++uncovered;
                ASSERT_EQ(bits.size(), (n + 63) / 64);
                for (std::size_t i = 0; i < bits.size() * 64; ++i) {
                    const bool evicts =
                        i < n && rows.live[i] &&
                        compare_boxes(cand, rows.boxes[i]) ==
                            Dominance::kDominates;
                    ASSERT_EQ(((bits[i / 64] >> (i % 64)) & 1u) != 0, evicts)
                        << "m=" << m << " n=" << n << " row " << i;
                }
            }
        }
    }
    EXPECT_GT(covered, 500u);
    EXPECT_GT(uncovered, 200u);
}

void check_compare_rows_and_tournament(Width width) {
    borg::util::Rng rng(77);
    for (const std::size_t m : {1u, 2u, 3u, 5u, 8u, 11u}) {
        for (const std::size_t n : {1u, 2u, 5u, 8u, 9u, 15u, 16u, 17u, 40u,
                                    63u, 127u, 128u, 129u}) {
            const Rows rows = random_rows(m, n, rng);
            const DominanceTiles tiles = mirror_of(rows, m, width);
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

void check_cleared_rows_never_take_part(Width width) {
    DominanceTiles tiles;
    use_width(tiles, width);
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
    tiles.resize(17); // and so do rows in new tiles
    EXPECT_FALSE(tiles.scan(best, 0.0, bits));
    EXPECT_EQ(bits[0], 0b101u);
}

TEST(DominanceTiles, ScanMatchesScalarReference) {
    check_scan_matches_scalar_reference(0);
}

TEST(DominanceTiles, CoverFindsFirstCoveringBoxAmongFreeRows) {
    check_cover_finds_first_covering_box(0);
}

TEST(DominanceTiles, CompareRowsAndTournamentMatchScalarReference) {
    check_compare_rows_and_tournament(0);
}

TEST(DominanceTiles, ClearedRowsNeverTakePart) {
    check_cleared_rows_never_take_part(0);
}

TEST(DominanceTiles, DispatchPicksWidestWidthTheCpuSupports) {
    std::vector<std::size_t> expected{2};
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) expected.push_back(4);
    if (__builtin_cpu_supports("avx512f")) expected.push_back(8);
#endif
    const auto widths = detail::kernel_widths();
    EXPECT_EQ(std::vector<std::size_t>(widths.begin(), widths.end()),
              expected);
    DominanceTiles tiles;
    EXPECT_EQ(detail::kernel_width(tiles), expected.back());
    EXPECT_THROW(detail::set_kernel_width(tiles, 3), std::invalid_argument);
    detail::set_kernel_width(tiles, 2);
    EXPECT_EQ(detail::kernel_width(tiles), 2u);
    const DominanceTiles copy = tiles; // a copy keeps the forced width
    EXPECT_EQ(detail::kernel_width(copy), 2u);
}

/// The same checks through each kernel instantiation; a width this CPU
/// (or a non-x86-64 build) lacks is skipped.
class DominanceTilesAtWidth : public ::testing::TestWithParam<Width> {
protected:
    void SetUp() override {
        const auto widths = detail::kernel_widths();
        if (std::find(widths.begin(), widths.end(), GetParam()) ==
            widths.end())
            GTEST_SKIP() << "no " << GetParam()
                         << "-double kernel here: the build is not x86-64 "
                            "or the CPU lacks "
                         << (GetParam() == 4 ? "AVX2" : "AVX-512F");
    }
};

TEST_P(DominanceTilesAtWidth, ScanMatchesScalarReference) {
    check_scan_matches_scalar_reference(GetParam());
}

TEST_P(DominanceTilesAtWidth, CoverFindsFirstCoveringBoxAmongFreeRows) {
    check_cover_finds_first_covering_box(GetParam());
}

TEST_P(DominanceTilesAtWidth, CompareRowsAndTournamentMatchScalarReference) {
    check_compare_rows_and_tournament(GetParam());
}

TEST_P(DominanceTilesAtWidth, ClearedRowsNeverTakePart) {
    check_cleared_rows_never_take_part(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, DominanceTilesAtWidth,
                         ::testing::Values(Width{2}, Width{4}, Width{8}),
                         [](const ::testing::TestParamInfo<Width>& info) {
                             return "Width" + std::to_string(info.param);
                         });

} // namespace
