#include "moea/dominance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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
    const std::vector<double> a{1, 2};
    const std::vector<double> b{2, 3};
    const std::vector<double> c{0, 5};
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
// The dominance kernel — DominanceTiles' scan and cover, DominanceRows'
// compare_rows and tournament — against scalar compare_constrained
// references kept here. Values come from a small pool so ties, duplicate
// rows, ±0.0, infinities and NaN all occur; violations are
// total_violation()-style sums (0, -0.0, equal nonzero values, NaN).
// Each check runs once on the dispatched kernel (the plain DominanceTiles
// tests) and once per vector width the CPU runs (DominanceTilesAtWidth,
// through detail::set_kernel_width).
// ---------------------------------------------------------------------------

/// 0 keeps the dispatched kernel; otherwise the width to force.
using Width = std::size_t;

template <class Mirror>
void use_width(Mirror& mirror, Width width) {
    if (width != 0) detail::set_kernel_width(mirror, width);
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

template <class Mirror = DominanceTiles>
Mirror mirror_of(const Rows& rows, std::size_t m, Width width) {
    Mirror mirror;
    use_width(mirror, width);
    mirror.reset(m);
    mirror.resize(rows.values.size());
    for (std::size_t i = 0; i < rows.values.size(); ++i)
        mirror.set_row(i, rows.values[i], rows.violations[i]);
    return mirror;
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
    std::vector<std::vector<double>> boxes;
    std::vector<bool> live;
    DominanceTiles tiles;
};

BoxRows box_rows(std::size_t m, std::size_t n, borg::util::Rng& rng,
                 Width width) {
    BoxRows rows;
    use_width(rows.tiles, width);
    rows.tiles.reset(m);
    rows.tiles.resize(n);
    const std::vector<double> covers_all(m, -1e6);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> box(m);
        bool accepted = false;
        const bool free_row = rng.flip(0.2);
        for (int attempt = 0; !free_row && attempt < 20; ++attempt) {
            double rest = 1000;
            for (std::size_t j = 0; j + 1 < m; ++j) {
                box[j] = static_cast<double>(rng.below(400));
                rest -= box[j];
            }
            box[m - 1] = rest + static_cast<double>(rng.below(3));
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
            rows.tiles.set_row(i, box, 0.0);
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
            std::vector<std::vector<double>> cands;
            for (const std::size_t t : targets) {
                const auto& box = rows.boxes[t];
                cands.push_back(box); // equal to a row
                auto worse = box;     // dominated by row t (maybe more)
                worse[rng.below(m)] += 1 + static_cast<double>(rng.below(3));
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
                std::vector<double> box(m);
                for (auto& c : box) c = static_cast<double>(rng.below(1000));
                cands.push_back(box);
            }
            // Dominates every row.
            cands.push_back(std::vector<double>(m, -100000));

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
                    rows.tiles.cover(cand, 0.0, bits);
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

/// DominanceRows: M + 1 = 5 ends in a masked tail at every width, M + 1
/// = 8 is exactly one 8-double load, and M = 8 and 11 span several loads
/// at every width.
void check_compare_rows_and_tournament(Width width) {
    borg::util::Rng rng(77);
    for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 11u}) {
        for (const std::size_t n : {1u, 2u, 5u, 8u, 9u, 15u, 16u, 17u, 40u,
                                    63u, 127u, 128u, 129u}) {
            const Rows rows = random_rows(m, n, rng);
            const auto mirror = mirror_of<DominanceRows>(rows, m, width);
            for (std::size_t a = 0; a < n; ++a)
                for (std::size_t b = 0; b < n; ++b)
                    ASSERT_EQ(mirror.compare_rows(a, b),
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
                ASSERT_EQ(mirror.tournament(contestants), best)
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

/// Rows written before and after a resize keep their values, grown rows
/// are all NaN (they never dominate and are never dominated), and the
/// buffer holds kPad NaN doubles past the last row, so the widest load of
/// the last row stays in bounds (the ASan tier checks the reads).
void check_rows_survive_growth(Width width) {
    borg::util::Rng rng(5150);
    for (const std::size_t m : {1u, 4u, 5u, 7u, 11u}) {
        const Rows rows = random_rows(m, 40, rng);
        DominanceRows mirror;
        use_width(mirror, width);
        mirror.reset(m);
        std::size_t written = 0;
        for (const std::size_t size : {1u, 2u, 3u, 9u, 17u, 40u}) {
            mirror.resize(size);
            ASSERT_EQ(mirror.size(), size);
            for (std::size_t i = written; i < size; ++i) {
                for (const double x : mirror.row(i)) ASSERT_TRUE(std::isnan(x));
                // NaN compares neither better nor worse.
                ASSERT_EQ(mirror.compare_rows(i, 0), Dominance::kEqual);
                const std::uint64_t pair[] = {0, i};
                ASSERT_EQ(mirror.tournament(pair), 0u);
                const std::uint64_t reversed[] = {i, 0};
                ASSERT_EQ(mirror.tournament(reversed), i);
            }
            for (std::size_t i = written; i < size; ++i)
                mirror.set_row(i, rows.values[i], rows.violations[i]);
            written = size;
            for (std::size_t i = 0; i < size; ++i) {
                const auto row = mirror.row(i);
                ASSERT_EQ(row.size(), m + 1);
                for (std::size_t j = 0; j < m; ++j)
                    ASSERT_EQ(std::memcmp(&row[j], &rows.values[i][j],
                                          sizeof(double)),
                              0)
                        << "m=" << m << " row " << i;
                ASSERT_EQ(std::memcmp(&row[m], &rows.violations[i],
                                      sizeof(double)),
                          0);
            }
            // The pad: kPad NaN doubles right after the last row.
            const double* pad = mirror.row(size - 1).data() + m + 1;
            for (std::size_t k = 0; k < DominanceRows::kPad; ++k)
                ASSERT_TRUE(std::isnan(pad[k])) << "m=" << m << " pad " << k;
            // The last row against every other, both ways round.
            for (std::size_t i = 0; i < size; ++i) {
                ASSERT_EQ(mirror.compare_rows(size - 1, i),
                          compare_constrained(rows.values[size - 1],
                                              rows.violations[size - 1],
                                              rows.values[i],
                                              rows.violations[i]));
                ASSERT_EQ(mirror.compare_rows(i, size - 1),
                          compare_constrained(rows.values[i],
                                              rows.violations[i],
                                              rows.values[size - 1],
                                              rows.violations[size - 1]));
            }
        }
    }
}

/// The reach form's rule, scalar: may the box with corner \p v (M values,
/// then the violation) hold a row the candidate dominates (kUpper) or
/// one dominating it (kLower)? Never if the box is empty (NaN violation).
bool reference_reach(DominanceTiles::Corner corner,
                     std::span<const double> v, double violation,
                     std::span<const double> cand, double cv) {
    if (std::isnan(violation)) return false;
    bool smaller = false; // the corner (kUpper) or candidate (kLower) is
    for (std::size_t j = 0; j < cand.size(); ++j)
        smaller |= corner == DominanceTiles::Corner::kUpper ? v[j] < cand[j]
                                                           : cand[j] < v[j];
    if (corner == DominanceTiles::Corner::kUpper)
        return cv < violation || !(violation < cv || smaller);
    return violation < cv || !(cv < violation || smaller);
}

/// Rows in 8-row tiles, some dead (all NaN, like a free slot) and some
/// tiles wholly empty, with each tile's box as the population builds it:
/// per-value maxima (NaN as +inf) for the upper corner and minima (NaN as
/// -inf) for the lower one; an empty tile's corners are all NaN.
struct BoxedRows {
    Rows rows;
    std::vector<bool> live;
    DominanceTiles tiles;
    DominanceTiles upper;
    DominanceTiles lower;
};

BoxedRows boxed_rows(std::size_t m, std::size_t n, borg::util::Rng& rng,
                     Width width) {
    BoxedRows b;
    b.rows = random_rows(m, n, rng);
    if (rng.flip(0.5)) { // a spatial order, so that boxes prune
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t x,
                                                  std::size_t y) {
            const double a = b.rows.values[x][0];
            const double c = b.rows.values[y][0];
            return !std::isnan(a) && (std::isnan(c) || a < c);
        });
        Rows sorted;
        for (const std::size_t i : order) {
            sorted.values.push_back(b.rows.values[i]);
            sorted.violations.push_back(b.rows.violations[i]);
        }
        b.rows = sorted;
    }
    const std::size_t tiles = (n + 7) / 8;
    for (std::size_t i = 0; i < n; ++i)
        b.live.push_back(i / 8 % 5 != 3 && !rng.flip(0.15));
    b.tiles = mirror_of(b.rows, m, width);
    for (std::size_t i = 0; i < n; ++i)
        if (!b.live[i]) b.tiles.clear_row(i);
    for (DominanceTiles* corners : {&b.upper, &b.lower}) {
        use_width(*corners, width);
        corners->reset(m);
        corners->resize(tiles);
    }
    for (std::size_t t = 0; t < tiles; ++t) {
        std::vector<double> hi(m + 1, -kInf);
        std::vector<double> lo(m + 1, kInf);
        bool empty = true;
        for (std::size_t i = 8 * t; i < std::min(n, 8 * t + 8); ++i) {
            if (!b.live[i]) continue;
            empty = false;
            for (std::size_t j = 0; j <= m; ++j) {
                const double x =
                    j < m ? b.rows.values[i][j] : b.rows.violations[i];
                hi[j] = std::max(hi[j], std::isnan(x) ? kInf : x);
                lo[j] = std::min(lo[j], std::isnan(x) ? -kInf : x);
            }
        }
        if (empty) continue; // corners stay NaN
        b.upper.set_row(t, std::span(hi).first(m), hi[m]);
        b.lower.set_row(t, std::span(lo).first(m), lo[m]);
    }
    return b;
}

/// Bit \p i of a bitmask.
bool bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
    return ((bits[i / 64] >> (i % 64)) & 1u) != 0;
}

void check_reach_and_masked_scan(Width width) {
    using Corner = DominanceTiles::Corner;
    borg::util::Rng rng(8128);
    std::size_t pruned = 0;
    std::size_t reached = 0;
    for (const std::size_t m : {1u, 2u, 3u, 5u, 8u}) {
        for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 130u,
                                    257u, 520u, 1030u}) {
            const BoxedRows b = boxed_rows(m, n, rng, width);
            const std::size_t tiles = (n + 7) / 8;
            std::vector<std::uint64_t> bits;
            std::vector<std::uint64_t> masked;
            std::vector<std::uint64_t> up;
            std::vector<std::uint64_t> down;
            std::vector<std::uint64_t> some;
            for (int trial = 0; trial < 30; ++trial) {
                std::vector<double> cand(m);
                for (double& x : cand) x = draw_value(rng);
                double cv = draw_violation(rng);
                if (n > 0 && trial % 3 == 0) { // a copy of a row
                    const std::size_t k = rng.below(n);
                    cand = b.rows.values[k];
                    cv = b.rows.violations[k];
                }
                b.tiles.scan(cand, cv, bits);
                b.upper.reach(Corner::kUpper, cand, cv, up);
                b.lower.reach(Corner::kLower, cand, cv, down);
                ASSERT_EQ(up.size(), (tiles + 63) / 64);
                ASSERT_EQ(down.size(), (tiles + 63) / 64);
                for (std::size_t t = 0; t < up.size() * 64; ++t) {
                    if (t >= tiles) { // past size(): never set
                        ASSERT_FALSE(bit(up, t)) << "m=" << m << " n=" << n;
                        ASSERT_FALSE(bit(down, t)) << "m=" << m << " n=" << n;
                        continue;
                    }
                    bool empty = true;
                    bool dominated = false;
                    bool dominating = false;
                    for (std::size_t i = 8 * t; i < std::min(n, 8 * t + 8);
                         ++i) {
                        if (!b.live[i]) continue;
                        empty = false;
                        const Dominance d = compare_constrained(
                            cand, cv, b.rows.values[i], b.rows.violations[i]);
                        dominated |= d == Dominance::kDominates;
                        dominating |= d == Dominance::kDominatedBy;
                    }
                    const auto corner = [&](const DominanceTiles& c) {
                        std::vector<double> v(m);
                        for (std::size_t j = 0; j < m; ++j) v[j] = c.value(t, j);
                        return v;
                    };
                    // The kernel computes exactly the rule ...
                    ASSERT_EQ(bit(up, t),
                              reference_reach(Corner::kUpper,
                                              corner(b.upper),
                                              b.upper.value(t, m), cand, cv))
                        << "m=" << m << " n=" << n << " tile " << t;
                    ASSERT_EQ(bit(down, t),
                              reference_reach(Corner::kLower,
                                              corner(b.lower),
                                              b.lower.value(t, m), cand, cv))
                        << "m=" << m << " n=" << n << " tile " << t;
                    // ... which reaches every tile that matters, and no
                    // empty one.
                    if (dominated) {
                        ASSERT_TRUE(bit(up, t)) << "tile " << t;
                    }
                    if (dominating) {
                        ASSERT_TRUE(bit(down, t)) << "tile " << t;
                    }
                    if (empty) {
                        ASSERT_FALSE(bit(up, t)) << "empty tile " << t;
                        ASSERT_FALSE(bit(down, t)) << "empty tile " << t;
                    } else {
                        (bit(up, t) ? reached : pruned) += 1;
                    }
                }
                // The masked scan over the upper reach finds every
                // dominated row; over any mask it gives scan()'s bits on
                // the tiles it visits and 0 elsewhere.
                std::vector<std::uint64_t> random_mask(up.size());
                for (auto& word : random_mask) word = rng(); // bits past
                                                             // tiles() too
                for (const auto* mask : {&up, &down, &random_mask}) {
                    const bool flag =
                        b.tiles.scan_tiles(*mask, cand, cv, masked);
                    ASSERT_EQ(masked.size(), bits.size());
                    bool expected_flag = false;
                    for (std::size_t i = 0; i < masked.size() * 64; ++i) {
                        const bool visited = i < n && bit(*mask, i / 8);
                        ASSERT_EQ(bit(masked, i), visited && bit(bits, i))
                            << "m=" << m << " n=" << n << " row " << i;
                        if (visited && b.live[i])
                            expected_flag |=
                                compare_constrained(cand, cv,
                                                    b.rows.values[i],
                                                    b.rows.violations[i]) ==
                                Dominance::kDominatedBy;
                    }
                    ASSERT_EQ(flag, expected_flag) << "m=" << m << " n=" << n;
                }
                ASSERT_TRUE(b.tiles.scan_tiles(down, cand, cv, masked) ==
                            b.tiles.scan(cand, cv, bits))
                    << "a dominating row outside the lower reach";
                b.tiles.scan_tiles(up, cand, cv, masked);
                ASSERT_EQ(masked, bits) << "a dominated row outside the "
                                           "upper reach";
                // reach_tiles: reach() on the tiles of a mask, 0 elsewhere
                // (a mask over corner rows: 8 boxes per tile).
                std::vector<std::uint64_t> groups((tiles + 511) / 512);
                for (auto& word : groups) word = rng();
                b.upper.reach_tiles(Corner::kUpper, groups, cand, cv, some);
                ASSERT_EQ(some.size(), up.size());
                for (std::size_t t = 0; t < some.size() * 64; ++t)
                    ASSERT_EQ(bit(some, t),
                              t < tiles && bit(groups, t / 8) && bit(up, t))
                        << "m=" << m << " n=" << n << " box " << t;
                b.lower.reach_tiles(Corner::kLower, groups, cand, cv, some);
                for (std::size_t t = 0; t < some.size() * 64; ++t)
                    ASSERT_EQ(bit(some, t),
                              t < tiles && bit(groups, t / 8) && bit(down, t))
                        << "m=" << m << " n=" << n << " box " << t;
            }
        }
    }
    // The boxes prune: the check above is not met by reaching everything.
    EXPECT_GT(pruned, 1000u);
    EXPECT_GT(reached, 1000u);
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

TEST(DominanceTiles, ReachSupersetAndMaskedScanMatchScalarReference) {
    check_reach_and_masked_scan(0);
}

TEST(DominanceTiles, ClearedRowsNeverTakePart) {
    check_cleared_rows_never_take_part(0);
}

TEST(DominanceRows, RowsSurviveGrowthAndTheLastLoadIsPadded) {
    check_rows_survive_growth(0);
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
    DominanceRows rows; // the row mirror shares the dispatch
    EXPECT_EQ(detail::kernel_width(rows), expected.back());
    EXPECT_THROW(detail::set_kernel_width(rows, 3), std::invalid_argument);
    detail::set_kernel_width(rows, 2);
    const DominanceRows rows_copy = rows;
    EXPECT_EQ(detail::kernel_width(rows_copy), 2u);
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

TEST_P(DominanceTilesAtWidth,
       ReachSupersetAndMaskedScanMatchScalarReference) {
    check_reach_and_masked_scan(GetParam());
}

TEST_P(DominanceTilesAtWidth, ClearedRowsNeverTakePart) {
    check_cleared_rows_never_take_part(GetParam());
}

TEST_P(DominanceTilesAtWidth, RowsSurviveGrowthAndTheLastLoadIsPadded) {
    check_rows_survive_growth(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, DominanceTilesAtWidth,
                         ::testing::Values(Width{2}, Width{4}, Width{8}),
                         [](const ::testing::TestParamInfo<Width>& info) {
                             return "Width" + std::to_string(info.param);
                         });

} // namespace
