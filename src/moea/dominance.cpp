#include "moea/dominance.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace borg::moea {

namespace {

// Two doubles: the native vector width of the baseline x86-64 (SSE2)
// build. GCC/Clang vector extensions compile to the target's own vector
// instructions, or to scalar code where it has none.
using v2d = double __attribute__((vector_size(16)));
using v2l = decltype(v2d{} < v2d{});
using v2u = std::uint64_t __attribute__((vector_size(16)));

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Pairs are 16-byte aligned: the tiles' std::vector storage comes from
// operator new, and a tile is a whole number of pairs.
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16);

/// Loads one pair of a tile.
v2d load2(const double* p) {
    v2d v{};
    std::memcpy(&v, __builtin_assume_aligned(p, 16), sizeof v);
    return v;
}

struct Verdict {
    v2l dominates;    ///< the candidate dominates the lane's row
    v2l dominated_by; ///< the lane's row dominates the candidate
    v2l covers;       ///< the lane's row dominates or ties the candidate
};

/// Deb's rule per lane, without branches, from the Pareto flags
/// (\p better: the candidate is smaller on some objective; \p worse: the
/// row is) and the two violations. A strict violation verdict decides
/// when either side is infeasible; the flags decide otherwise. For
/// violations that are total_violation() sums (non-negative, or NaN)
/// this is exactly compare_constrained, NaN and ±0.0 included: both use
/// only the ordered comparisons <, which are false for NaN. The row
/// covers the candidate when its violation is smaller, or equal with the
/// candidate better on no objective; a NaN violation never covers.
inline Verdict deb_rule(v2l better, v2l worse, v2d cv, v2d rv) {
    const v2l cv_better = cv < rv;
    const v2l cv_worse = rv < cv;
    return {cv_better | (better & ~(cv_worse | worse)),
            cv_worse | (worse & ~(cv_better | better)),
            cv_worse | (~better & (cv == rv))};
}

} // namespace

std::vector<std::int64_t> epsilon_box(std::span<const double> objectives,
                                      std::span<const double> epsilons) {
    std::vector<std::int64_t> box(objectives.size());
    epsilon_box_into(objectives, epsilons, box);
    return box;
}

void epsilon_box_into(std::span<const double> objectives,
                      std::span<const double> epsilons,
                      std::span<std::int64_t> out) {
    assert(objectives.size() == epsilons.size());
    assert(out.size() == objectives.size());
    for (std::size_t i = 0; i < objectives.size(); ++i)
        out[i] = static_cast<std::int64_t>(
            std::floor(objectives[i] / epsilons[i]));
}

Dominance compare_boxes(std::span<const std::int64_t> a,
                        std::span<const std::int64_t> b) {
    assert(a.size() == b.size());
    bool a_better = false;
    bool b_better = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] < b[i]) a_better = true;
        else if (b[i] < a[i]) b_better = true;
        if (a_better && b_better) return Dominance::kNondominated;
    }
    if (a_better) return Dominance::kDominates;
    if (b_better) return Dominance::kDominatedBy;
    return Dominance::kEqual;
}

void DominanceTiles::reset(std::size_t num_objectives) {
    m_ = num_objectives;
    rows_ = 0;
    tiles_.clear();
}

void DominanceTiles::resize(std::size_t rows) {
    assert(rows >= rows_);
    // Whole 4-row blocks, so the scan never needs a remainder step.
    tiles_.resize((rows + 3) / 4 * 2 * tile_stride(), kNaN);
    rows_ = rows;
}

void DominanceTiles::set_row(std::size_t i, std::span<const double> values,
                             double violation) {
    assert(i < rows_ && values.size() == m_);
    double* lane = tiles_.data() + tile_offset(i) + (i & 1);
    for (std::size_t j = 0; j < m_; ++j) lane[2 * j] = values[j];
    lane[2 * m_] = violation;
}

void DominanceTiles::clear_row(std::size_t i) {
    double* lane = tiles_.data() + tile_offset(i) + (i & 1);
    for (std::size_t j = 0; j <= m_; ++j) lane[2 * j] = kNaN;
}

template <bool kCover>
auto DominanceTiles::walk(std::span<const double> candidate,
                          double candidate_violation,
                          std::vector<std::uint64_t>& dominates) const {
    assert(candidate.size() == m_);
    const std::size_t m = m_;
    const std::size_t stride = tile_stride();
    const std::size_t blocks = (rows_ + 3) / 4;
    const double* c = candidate.data();
    const v2d cv = {candidate_violation, candidate_violation};
    dominates.resize((rows_ + 63) / 64);
    std::uint64_t* out = dominates.data();

    // Two tiles (four rows) per step. Row r's lanes land on bit r % 64
    // through a per-lane weight that shifts along the word. scan() only
    // needs to know whether some row dominates the candidate; cover()
    // needs the first covering row, so it keeps covering lanes by bit too
    // and checks them once per 64-row word.
    const double* tile = tiles_.data();
    const v2u first_weight = {1, 2};
    v2u weight = first_weight;
    v2u bits = {0, 0};
    v2u hits = {0, 0};
    for (std::size_t k = 0; k < blocks; ++k, tile += 2 * stride) {
        v2l better_a = {0, 0};
        v2l worse_a = {0, 0};
        v2l better_b = {0, 0};
        v2l worse_b = {0, 0};
        for (std::size_t j = 0; j < m; ++j) {
            const v2d cj = {c[j], c[j]};
            const v2d a = load2(tile + 2 * j);
            const v2d b = load2(tile + stride + 2 * j);
            better_a |= cj < a;
            worse_a |= a < cj;
            better_b |= cj < b;
            worse_b |= b < cj;
        }
        const Verdict va =
            deb_rule(better_a, worse_a, cv, load2(tile + 2 * m));
        const Verdict vb =
            deb_rule(better_b, worse_b, cv, load2(tile + stride + 2 * m));
        bits |= (std::bit_cast<v2u>(va.dominates) & weight) |
                (std::bit_cast<v2u>(vb.dominates) & (weight << 2));
        if constexpr (kCover)
            hits |= (std::bit_cast<v2u>(va.covers) & weight) |
                    (std::bit_cast<v2u>(vb.covers) & (weight << 2));
        else
            hits |= std::bit_cast<v2u>(va.dominated_by | vb.dominated_by);
        weight <<= 4;
        if (k % 16 == 15 || k + 1 == blocks) {
            if constexpr (kCover) {
                const std::uint64_t covering = hits[0] | hits[1];
                if (covering != 0)
                    return k / 16 * 64 +
                           static_cast<std::size_t>(std::countr_zero(covering));
            }
            out[k / 16] = bits[0] | bits[1];
            bits = v2u{0, 0};
            weight = first_weight;
        }
    }
    if constexpr (kCover) return rows_;
    else return (hits[0] | hits[1]) != 0;
}

bool DominanceTiles::scan(std::span<const double> candidate,
                          double candidate_violation,
                          std::vector<std::uint64_t>& dominates) const {
    return walk<false>(candidate, candidate_violation, dominates);
}

std::size_t DominanceTiles::cover(std::span<const double> candidate,
                                  double candidate_violation,
                                  std::vector<std::uint64_t>& dominates) const {
    return walk<true>(candidate, candidate_violation, dominates);
}

Dominance DominanceTiles::compare_rows(std::size_t a, std::size_t b) const {
    // Row a against both rows of row b's tile; lane b & 1 is the verdict.
    const std::size_t m = m_;
    const double* row_a = tiles_.data() + tile_offset(a) + (a & 1);
    const double* tile_b = tiles_.data() + tile_offset(b);
    v2l better = {0, 0};
    v2l worse = {0, 0};
    for (std::size_t j = 0; j < m; ++j) {
        const v2d aj = {row_a[2 * j], row_a[2 * j]};
        const v2d bj = load2(tile_b + 2 * j);
        better |= aj < bj;
        worse |= bj < aj;
    }
    const v2d av = {row_a[2 * m], row_a[2 * m]};
    const Verdict v = deb_rule(better, worse, av, load2(tile_b + 2 * m));
    const std::size_t lane = b & 1;
    if (v.dominates[lane] != 0) return Dominance::kDominates;
    if (v.dominated_by[lane] != 0) return Dominance::kDominatedBy;
    if ((better & worse)[lane] != 0) return Dominance::kNondominated;
    return Dominance::kEqual;
}

std::size_t DominanceTiles::tournament(
    std::span<const std::uint64_t> contestants) const {
    // Two challengers per step, one per lane, against the incumbent: a
    // challenger replaces the incumbent only when it dominates it, which
    // is rare, so the second lane's verdict almost always stands. When the
    // first lane wins, the second challenger is compared again against
    // the new incumbent — the same sequence of decisions as one
    // challenger at a time. A lone last challenger fills both lanes.
    const std::size_t m = m_;
    const std::size_t stride = tile_stride();
    const double* tiles = tiles_.data();
    const auto lane_of = [&](std::size_t i) {
        return tiles + (i / 2) * stride + (i & 1);
    };
    std::size_t best = contestants[0];
    std::size_t k = 1;
    while (k < contestants.size()) {
        const std::size_t first = contestants[k];
        const std::size_t second =
            contestants[k + 1 < contestants.size() ? k + 1 : k];
        const double* x = lane_of(first);
        const double* y = lane_of(second);
        const double* incumbent = lane_of(best);
        v2l better = {0, 0};
        v2l worse = {0, 0};
        for (std::size_t j = 0; j < m; ++j) {
            const v2d cj = {x[2 * j], y[2 * j]};
            const v2d bj = {incumbent[2 * j], incumbent[2 * j]};
            better |= cj < bj;
            worse |= bj < cj;
        }
        const v2d cv = {x[2 * m], y[2 * m]};
        const v2d bv = {incumbent[2 * m], incumbent[2 * m]};
        const Verdict v = deb_rule(better, worse, cv, bv);
        if (v.dominates[0] != 0) {
            best = first;
            k += 1;
        } else {
            if (v.dominates[1] != 0) best = second;
            k += 2;
        }
    }
    return best;
}

double distance_to_box_corner(std::span<const double> objectives,
                              std::span<const std::int64_t> box,
                              std::span<const double> epsilons) {
    assert(objectives.size() == box.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < objectives.size(); ++i) {
        const double corner = static_cast<double>(box[i]) * epsilons[i];
        const double d = objectives[i] - corner;
        sum += d * d;
    }
    return sum;
}

} // namespace borg::moea
