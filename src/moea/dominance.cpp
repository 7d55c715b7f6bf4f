#include "moea/dominance.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace borg::moea {

namespace {

// GCC/Clang vector extensions compile to the target's own vector
// instructions, or to scalar code where it has none. Two doubles is the
// native width of the baseline x86-64 (SSE2) build; four and eight are
// compiled only inside the AVX2 and AVX-512F wrappers below.
using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));
using v8d = double __attribute__((vector_size(64)));
using v2u = std::uint64_t __attribute__((vector_size(16)));
using v4u = std::uint64_t __attribute__((vector_size(32)));
using v8u = std::uint64_t __attribute__((vector_size(64)));
using v2l = decltype(v2d{} < v2d{});

/// The unsigned 64-bit lanes matching a vector of doubles (a vector_size
/// attribute cannot depend on a template parameter).
template <class V> struct UnsignedLanes;
template <> struct UnsignedLanes<v2d> { using type = v2u; };
template <> struct UnsignedLanes<v4d> { using type = v4u; };
template <> struct UnsignedLanes<v8d> { using type = v8u; };

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kTileRows = DominanceTiles::kTileRows;
constexpr std::size_t kTilesPerWord = 64 / kTileRows; ///< of a bitmask
constexpr detail::TileLine kNaNLine = {
    {kNaN, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN}};

static_assert(sizeof(detail::TileLine) == kTileRows * sizeof(double));

// Every helper below that takes or returns a 32- or 64-byte vector is
// always_inline into its wrapper, so no call ever passes one: GCC's note
// that such calls would change the ABI without AVX does not apply.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

/// Loads a vector from a line; a line's vectors are naturally aligned.
template <class V>
[[gnu::always_inline]] inline V load(const double* p) {
    V v{};
    std::memcpy(&v, __builtin_assume_aligned(p, sizeof v), sizeof v);
    return v;
}

/// A vector whose every lane compares like \p x. The wider vectors are
/// written as a sum because GCC builds them from one double lane by lane
/// (or with two shuffles) inside a target wrapper, but adds a double to
/// +0.0 lanes with one broadcast; the sum turns -0.0 into +0.0, which
/// compares equal to it. The baseline pair is built directly: the add
/// measured slower there.
template <class V>
[[gnu::always_inline]] inline V splat(double x) {
    if constexpr (sizeof(V) == 16) return V{x, x};
    else return V{} + x;
}

template <class U>
[[gnu::always_inline]] inline std::uint64_t or_lanes(U v) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < sizeof v / sizeof word; ++k) word |= v[k];
    return word;
}

template <class L>
struct Verdict {
    L dominates;    ///< the candidate dominates the lane's row
    L dominated_by; ///< the lane's row dominates the candidate
    L covers;       ///< the lane's row dominates or ties the candidate
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
template <class V, class L>
[[gnu::always_inline]] inline Verdict<L> deb_rule(L better, L worse, V cv,
                                                  V rv) {
    const L cv_better = cv < rv;
    const L cv_worse = rv < cv;
    return {cv_better | (better & ~(cv_worse | worse)),
            cv_worse | (worse & ~(cv_better | better)),
            cv_worse | (~better & (cv == rv))};
}

struct WalkArgs {
    const detail::TileLine* tiles;
    std::size_t m;
    std::size_t rows;
    const double* candidate;
    double violation;
    std::uint64_t* dominates;
};

/// The kernel's one loop, over vectors V of 2, 4 or 8 doubles: one tile
/// (eight rows) per step, a line being 8 / width vectors. Row r's lane
/// lands on bit r % 64 through a per-lane weight that shifts along the
/// word. The scan form (kCover false) only needs to know whether some row
/// dominates the candidate and returns 1 if so, else 0; the cover form
/// (kCover true) needs the first covering row, so it keeps covering lanes
/// by bit too, checks them once per 64-row word and returns the lowest
/// covering row, or the row count.
template <class V, bool kCover>
[[gnu::always_inline]] inline std::size_t walk(const WalkArgs& a) {
    using L = decltype(V{} < V{});
    using U = typename UnsignedLanes<V>::type;
    constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
    constexpr std::size_t kParts = kTileRows / kWidth;
    const std::size_t m = a.m;
    const std::size_t tiles = (a.rows + kTileRows - 1) / kTileRows;
    const V cv = splat<V>(a.violation);
    U first_weight{};
    for (std::size_t k = 0; k < kWidth; ++k) first_weight[k] = 1u << k;
    U weight = first_weight;
    U bits{};
    U hits{};
    const detail::TileLine* tile = a.tiles;
    for (std::size_t t = 0; t < tiles; ++t, tile += m + 1) {
        L better[kParts] = {};
        L worse[kParts] = {};
        for (std::size_t j = 0; j < m; ++j) {
            const V cj = splat<V>(a.candidate[j]);
            for (std::size_t p = 0; p < kParts; ++p) {
                const V x = load<V>(tile[j].lane + p * kWidth);
                better[p] |= cj < x;
                worse[p] |= x < cj;
            }
        }
        for (std::size_t p = 0; p < kParts; ++p) {
            const auto v = deb_rule(better[p], worse[p], cv,
                                    load<V>(tile[m].lane + p * kWidth));
            const U lane_bits = weight << (p * kWidth);
            bits |= std::bit_cast<U>(v.dominates) & lane_bits;
            if constexpr (kCover)
                hits |= std::bit_cast<U>(v.covers) & lane_bits;
            else
                hits |= std::bit_cast<U>(v.dominated_by);
        }
        if (t % kTilesPerWord == kTilesPerWord - 1 || t + 1 == tiles) {
            if constexpr (kCover) {
                const std::uint64_t covering = or_lanes(hits);
                if (covering != 0)
                    return t / kTilesPerWord * 64 +
                           static_cast<std::size_t>(std::countr_zero(covering));
            }
            a.dominates[t / kTilesPerWord] = or_lanes(bits);
            bits = U{};
            weight = first_weight;
        } else {
            weight <<= kTileRows;
        }
    }
    if constexpr (kCover) return a.rows;
    else return or_lanes(hits) != 0;
}

// The thin per-width wrappers: each compiles walk() for its target.
template <bool kCover>
std::size_t walk_sse2(const WalkArgs& a) {
    return walk<v2d, kCover>(a);
}
#if defined(__x86_64__)
template <bool kCover>
[[gnu::target("avx2")]] std::size_t walk_avx2(const WalkArgs& a) {
    return walk<v4d, kCover>(a);
}
template <bool kCover>
[[gnu::target("avx512f")]] std::size_t walk_avx512(const WalkArgs& a) {
    return walk<v8d, kCover>(a);
}
#endif

/// Row i of a mirror: value j (j = M: the violation) is
/// lines[j].lane[lane].
struct Row {
    const detail::TileLine* lines;
    std::size_t lane;
    double operator[](std::size_t j) const { return lines[j].lane[lane]; }
};

/// Two challengers, one per lane, against one incumbent row under Deb's
/// rule; \p split receives the lanes where each side is better on some
/// objective.
Verdict<v2l> challenge(Row x, Row y, Row incumbent, std::size_t m,
                       v2l& split) {
    v2l better = {0, 0};
    v2l worse = {0, 0};
    for (std::size_t j = 0; j < m; ++j) {
        const v2d cj = {x[j], y[j]};
        const v2d bj = {incumbent[j], incumbent[j]};
        better |= cj < bj;
        worse |= bj < cj;
    }
    split = better & worse;
    return deb_rule(better, worse, v2d{x[m], y[m]},
                    v2d{incumbent[m], incumbent[m]});
}

} // namespace

namespace detail {

struct TileKernel {
    std::size_t width; ///< doubles per vector
    std::size_t (*scan)(const WalkArgs&);
    std::size_t (*cover)(const WalkArgs&);
};

namespace {

constexpr TileKernel kKernels[] = {
    {2, walk_sse2<false>, walk_sse2<true>},
#if defined(__x86_64__)
    {4, walk_avx2<false>, walk_avx2<true>},
    {8, walk_avx512<false>, walk_avx512<true>},
#endif
};

bool cpu_runs(std::size_t width) {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (width == 4) return __builtin_cpu_supports("avx2");
    if (width == 8) return __builtin_cpu_supports("avx512f");
#endif
    return width == 2;
}

const TileKernel* kernel_at(std::size_t width) {
    for (const TileKernel& kernel : kKernels)
        if (kernel.width == width && cpu_runs(width)) return &kernel;
    return nullptr;
}

/// Picked once, the first time a mirror is built.
const TileKernel* widest_kernel() {
    static const TileKernel* const widest =
        kernel_at(kernel_widths().back());
    return widest;
}

} // namespace

std::span<const std::size_t> kernel_widths() {
    static const std::vector<std::size_t> widths = [] {
        std::vector<std::size_t> out;
        for (const TileKernel& kernel : kKernels)
            if (cpu_runs(kernel.width)) out.push_back(kernel.width);
        return out;
    }();
    return widths;
}

std::size_t kernel_width(const DominanceTiles& tiles) {
    return tiles.kernel_->width;
}

void set_kernel_width(DominanceTiles& tiles, std::size_t width) {
    const TileKernel* kernel = kernel_at(width);
    if (kernel == nullptr)
        throw std::invalid_argument("dominance kernel: width " +
                                    std::to_string(width) +
                                    " is not available on this CPU");
    tiles.kernel_ = kernel;
}

} // namespace detail

std::vector<double> epsilon_box(std::span<const double> objectives,
                                std::span<const double> epsilons) {
    std::vector<double> box(objectives.size());
    epsilon_box_into(objectives, epsilons, box);
    return box;
}

void epsilon_box_into(std::span<const double> objectives,
                      std::span<const double> epsilons,
                      std::span<double> out) {
    assert(objectives.size() == epsilons.size());
    assert(out.size() == objectives.size());
    for (std::size_t i = 0; i < objectives.size(); ++i)
        out[i] = std::floor(objectives[i] / epsilons[i]);
}

Dominance compare_boxes(std::span<const double> a, std::span<const double> b) {
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

DominanceTiles::DominanceTiles() : kernel_(detail::widest_kernel()) {}

void DominanceTiles::reset(std::size_t num_objectives) {
    m_ = num_objectives;
    rows_ = 0;
    tiles_.clear();
}

void DominanceTiles::resize(std::size_t rows) {
    assert(rows >= rows_);
    // Whole tiles, so the kernel never needs a remainder step.
    tiles_.resize((rows + kTileRows - 1) / kTileRows * (m_ + 1), kNaNLine);
    rows_ = rows;
}

void DominanceTiles::set_row(std::size_t i, std::span<const double> values,
                             double violation) {
    assert(i < rows_ && values.size() == m_);
    detail::TileLine* lines = tiles_.data() + i / kTileRows * (m_ + 1);
    const std::size_t lane = i % kTileRows;
    for (std::size_t j = 0; j < m_; ++j) lines[j].lane[lane] = values[j];
    lines[m_].lane[lane] = violation;
}

void DominanceTiles::clear_row(std::size_t i) {
    detail::TileLine* lines = tiles_.data() + i / kTileRows * (m_ + 1);
    for (std::size_t j = 0; j <= m_; ++j) lines[j].lane[i % kTileRows] = kNaN;
}

template <bool kCover>
std::size_t DominanceTiles::walk(std::span<const double> candidate,
                                 double candidate_violation,
                                 std::vector<std::uint64_t>& dominates) const {
    assert(candidate.size() == m_);
    dominates.resize((rows_ + 63) / 64);
    const WalkArgs args{tiles_.data(),     m_,
                        rows_,             candidate.data(),
                        candidate_violation, dominates.data()};
    return kCover ? kernel_->cover(args) : kernel_->scan(args);
}

bool DominanceTiles::scan(std::span<const double> candidate,
                          double candidate_violation,
                          std::vector<std::uint64_t>& dominates) const {
    return walk<false>(candidate, candidate_violation, dominates) != 0;
}

std::size_t DominanceTiles::cover(std::span<const double> candidate,
                                  double candidate_violation,
                                  std::vector<std::uint64_t>& dominates) const {
    return walk<true>(candidate, candidate_violation, dominates);
}

Dominance DominanceTiles::compare_rows(std::size_t a, std::size_t b) const {
    // Row a in both lanes against row b; lane 0 is the verdict.
    const Row row_a{tile_of(a), a % kTileRows};
    v2l split{};
    const Verdict<v2l> v =
        challenge(row_a, row_a, Row{tile_of(b), b % kTileRows}, m_, split);
    if (v.dominates[0] != 0) return Dominance::kDominates;
    if (v.dominated_by[0] != 0) return Dominance::kDominatedBy;
    if (split[0] != 0) return Dominance::kNondominated;
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
    const auto row = [this](std::size_t i) {
        return Row{tile_of(i), i % kTileRows};
    };
    std::size_t best = contestants[0];
    std::size_t k = 1;
    v2l split{};
    while (k < contestants.size()) {
        const std::size_t first = contestants[k];
        const std::size_t second =
            contestants[k + 1 < contestants.size() ? k + 1 : k];
        const Verdict<v2l> v =
            challenge(row(first), row(second), row(best), m_, split);
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
                              std::span<const double> box,
                              std::span<const double> epsilons) {
    assert(objectives.size() == box.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < objectives.size(); ++i) {
        const double corner = box[i] * epsilons[i];
        const double d = objectives[i] - corner;
        sum += d * d;
    }
    return sum;
}

} // namespace borg::moea
