#include "moea/dominance.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Loads a vector from anywhere (a DominanceRows row).
template <class V>
[[gnu::always_inline]] inline V load_unaligned(const double* p) {
    V v{};
    std::memcpy(&v, p, sizeof v);
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

} // namespace

namespace detail {

enum class WalkForm : std::uint8_t {
    kScan,       ///< DominanceTiles::scan, scan_tiles
    kCover,      ///< DominanceTiles::cover
    kReachUpper, ///< DominanceTiles::reach, reach_tiles: Corner::kUpper
    kReachLower, ///< DominanceTiles::reach, reach_tiles: Corner::kLower
};

} // namespace detail

namespace {

using Form = detail::WalkForm;

struct WalkArgs {
    const detail::TileLine* tiles;
    std::size_t m;
    std::size_t rows;
    const double* candidate;
    double violation;
    std::uint64_t* dominates; ///< one bit per row (reach: per box)
    const std::uint64_t* mask; ///< masked: the tiles to visit, else null
};

constexpr std::size_t kForms = 4;

/// The loop body: one tile's eight rows against the candidate, as lane
/// bits at \p weight. \p bits gains the rows the candidate dominates (the
/// reach forms: the boxes reached); \p hits the rows that dominate it
/// (kCover: that dominate or tie it, at \p weight). The reach forms need
/// only one Pareto flag each.
template <class V, Form kForm, class U>
[[gnu::always_inline]] inline void visit(const WalkArgs& a,
                                         const detail::TileLine* tile, V cv,
                                         U weight, U& bits, U& hits) {
    using L = decltype(V{} < V{});
    constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
    constexpr std::size_t kParts = kTileRows / kWidth;
    constexpr bool kBetter = kForm != Form::kReachUpper;
    constexpr bool kWorse = kForm != Form::kReachLower;
    L better[kParts] = {};
    L worse[kParts] = {};
    for (std::size_t j = 0; j < a.m; ++j) {
        const V cj = splat<V>(a.candidate[j]);
        for (std::size_t p = 0; p < kParts; ++p) {
            const V x = load<V>(tile[j].lane + p * kWidth);
            if constexpr (kBetter) better[p] |= cj < x;
            if constexpr (kWorse) worse[p] |= x < cj;
        }
    }
    for (std::size_t p = 0; p < kParts; ++p) {
        const V v = load<V>(tile[a.m].lane + p * kWidth);
        const U lane_bits = weight << (p * kWidth);
        if constexpr (kForm == Form::kReachUpper) {
            const L reached = ((cv < v) | ~((v < cv) | worse[p])) & (v == v);
            bits |= std::bit_cast<U>(reached) & lane_bits;
        } else if constexpr (kForm == Form::kReachLower) {
            const L reached = ((v < cv) | ~((cv < v) | better[p])) & (v == v);
            bits |= std::bit_cast<U>(reached) & lane_bits;
        } else {
            const auto verdict = deb_rule(better[p], worse[p], cv, v);
            bits |= std::bit_cast<U>(verdict.dominates) & lane_bits;
            if constexpr (kForm == Form::kCover)
                hits |= std::bit_cast<U>(verdict.covers) & lane_bits;
            else
                hits |= std::bit_cast<U>(verdict.dominated_by);
        }
    }
}

/// The kernel's one loop, over vectors V of 2, 4 or 8 doubles: one tile
/// (eight rows) per step, a line being 8 / width vectors. Row r's lane
/// lands on bit r % 64 through a per-lane weight that shifts along the
/// word. The scan form only needs to know whether some row dominates the
/// candidate and returns 1 if so, else 0; the cover form needs the first
/// covering row, so it keeps covering lanes by bit too, checks them once
/// per 64-row word and returns the lowest covering row, or the row count.
/// Masked (kMasked), the loop steps through the set bits of a tile mask
/// instead of every tile and writes each tile's eight bits as it goes,
/// into words the caller zeroed.
template <class V, Form kForm, bool kMasked>
[[gnu::always_inline]] inline std::size_t walk(const WalkArgs& a) {
    using U = typename UnsignedLanes<V>::type;
    constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
    const std::size_t stride = a.m + 1;
    const std::size_t tiles = (a.rows + kTileRows - 1) / kTileRows;
    const V cv = splat<V>(a.violation);
    U first_weight{};
    for (std::size_t k = 0; k < kWidth; ++k) first_weight[k] = 1u << k;
    U bits{};
    U hits{};
    if constexpr (kMasked) {
        static_assert(kForm != Form::kCover);
        for (std::size_t w = 0; w < (tiles + 63) / 64; ++w) {
            // Bits past the last tile are ignored.
            const std::size_t past = std::min<std::size_t>(tiles - w * 64, 64);
            const std::uint64_t valid =
                past == 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << past) - 1;
            for (std::uint64_t word = a.mask[w] & valid; word != 0;
                 word &= word - 1) {
                const std::size_t t =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(word));
                bits = U{};
                visit<V, kForm>(a, a.tiles + t * stride, cv, first_weight,
                                bits, hits);
                a.dominates[t / kTilesPerWord] |=
                    or_lanes(bits) << (t % kTilesPerWord * kTileRows);
            }
        }
        return or_lanes(hits) != 0;
    }
    U weight = first_weight;
    const detail::TileLine* tile = a.tiles;
    for (std::size_t t = 0; t < tiles; ++t, tile += stride) {
        visit<V, kForm>(a, tile, cv, weight, bits, hits);
        if (t % kTilesPerWord == kTilesPerWord - 1 || t + 1 == tiles) {
            if constexpr (kForm == Form::kCover) {
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
    if constexpr (kForm == Form::kCover) return a.rows;
    else return or_lanes(hits) != 0;
}

// The thin per-width wrappers: each compiles walk() for its target.
template <Form kForm, bool kMasked>
std::size_t walk_sse2(const WalkArgs& a) {
    return walk<v2d, kForm, kMasked>(a);
}
#if defined(__x86_64__)
template <Form kForm, bool kMasked>
[[gnu::target("avx2")]] std::size_t walk_avx2(const WalkArgs& a) {
    return walk<v4d, kForm, kMasked>(a);
}
template <Form kForm, bool kMasked>
[[gnu::target("avx512f")]] std::size_t walk_avx512(const WalkArgs& a) {
    return walk<v8d, kForm, kMasked>(a);
}
#endif

/// Bit k set iff lane k of \p x is less than lane k of \p y (false for
/// NaN, as `<` is). On x86-64 one compare straight into a mask register
/// (AVX-512F) or a compare and a sign-bit move (AVX, SSE2): folding the
/// lanes as vectors took twice the vector instructions and measured
/// 1.4-1.9x slower per contestant. The builtins expand only inside the
/// target wrappers below, into which this is always inlined.
template <class V>
[[gnu::always_inline]] inline unsigned less_bits(const V& x, const V& y) {
#if defined(__x86_64__)
    if constexpr (sizeof(V) == sizeof(v8d))
        return __builtin_ia32_cmppd512_mask(x, y, _CMP_LT_OQ, 0xff,
                                            _MM_FROUND_CUR_DIRECTION);
    else if constexpr (sizeof(V) == sizeof(v4d))
        return static_cast<unsigned>(
            __builtin_ia32_movmskpd256(std::bit_cast<v4d>(x < y)));
    else
        return static_cast<unsigned>(
            __builtin_ia32_movmskpd(std::bit_cast<v2d>(x < y)));
#else
    const auto less = x < y;
    unsigned bits = 0;
    for (std::size_t k = 0; k < sizeof(V) / sizeof(double); ++k)
        bits |= static_cast<unsigned>(less[k] != 0) << k;
    return bits;
#endif
}

struct RowArgs {
    const double* rows;
    std::size_t m;
    const std::uint64_t* contestants; ///< row indices
    std::size_t count;                ///< contestants
};

/// One row against another, as two lane bitmasks: where x is smaller
/// (`better`) and where y is (`worse`).
struct RowBits {
    unsigned better;
    unsigned worse;
};

/// Row x against row y for vectors V of 2, 4 or 8 doubles. A row of
/// M + 1 doubles is `chunks` unaligned loads, and the violation falls in
/// the last one: that load's lanes are bits 0 … W - 1 (`violation` is the
/// violation's bit; lanes past it, the next row or the pad, are masked
/// off), and the bits above W - 1 stand for the earlier loads, which hold
/// objectives only (OR-ed together, so only whether one is set counts).
template <class V>
struct RowCompare {
    static constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

    std::size_t stride;
    std::size_t chunks;
    unsigned violation;
    unsigned row_mask; ///< the last load's lanes inside the row, and above

    [[gnu::always_inline]] explicit RowCompare(std::size_t m)
        : stride(m + 1), chunks(m / kWidth + 1),
          violation(1u << (m % kWidth)),
          row_mask(((violation << 1) - 1) | ~0u << kWidth) {}

    /// \p kOneLoad: chunks is 1 (M + 1 <= W), known at compile time.
    template <bool kOneLoad>
    [[gnu::always_inline]] RowBits compare(const double* x,
                                           const double* y) const {
        unsigned better = 0;
        unsigned worse = 0;
        std::size_t c = 0;
        for (; !kOneLoad && c + 1 < chunks; ++c) {
            const V xc = load_unaligned<V>(x + c * kWidth);
            const V yc = load_unaligned<V>(y + c * kWidth);
            better |= less_bits(xc, yc);
            worse |= less_bits(yc, xc);
        }
        const V xc = load_unaligned<V>(x + c * kWidth);
        const V yc = load_unaligned<V>(y + c * kWidth);
        return {(better << kWidth | less_bits(xc, yc)) & row_mask,
                (worse << kWidth | less_bits(yc, xc)) & row_mask};
    }

    /// Deb's rule, as deb_rule applies it per lane: x dominates y iff its
    /// violation is smaller, or y is smaller nowhere (violation included)
    /// and x is smaller somewhere.
    [[gnu::always_inline]] bool dominates(RowBits b) const {
        return (b.better & violation) != 0 || (b.worse == 0 && b.better != 0);
    }
};

/// compare_constrained(row a.contestants[0], row a.contestants[1]).
template <class V>
[[gnu::always_inline]] inline Dominance row_compare(const RowArgs& a) {
    const RowCompare<V> cmp(a.m);
    const RowBits b =
        cmp.template compare<false>(a.rows + a.contestants[0] * cmp.stride,
                                    a.rows + a.contestants[1] * cmp.stride);
    if (cmp.dominates(b)) return Dominance::kDominates;
    if (cmp.dominates({b.worse, b.better})) return Dominance::kDominatedBy;
    // Neither violation is smaller here, so both bits are objectives.
    if (b.better != 0 && b.worse != 0) return Dominance::kNondominated;
    return Dominance::kEqual;
}

/// One challenger at a time against the incumbent, which it replaces iff
/// it dominates it. The inner loop only searches for the next such
/// challenger, so the incumbent changes on a loop exit, a predicted
/// branch: written as one loop with a select, the compiler made it a
/// conditional move, and every contest then waited for the last one's
/// loads.
template <class V, bool kOneLoad>
[[gnu::always_inline]] inline std::size_t contest(const RowCompare<V>& cmp,
                                                  const RowArgs& a) {
    const auto row = [&](std::size_t k) {
        return a.rows + a.contestants[k] * cmp.stride;
    };
    std::size_t best = 0;
    for (std::size_t k = 1;; ++k) {
        const double* incumbent = row(best);
        while (k < a.count &&
               !cmp.dominates(
                   cmp.template compare<kOneLoad>(row(k), incumbent)))
            ++k;
        if (k == a.count) break;
        best = k;
    }
    return a.contestants[best];
}

template <class V>
[[gnu::always_inline]] inline std::size_t row_tournament(const RowArgs& a) {
    const RowCompare<V> cmp(a.m);
    return cmp.chunks == 1 ? contest<V, true>(cmp, a)
                           : contest<V, false>(cmp, a);
}

// The per-width wrappers of the row kernel.
Dominance row_compare_sse2(const RowArgs& a) { return row_compare<v2d>(a); }
std::size_t row_tournament_sse2(const RowArgs& a) {
    return row_tournament<v2d>(a);
}
#if defined(__x86_64__)
[[gnu::target("avx2")]] Dominance row_compare_avx2(const RowArgs& a) {
    return row_compare<v4d>(a);
}
[[gnu::target("avx2")]] std::size_t row_tournament_avx2(const RowArgs& a) {
    return row_tournament<v4d>(a);
}
[[gnu::target("avx512f")]] Dominance row_compare_avx512(
    const RowArgs& a) {
    return row_compare<v8d>(a);
}
[[gnu::target("avx512f")]] std::size_t row_tournament_avx512(
    const RowArgs& a) {
    return row_tournament<v8d>(a);
}
#endif

} // namespace

namespace detail {

struct TileKernel {
    std::size_t width; ///< doubles per vector
    /// walks[form][masked]: the loop in each form, over every tile or
    /// over the tiles of a mask (cover has no masked form).
    std::size_t (*walks[kForms][2])(const WalkArgs&);
    Dominance (*compare_rows)(const RowArgs&);
    std::size_t (*tournament)(const RowArgs&);
};

namespace {

constexpr TileKernel kKernels[] = {
    {2,
     {{walk_sse2<Form::kScan, false>, walk_sse2<Form::kScan, true>},
      {walk_sse2<Form::kCover, false>, nullptr},
      {walk_sse2<Form::kReachUpper, false>,
       walk_sse2<Form::kReachUpper, true>},
      {walk_sse2<Form::kReachLower, false>,
       walk_sse2<Form::kReachLower, true>}},
     row_compare_sse2,
     row_tournament_sse2},
#if defined(__x86_64__)
    {4,
     {{walk_avx2<Form::kScan, false>, walk_avx2<Form::kScan, true>},
      {walk_avx2<Form::kCover, false>, nullptr},
      {walk_avx2<Form::kReachUpper, false>,
       walk_avx2<Form::kReachUpper, true>},
      {walk_avx2<Form::kReachLower, false>,
       walk_avx2<Form::kReachLower, true>}},
     row_compare_avx2,
     row_tournament_avx2},
    {8,
     {{walk_avx512<Form::kScan, false>, walk_avx512<Form::kScan, true>},
      {walk_avx512<Form::kCover, false>, nullptr},
      {walk_avx512<Form::kReachUpper, false>,
       walk_avx512<Form::kReachUpper, true>},
      {walk_avx512<Form::kReachLower, false>,
       walk_avx512<Form::kReachLower, true>}},
     row_compare_avx512,
     row_tournament_avx512},
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

std::size_t kernel_width(const DominanceRows& rows) {
    return rows.kernel_->width;
}

namespace {

const TileKernel& available_kernel(std::size_t width) {
    const TileKernel* kernel = kernel_at(width);
    if (kernel == nullptr)
        throw std::invalid_argument("dominance kernel: width " +
                                    std::to_string(width) +
                                    " is not available on this CPU");
    return *kernel;
}

} // namespace

void set_kernel_width(DominanceTiles& tiles, std::size_t width) {
    tiles.kernel_ = &available_kernel(width);
}

void set_kernel_width(DominanceRows& rows, std::size_t width) {
    rows.kernel_ = &available_kernel(width);
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

void DominanceTiles::reserve(std::size_t rows) {
    const std::size_t lines = (rows + kTileRows - 1) / kTileRows * (m_ + 1);
    if (lines <= tiles_.capacity()) return;
    if (tiles_.empty()) tiles_ = {};
    tiles_.reserve(lines);
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

template <detail::WalkForm kForm>
std::size_t DominanceTiles::walk(std::span<const double> candidate,
                                 double candidate_violation,
                                 std::vector<std::uint64_t>& out,
                                 std::span<const std::uint64_t> tiles) const {
    assert(candidate.size() == m_);
    const bool masked = tiles.data() != nullptr;
    out.resize((rows_ + 63) / 64);
    if (masked) std::fill(out.begin(), out.end(), std::uint64_t{0});
    const WalkArgs args{tiles_.data(),       m_,         rows_,
                        candidate.data(),    candidate_violation,
                        out.data(),          tiles.data()};
    return kernel_->walks[static_cast<std::size_t>(kForm)][masked](args);
}

bool DominanceTiles::scan(std::span<const double> candidate,
                          double candidate_violation,
                          std::vector<std::uint64_t>& dominates) const {
    return walk<Form::kScan>(candidate, candidate_violation, dominates) != 0;
}

std::size_t DominanceTiles::cover(std::span<const double> candidate,
                                  double candidate_violation,
                                  std::vector<std::uint64_t>& dominates) const {
    return walk<Form::kCover>(candidate, candidate_violation, dominates);
}

bool DominanceTiles::scan_tiles(std::span<const std::uint64_t> tiles,
                                std::span<const double> candidate,
                                double candidate_violation,
                                std::vector<std::uint64_t>& dominates) const {
    assert(tiles.size() * 64 >= this->tiles());
    return walk<Form::kScan>(candidate, candidate_violation, dominates,
                             tiles) != 0;
}

void DominanceTiles::reach(Corner corner, std::span<const double> candidate,
                           double candidate_violation,
                           std::vector<std::uint64_t>& boxes) const {
    if (corner == Corner::kUpper)
        walk<Form::kReachUpper>(candidate, candidate_violation, boxes);
    else
        walk<Form::kReachLower>(candidate, candidate_violation, boxes);
}

void DominanceTiles::reach_tiles(Corner corner,
                                 std::span<const std::uint64_t> tiles,
                                 std::span<const double> candidate,
                                 double candidate_violation,
                                 std::vector<std::uint64_t>& boxes) const {
    assert(tiles.size() * 64 >= this->tiles());
    if (corner == Corner::kUpper)
        walk<Form::kReachUpper>(candidate, candidate_violation, boxes, tiles);
    else
        walk<Form::kReachLower>(candidate, candidate_violation, boxes, tiles);
}

DominanceRows::DominanceRows() : kernel_(detail::widest_kernel()) {}

void DominanceRows::reset(std::size_t num_objectives) {
    m_ = num_objectives;
    rows_ = 0;
    values_.clear();
}

void DominanceRows::resize(std::size_t rows) {
    assert(rows >= rows_);
    // The old pad becomes row values, all NaN already.
    values_.resize(rows * (m_ + 1) + kPad, kNaN);
    rows_ = rows;
}

void DominanceRows::set_row(std::size_t i, std::span<const double> values,
                            double violation) {
    assert(i < rows_ && values.size() == m_);
    double* row = values_.data() + i * (m_ + 1);
    std::copy(values.begin(), values.end(), row);
    row[m_] = violation;
}

Dominance DominanceRows::compare_rows(std::size_t a, std::size_t b) const {
    assert(a < rows_ && b < rows_);
    const std::uint64_t pair[] = {a, b};
    return kernel_->compare_rows({values_.data(), m_, pair, 2});
}

std::size_t DominanceRows::tournament(
    std::span<const std::uint64_t> contestants) const {
    assert(!contestants.empty());
    return kernel_->tournament(
        {values_.data(), m_, contestants.data(), contestants.size()});
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
