#ifndef BORG_MOEA_DOMINANCE_HPP
#define BORG_MOEA_DOMINANCE_HPP

/// \file dominance.hpp
/// Pareto and ε-box dominance comparisons (minimization convention).

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace borg::moea {

enum class Dominance : std::uint8_t {
    kDominates,    ///< a dominates b
    kDominatedBy,  ///< b dominates a
    kNondominated, ///< neither dominates
    kEqual,        ///< identical objective vectors
};

/// Pareto comparison of two objective vectors of equal length.
///
/// Defined inline: the population's steady-state injection scan calls this
/// once per member per offspring (tens of thousands of calls at
/// restart-grown sizes), where out-of-line call overhead is a measurable
/// slice of the master's T_A.
inline Dominance compare_pareto(std::span<const double> a,
                                std::span<const double> b) {
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

/// Constraint-domination (Deb 2000), Borg's rule for constrained problems:
/// a feasible solution dominates an infeasible one; two infeasible
/// solutions compare by total violation (smaller dominates); two feasible
/// solutions compare by Pareto dominance. Violations are the solutions'
/// total_violation() sums (0 = feasible).
inline Dominance compare_constrained(std::span<const double> a_objectives,
                                     double a_violation,
                                     std::span<const double> b_objectives,
                                     double b_violation) {
    if (a_violation > 0.0 || b_violation > 0.0) {
        if (a_violation < b_violation) return Dominance::kDominates;
        if (b_violation < a_violation) return Dominance::kDominatedBy;
        // Equal nonzero violations: fall through to objective comparison
        // so equally-infeasible solutions still exert selection pressure.
    }
    return compare_pareto(a_objectives, b_objectives);
}

/// True iff \p a Pareto-dominates \p b.
inline bool dominates(std::span<const double> a, std::span<const double> b) {
    return compare_pareto(a, b) == Dominance::kDominates;
}

/// The ε-box index of an objective vector: floor(f_i / ε_i) per objective
/// (Laumanns et al. 2002). Two solutions in the same box are "ε-equal"; box
/// indices are compared by Pareto dominance to get ε-dominance. Indices
/// stay doubles: every finite objective has a box, however large |f/ε|
/// grows (an integer cast past 2^63 is undefined), and every index below
/// 2^53 is exact.
std::vector<double> epsilon_box(std::span<const double> objectives,
                                std::span<const double> epsilons);

/// Allocation-free epsilon_box: writes the box indices into \p out, which
/// must already have objectives.size() elements. The archive engine's hot
/// path calls this with a reusable scratch buffer.
void epsilon_box_into(std::span<const double> objectives,
                      std::span<const double> epsilons,
                      std::span<double> out);

/// Pareto comparison of two box-index vectors.
Dominance compare_boxes(std::span<const double> a, std::span<const double> b);

/// Calls \p f(i) for every set bit i of a DominanceTiles::scan bitmask,
/// in ascending order.
template <typename F>
void for_each_set_bit(std::span<const std::uint64_t> bits, F&& f) {
    for (std::size_t w = 0; w < bits.size(); ++w)
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
            f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

class DominanceTiles;
class DominanceRows;

namespace detail {

/// One 64-byte line of a DominanceTiles tile: one value of its eight rows.
struct alignas(64) TileLine {
    double lane[8];
};

/// The dominance kernel at one vector width (defined in dominance.cpp).
struct TileKernel;

/// One form of the kernel's loop (defined in dominance.cpp).
enum class WalkForm : std::uint8_t;

/// The kernel vector widths, in doubles, that this build carries and this
/// CPU runs, narrowest first: 2 always; 4 (AVX2) and 8 (AVX-512F) on
/// x86-64. Every width gives the same bits.
std::span<const std::size_t> kernel_widths();

/// The width \p tiles (or \p rows) runs its kernel at.
std::size_t kernel_width(const DominanceTiles& tiles);
std::size_t kernel_width(const DominanceRows& rows);

/// Runs \p tiles' (or \p rows') kernel at \p width, one of
/// kernel_widths() (throws std::invalid_argument otherwise). For tests and
/// micro-benchmarks.
void set_kernel_width(DominanceTiles& tiles, std::size_t width);
void set_kernel_width(DominanceRows& rows, std::size_t width);

} // namespace detail

/// Objective-major mirror of a row set, laid out for the dominance kernel
/// (DESIGN.md §15). Rows group into 8-row tiles: tile t is M + 1 64-byte
/// lines, line j holding objective j of rows 8t … 8t + 7 and the last
/// line their violations, so one line is one AVX-512 vector, two AVX2
/// vectors or four SSE2 vectors. A row that holds nothing (padding up to
/// a whole tile, a free archive slot) is all NaN: NaN compares neither
/// better nor worse, so such a row never dominates and is never
/// dominated. Violations are total_violation() sums: non-negative, or NaN.
///
/// The population mirrors member objectives and total violations here;
/// the archive mirrors its members' ε-box indices (doubles, as
/// epsilon_box computes them) with violation 0.
///
/// The kernel has four forms over one loop: scan() visits every row;
/// cover() stops at the first 64-row word that holds a row dominating or
/// tying the candidate; scan_tiles() visits only the tiles of a tile
/// bitmask; reach() reads rows as the corners of boxes. The archive adds
/// through cover(): its members are mutually box-nondominated, so such a
/// row either shares the candidate's box or rejects it, and only a
/// candidate that no row covers can evict. The population keeps its
/// tiles in a spatial order with one box per tile, and scans only the
/// tiles that reach() returns. Random single rows (the tournaments) are
/// read from a DominanceRows instead, where a row is contiguous.
/// The loop is one template over the vector type, compiled at the
/// baseline width and, on x86-64, for AVX2 and AVX-512F; the widest one
/// the CPU runs (__builtin_cpu_supports) is picked once, for every mirror.
class DominanceTiles {
public:
    /// Rows per tile: one 64-byte line holds one value of each.
    static constexpr std::size_t kTileRows = 8;

    /// Which corner of a box reach() reads a row as.
    enum class Corner : std::uint8_t {
        kUpper, ///< per-value maxima: may the box hold a row it dominates?
        kLower, ///< per-value minima: may it hold a row dominating it?
    };

    /// An empty mirror on the dispatched kernel.
    DominanceTiles();

    std::size_t size() const noexcept { return rows_; }
    std::size_t num_objectives() const noexcept { return m_; }
    /// Tiles spanned by size() rows.
    std::size_t tiles() const noexcept {
        return (rows_ + kTileRows - 1) / kTileRows;
    }

    /// Drops every row and sets the objective count. Keeps capacity.
    void reset(std::size_t num_objectives);
    /// Grows to \p rows (>= size()); the new rows are all NaN.
    void resize(std::size_t rows);
    /// Room for \p rows rows, so that resize() up to them moves nothing.
    /// An empty mirror frees a buffer too small before it allocates the
    /// new one, so the two are never held at once.
    void reserve(std::size_t rows);
    /// Overwrites row \p i (values.size() must equal num_objectives()).
    void set_row(std::size_t i, std::span<const double> values,
                 double violation);
    /// Makes row \p i all NaN.
    void clear_row(std::size_t i);

    /// Objective \p j of row \p i; j = num_objectives() is its violation.
    double value(std::size_t i, std::size_t j) const {
        return tiles_[i / kTileRows * (m_ + 1) + j].lane[i % kTileRows];
    }

    /// The kernel: compares a candidate against every row under Deb's
    /// rule (compare_constrained with the candidate first). Bit i of
    /// \p dominates (resized to one bit per row) is set iff the candidate
    /// dominates row i; the result is true iff some row dominates the
    /// candidate. Feasible and infeasible rows share one branch-free body.
    bool scan(std::span<const double> candidate, double candidate_violation,
              std::vector<std::uint64_t>& dominates) const;

    /// The kernel's cover form. Row i covers the candidate iff neither
    /// violation is NaN and compare_constrained(row i, candidate) is
    /// kDominates or kEqual: the row dominates or ties the candidate under
    /// Deb's rule. An all-NaN row never covers. Returns the lowest
    /// covering row, leaving \p dominates unspecified, or size() when no
    /// row covers — then \p dominates holds exactly what scan() writes.
    std::size_t cover(std::span<const double> candidate,
                      double candidate_violation,
                      std::vector<std::uint64_t>& dominates) const;

    /// The kernel's masked form: scan() over only the tiles set in
    /// \p tiles (bit t stands for rows 8t … 8t + 7; at least tiles()
    /// bits, those past it ignored). \p dominates gets scan()'s bits on
    /// those tiles and 0 elsewhere; the result is true iff a row of those
    /// tiles dominates the candidate.
    bool scan_tiles(std::span<const std::uint64_t> tiles,
                    std::span<const double> candidate,
                    double candidate_violation,
                    std::vector<std::uint64_t>& dominates) const;

    /// The kernel's reach form, over rows that are the corners of boxes
    /// (one box per row, its values and violation bounding those of the
    /// rows inside it). Bit i of \p boxes (resized to one bit per row) is
    /// set iff row i's violation is not NaN (a NaN violation marks an
    /// empty box) and, with v_i its violation and cv the candidate's:
    ///  * kUpper: cv < v_i, or neither v_i < cv nor row i smaller than
    ///    the candidate on some objective;
    ///  * kLower: v_i < cv, or neither cv < v_i nor the candidate smaller
    ///    than row i on some objective.
    /// Under Deb's rule (scan()'s verdict) this is a superset: if row i
    /// is a box's upper corner (per-value maxima, a NaN value counting as
    /// +inf) and the candidate dominates a row in the box, bit i is set
    /// for kUpper; if it is the lower corner (minima, NaN as -inf) and a
    /// row in the box dominates the candidate, bit i is set for kLower.
    void reach(Corner corner, std::span<const double> candidate,
               double candidate_violation,
               std::vector<std::uint64_t>& boxes) const;
    /// reach() over only the tiles set in \p tiles, as scan_tiles() is
    /// scan() over them: \p boxes is 0 outside those tiles.
    void reach_tiles(Corner corner, std::span<const std::uint64_t> tiles,
                     std::span<const double> candidate,
                     double candidate_violation,
                     std::vector<std::uint64_t>& boxes) const;

private:
    friend std::size_t detail::kernel_width(const DominanceTiles&);
    friend void detail::set_kernel_width(DominanceTiles&, std::size_t);

    /// Runs one form of the kernel, over the tiles set in \p tiles if it
    /// is given, else over every tile.
    template <detail::WalkForm kForm>
    std::size_t walk(std::span<const double> candidate,
                     double candidate_violation,
                     std::vector<std::uint64_t>& out,
                     std::span<const std::uint64_t> tiles = {}) const;

    std::size_t m_ = 0;
    std::size_t rows_ = 0;
    std::vector<detail::TileLine> tiles_;
    const detail::TileKernel* kernel_;
};

/// Row-major mirror of a row set, laid out for random single-row reads
/// (DESIGN.md §15): row i's M values and its violation are the M + 1
/// contiguous doubles at i·(M + 1), and the buffer ends with kPad NaN
/// doubles, so an 8-double load at any row start stays in bounds. A row
/// that holds nothing is all NaN, as in DominanceTiles. The population
/// keeps one next to its tiles for the tournaments.
///
/// The kernel compares a challenger row with an incumbent row as
/// ⌈(M + 1)/W⌉ unaligned W-double loads, two ordered compares per load
/// and Deb's rule on the lane bits (lanes past the violation masked
/// off): the same rule as the tile kernel, at the same dispatched width.
class DominanceRows {
public:
    /// NaN doubles after the last row: the widest load less one.
    static constexpr std::size_t kPad = 7;

    /// An empty mirror on the dispatched kernel.
    DominanceRows();

    std::size_t size() const noexcept { return rows_; }
    std::size_t num_objectives() const noexcept { return m_; }

    /// Drops every row and sets the objective count. Keeps capacity.
    void reset(std::size_t num_objectives);
    /// Grows to \p rows (>= size()); the new rows are all NaN.
    void resize(std::size_t rows);
    /// Overwrites row \p i (values.size() must equal num_objectives()).
    void set_row(std::size_t i, std::span<const double> values,
                 double violation);

    /// Row \p i: its M values, then its violation.
    std::span<const double> row(std::size_t i) const {
        return {values_.data() + i * (m_ + 1), m_ + 1};
    }

    /// compare_constrained(row a, row b).
    Dominance compare_rows(std::size_t a, std::size_t b) const;

    /// Dominance tournament over rows: the first contestant is the
    /// incumbent, and each later one replaces it iff it dominates it
    /// (compare_rows == kDominates). Requires a non-empty span.
    std::size_t tournament(std::span<const std::uint64_t> contestants) const;

private:
    friend std::size_t detail::kernel_width(const DominanceRows&);
    friend void detail::set_kernel_width(DominanceRows&, std::size_t);

    std::size_t m_ = 0;
    std::size_t rows_ = 0;
    std::vector<double> values_; ///< rows_·(m_ + 1) values, then kPad NaN
    const detail::TileKernel* kernel_;
};

/// Squared Euclidean distance from \p objectives to the lower corner of its
/// ε-box; the within-box tiebreaker (the solution nearer the corner wins).
double distance_to_box_corner(std::span<const double> objectives,
                              std::span<const double> box,
                              std::span<const double> epsilons);

} // namespace borg::moea

#endif
