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
/// indices are compared by Pareto dominance to get ε-dominance.
std::vector<std::int64_t> epsilon_box(std::span<const double> objectives,
                                      std::span<const double> epsilons);

/// Allocation-free epsilon_box: writes the box indices into \p out, which
/// must already have objectives.size() elements. The archive engine's hot
/// path calls this with a reusable scratch buffer.
void epsilon_box_into(std::span<const double> objectives,
                      std::span<const double> epsilons,
                      std::span<std::int64_t> out);

/// Pareto comparison of two box-index vectors.
Dominance compare_boxes(std::span<const std::int64_t> a,
                        std::span<const std::int64_t> b);

/// Calls \p f(i) for every set bit i of a DominanceTiles::scan bitmask,
/// in ascending order.
template <typename F>
void for_each_set_bit(std::span<const std::uint64_t> bits, F&& f) {
    for (std::size_t w = 0; w < bits.size(); ++w)
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
            f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

class DominanceTiles;

namespace detail {

/// One 64-byte line of a DominanceTiles tile: one value of its eight rows.
struct alignas(64) TileLine {
    double lane[8];
};

/// The dominance kernel at one vector width (defined in dominance.cpp).
struct TileKernel;

/// The kernel vector widths, in doubles, that this build carries and this
/// CPU runs, narrowest first: 2 always; 4 (AVX2) and 8 (AVX-512F) on
/// x86-64. Every width gives the same bits.
std::span<const std::size_t> kernel_widths();

/// The width \p tiles runs its kernel at.
std::size_t kernel_width(const DominanceTiles& tiles);

/// Runs \p tiles' kernel at \p width, one of kernel_widths() (throws
/// std::invalid_argument otherwise). For tests and micro-benchmarks.
void set_kernel_width(DominanceTiles& tiles, std::size_t width);

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
/// the archive mirrors ε-box coordinates (as doubles, which compare
/// exactly like the int64 box for every finite box) with violation 0.
///
/// The kernel has two forms over one loop: scan() visits every row;
/// cover() stops at the first 64-row word that holds a row dominating or
/// tying the candidate. The archive adds through cover(): its members are
/// mutually box-nondominated, so such a row either shares the candidate's
/// box or rejects it, and only a candidate that no row covers can evict.
/// The loop is one template over the vector type, compiled at the
/// baseline width and, on x86-64, for AVX2 and AVX-512F; the widest one
/// the CPU runs (__builtin_cpu_supports) is picked once, for every mirror.
class DominanceTiles {
public:
    /// Rows per tile: one 64-byte line holds one value of each.
    static constexpr std::size_t kTileRows = 8;

    /// An empty mirror on the dispatched kernel.
    DominanceTiles();

    std::size_t size() const noexcept { return rows_; }
    std::size_t num_objectives() const noexcept { return m_; }

    /// Drops every row and sets the objective count. Keeps capacity.
    void reset(std::size_t num_objectives);
    /// Grows to \p rows (>= size()); the new rows are all NaN.
    void resize(std::size_t rows);
    /// Overwrites row \p i (values.size() must equal num_objectives()).
    void set_row(std::size_t i, std::span<const double> values,
                 double violation);
    /// Makes row \p i all NaN.
    void clear_row(std::size_t i);

    /// Objective \p j of row \p i.
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

    /// The kernel's single-row form: compare_constrained(row a, row b).
    Dominance compare_rows(std::size_t a, std::size_t b) const;

    /// Dominance tournament over rows: the first contestant is the
    /// incumbent, and each later one replaces it iff it dominates it
    /// (compare_rows == kDominates). Requires a non-empty span.
    std::size_t tournament(std::span<const std::uint64_t> contestants) const;

private:
    friend std::size_t detail::kernel_width(const DominanceTiles&);
    friend void detail::set_kernel_width(DominanceTiles&, std::size_t);

    /// Runs the kernel's scan (kCover false) or cover (kCover true) form.
    template <bool kCover>
    std::size_t walk(std::span<const double> candidate,
                     double candidate_violation,
                     std::vector<std::uint64_t>& dominates) const;

    /// First line of row \p i's tile.
    const detail::TileLine* tile_of(std::size_t i) const noexcept {
        return tiles_.data() + i / kTileRows * (m_ + 1);
    }

    std::size_t m_ = 0;
    std::size_t rows_ = 0;
    std::vector<detail::TileLine> tiles_;
    const detail::TileKernel* kernel_;
};

/// Squared Euclidean distance from \p objectives to the lower corner of its
/// ε-box; the within-box tiebreaker (the solution nearer the corner wins).
double distance_to_box_corner(std::span<const double> objectives,
                              std::span<const std::int64_t> box,
                              std::span<const double> epsilons);

} // namespace borg::moea

#endif
