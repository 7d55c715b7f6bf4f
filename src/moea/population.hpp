#ifndef BORG_MOEA_POPULATION_HPP
#define BORG_MOEA_POPULATION_HPP

/// \file population.hpp
/// Borg's steady-state population with the ε-MOEA replacement rule.
///
/// The population has a target size that the restart machinery adapts at
/// runtime (γ times the archive size). A newly evaluated offspring is
/// injected one at a time:
///  * while the population is below target size it is simply appended;
///  * if it dominates one or more members, it replaces one of them at
///    random (this takes precedence even when some other member dominates
///    the offspring, keeping the rule independent of scan order);
///  * else, if it is dominated by any member, it is discarded;
///  * otherwise (mutually nondominated) it replaces a random member.
/// This keeps the population size constant without generational sorting —
/// the property that makes the algorithm natural to run asynchronously.
///
/// Storage: members live in a SolutionPool arena (DESIGN.md §15) — the
/// population owns one handle per member — and their objectives are
/// mirrored twice: into a DominanceRows in member order, which the
/// tournaments read, and into a DominanceTiles, which the injection scan
/// reads. Once that mirror spans kSpatialTiles tiles its rows sit in a
/// spatial order, each tile with a bounding box, and the scan visits only
/// the tiles whose box can hold a dominated or dominating member; the
/// victim is still drawn in member order, so draws do not change. A
/// population can either share the algorithm's pool (BorgMoea passes its
/// own) or lazily create a private one sized from the first solution it
/// sees (standalone construction in tests).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "moea/dominance.hpp"
#include "moea/solution.hpp"
#include "moea/solution_pool.hpp"
#include "util/rng.hpp"

namespace borg::moea {

class Population {
public:
    /// The tile count from which the scan mirror is laid out spatially;
    /// below it, a member's slot is its index and every tile is scanned.
    static constexpr std::size_t kSpatialTiles = 64;

    /// Standalone population with a private, lazily created pool.
    explicit Population(std::size_t target_size);
    /// Population storing its members in \p pool (must outlive it).
    Population(SolutionPool& pool, std::size_t target_size);

    Population(const Population&) = delete;
    Population& operator=(const Population&) = delete;

    ~Population();

    std::size_t size() const noexcept { return members_.size(); }
    bool empty() const noexcept { return members_.empty(); }

    std::size_t target_size() const noexcept { return target_size_; }
    /// Changes the target size; a shrink does not evict members (the
    /// steady-state replacement naturally converges back to target).
    void set_target_size(std::size_t target);

    ConstSolutionView operator[](std::size_t i) const {
        return pool_->view(members_[i]);
    }

    /// Steady-state injection per the rule above (accepts `Solution` or a
    /// pool view; the population copies the payload either way). Returns
    /// true if the offspring entered the population. When \p member_row is
    /// non-null it receives the pool row the offspring's copy landed in
    /// (append or replacement victim); it is left untouched on rejection.
    /// The out-param adds no RNG draws — draw order is identical with or
    /// without it.
    bool inject(ConstSolutionView offspring, util::Rng& rng,
                std::uint32_t* member_row = nullptr);

    /// Unconditional append (used for restart injection, which rebuilds the
    /// population from the archive).
    void append(ConstSolutionView solution);

    void clear() noexcept;

    /// Tournament of \p tournament_size uniformly drawn members (with
    /// replacement), decided by Pareto dominance; among mutually
    /// nondominated contestants the earliest drawn wins (which, with random
    /// draws, is an unbiased choice). Returns the winner's member index, so
    /// callers can read it (operator[]) or recover its pool row
    /// (member_row()). Population must be non-empty.
    std::size_t tournament_pick_index(std::size_t tournament_size,
                                      util::Rng& rng) const;

    /// Frequency-aware tournament (Harada's frequency-based parent
    /// selection, arXiv:2107.12053): dominance still decides first, but
    /// among mutually nondominated contestants the one selected FEWER
    /// times before wins (earliest drawn wins exact ties). \p
    /// counts_by_row maps pool row -> selection count; rows at or past its
    /// end count as 0. Draws tournament_size member indices — a different
    /// draw sequence from tournament_pick, used only by the freq policy.
    std::size_t tournament_pick_freq(
        std::size_t tournament_size, util::Rng& rng,
        std::span<const std::uint32_t> counts_by_row) const;

    /// Pool row (arena slot index) holding member \p i's payload.
    std::uint32_t member_row(std::size_t i) const noexcept {
        return members_[i].index;
    }

    /// Tiles the injection scans have visited, summed over every inject
    /// that scanned (micro-benchmark support).
    std::uint64_t scanned_tiles() const noexcept { return scanned_tiles_; }

    /// Owning copies of all members, in order (checkpoint/test support).
    std::vector<Solution> materialize_members() const;

    /// Checkpoint restore: replaces contents and target wholesale.
    void restore(const std::vector<Solution>& members, std::size_t target);

private:
    SolutionPool& pool_for(ConstSolutionView exemplar);
    std::size_t tournament_pick(std::size_t tournament_size,
                                util::Rng& rng) const;
    /// Draws a tournament's member indices in one batch. Valid until the
    /// next tournament.
    std::span<const std::uint64_t> draw_contestants(
        std::size_t tournament_size, util::Rng& rng) const;
    /// Refreshes both mirrors' row of members_[i]. In the spatial layout
    /// the member leaves its slot (if it had one) for a hole in a tile of
    /// reached_ when \p reached, else in the last tile or a new one.
    void cache_member(std::size_t i, bool reached = false);

    // The spatial layout (DESIGN.md §15).
    /// Lays every member out in k-d leaf order, kLeafRows to a tile.
    void rebuild();
    /// Orders member_at_[first, first + count) into k-d leaves.
    void kd_order(std::size_t first, std::size_t count);
    /// The slot a member with \p values (M objectives, then violation)
    /// moves to; counts the placement.
    std::size_t pick_slot(std::span<const double> values, bool reached);
    /// Puts member \p i with \p values in the free \p slot.
    void occupy(std::size_t slot, std::size_t i,
                std::span<const double> values);
    /// Frees \p slot and recomputes its tile's box.
    void vacate(std::size_t slot);
    /// Recomputes tile \p t's corners from its occupied lanes.
    void refresh_box(std::size_t t);

    std::size_t target_size_;
    SolutionPool* pool_ = nullptr;          ///< shared (or = owned_pool_)
    std::unique_ptr<SolutionPool> owned_pool_;
    std::vector<SolutionHandle> members_;

    // Mirrors of each member's objectives + total violation, refreshed
    // whenever a member changes. The tournaments read the rows (row i is
    // members_[i]), the injection scan reads the tiles (slot order), and
    // neither reads the pool: at restart-grown sizes (γ·|archive|,
    // thousands of members) pool views would dominate the master's T_A.
    // Same values, same comparisons — runs don't change. The tiles come
    // first, so they are freed last: the other order left the heap
    // ≈ 0.35 MB larger after a benchmark run (DESIGN.md §15).
    DominanceTiles mirror_;
    DominanceRows rows_;

    // The spatial layout, on once a scan finds the mirror at
    // kSpatialTiles tiles; clear() turns it off. While off, slot i holds
    // member i and the members below are unused.
    bool spatial_ = false;
    std::vector<std::uint32_t> slot_of_;   ///< member -> slot
    std::vector<std::uint32_t> member_at_; ///< slot -> member, or kHole
    std::vector<std::uint8_t> holes_;      ///< tile -> its free lanes
    DominanceTiles hi_; ///< row t: tile t's upper corner (NaN: empty)
    DominanceTiles lo_; ///< row t: tile t's lower corner (NaN: empty)
    DominanceTiles group_hi_; ///< row g: upper corner of tiles 8g … 8g + 7
    DominanceTiles group_lo_; ///< row g: their lower corner
    std::size_t placements_ = 0; ///< since the last rebuild
    std::size_t misplaced_ = 0;  ///< of them, not into a reached tile
    std::size_t room_ = 0;       ///< tiles the buffers hold
    std::uint64_t scanned_tiles_ = 0; ///< scanned_tiles()

    // Reusable scratch: the steady-state paths allocate nothing.
    std::vector<std::uint64_t> dominated_bits_;   ///< inject() kernel output
    std::vector<std::uint64_t> reached_groups_; ///< groups reach() returned
    std::vector<std::uint64_t> reached_;     ///< tiles reach_tiles() returned
    std::vector<std::uint64_t> reached_lo_;  ///< the same, lower corners
    std::vector<std::uint64_t> member_bits_; ///< dominated_bits_ by member
    std::vector<double> box_;                ///< one box being built
    std::vector<double> corner_;             ///< widen() scratch
    mutable std::vector<std::uint64_t> contestants_; ///< tournament draws
};

} // namespace borg::moea

#endif
