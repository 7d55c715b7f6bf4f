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
/// mirrored twice: into a DominanceTiles, which the injection scan reads,
/// and into a DominanceRows, which the tournaments read. A population can
/// either share the algorithm's pool (BorgMoea passes its own) or lazily
/// create a private one sized from the first solution it sees (standalone
/// construction in tests).

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
    /// Refreshes both mirrors' row of members_[i].
    void cache_member(std::size_t i);

    std::size_t target_size_;
    SolutionPool* pool_ = nullptr;          ///< shared (or = owned_pool_)
    std::unique_ptr<SolutionPool> owned_pool_;
    std::vector<SolutionHandle> members_;

    // Mirrors of each member's objectives + total violation (row i is
    // members_[i]), refreshed whenever a member changes. The injection
    // scan reads the tiles, the tournaments read the rows, and neither
    // reads the pool: at restart-grown sizes (γ·|archive|, thousands of
    // members) pool views would dominate the master's T_A. Same values,
    // same comparisons — runs don't change.
    DominanceTiles mirror_;
    DominanceRows rows_;

    // Reusable scratch: the steady-state paths allocate nothing.
    std::vector<std::uint64_t> dominated_bits_;   ///< inject() kernel output
    mutable std::vector<std::uint64_t> contestants_; ///< tournament draws
};

} // namespace borg::moea

#endif
