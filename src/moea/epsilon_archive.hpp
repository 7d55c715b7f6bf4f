#ifndef BORG_MOEA_EPSILON_ARCHIVE_HPP
#define BORG_MOEA_EPSILON_ARCHIVE_HPP

/// \file epsilon_archive.hpp
/// The ε-dominance archive (Laumanns et al. 2002) with the ε-progress
/// bookkeeping the Borg MOEA uses to detect search stagnation.
///
/// Objective space is partitioned into boxes of size ε_i per objective. The
/// archive keeps at most one solution per nondominated box: a candidate is
/// rejected if its box is Pareto-dominated by a member's box; it evicts any
/// members whose boxes it dominates; within the same box the solution
/// closer to the box's lower corner wins. This guarantees both convergence
/// and diversity with a bounded archive.
///
/// ε-progress: an insertion that occupies a *previously unoccupied* box.
/// Borg monitors the ε-progress count over a window of evaluations; no new
/// boxes means search has stagnated and a restart is triggered.
///
/// Constrained problems: only feasible solutions populate the ε-front.
/// Until the first feasible solution is found the archive holds exactly
/// one entry — the least-violating solution seen so far — and each
/// violation improvement counts as ε-progress, so restarts behave
/// sensibly during the feasibility-seeking phase.
///
/// Two implementations share this contract (DESIGN.md §12):
///
///   * ArchiveEngine — the production archive. Every insertion is one
///     pass of the dominance kernel's cover form (DominanceTiles,
///     DESIGN.md §15) over the members' boxes: it stops at the first
///     member whose box dominates or equals the candidate's — a rejection
///     or a same-box contest — and otherwise yields the members to evict.
///     Box computation uses reusable scratch and member payloads live as
///     SolutionPool rows (DESIGN.md §15) — a slot holds a pool handle, not
///     a Solution — so the steady-state add path allocates nothing:
///     accepted owned handles are adopted in place and evicted rows
///     return to the pool's free list.
///   * NaiveArchive — the original O(n·m)-scan-per-add implementation,
///     kept verbatim as the reference oracle. Randomized equivalence tests
///     and bench/micro_archive pin the engine against it: identical
///     verdicts, membership, iteration order, and counters on any stream.
///
/// Both maintain the same iteration order (insertion order, stable under
/// eviction, same-box winners re-appended at the end), so the engine is a
/// drop-in replacement whose runs are bit-identical to the naive archive's.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "moea/dominance.hpp"
#include "moea/solution.hpp"
#include "moea/solution_pool.hpp"

namespace borg::moea {

/// Outcome of an attempted archive insertion.
enum class ArchiveAdd : std::uint8_t {
    kRejected,        ///< candidate was ε-dominated (or lost its box tie)
    kAddedNewBox,     ///< inserted into a box not previously occupied
    kReplacedSameBox, ///< won the within-box tiebreak against the incumbent
};

/// Tally of a batched add_all() commit, one count per ArchiveAdd outcome.
struct ArchiveBatchResult {
    std::size_t added_new_box = 0;
    std::size_t replaced_same_box = 0;
    std::size_t rejected = 0;

    std::size_t accepted() const noexcept {
        return added_new_box + replaced_same_box;
    }
};

/// The production ε-box archive. See the file comment for its design;
/// the public surface is the historical EpsilonBoxArchive API plus
/// add_all() for generational (whole-batch) commits and add_owned() for
/// the arena hot path, where the candidate already lives in the shared
/// SolutionPool and acceptance transfers ownership instead of copying.
class ArchiveEngine {
public:
    /// \p epsilons must have one positive entry per objective. Member
    /// payloads go into a private pool created on first insertion.
    explicit ArchiveEngine(std::vector<double> epsilons);

    /// Members are stored in \p pool (must outlive the archive). Required
    /// for add_owned(): handles can only be adopted from the shared pool.
    ArchiveEngine(SolutionPool& pool, std::vector<double> epsilons);

    ArchiveEngine(const ArchiveEngine&) = delete;
    ArchiveEngine& operator=(const ArchiveEngine&) = delete;

    ~ArchiveEngine();

    /// Attempts to insert a candidate (must be evaluated; accepts a
    /// `Solution` or a pool view). The archive stores its own copy.
    ArchiveAdd add(ConstSolutionView solution);

    /// Ownership-transfer insert: \p handle must be a live row of the
    /// shared pool, not already owned by the archive. On acceptance the
    /// archive adopts the handle (no payload copy); on rejection — and for
    /// the incumbent a same-box win displaces — the row is released back
    /// to the pool. Either way the caller must not use \p handle again.
    /// Verdicts, counters, and iteration order are identical to add().
    ArchiveAdd add_owned(SolutionHandle handle);

    /// Batched commit: offers every solution in order (identical to
    /// calling add() in a loop) and tallies the outcomes. This is the
    /// entry point for generational ingests and archive merges, where the
    /// caller cares about the batch outcome, not per-candidate verdicts.
    ArchiveBatchResult add_all(std::span<const Solution> batch);

    std::size_t size() const noexcept { return order_.size(); }
    bool empty() const noexcept { return order_.empty(); }

    /// Pool row (arena slot index) of member \p i — the identity key used
    /// by selection-frequency bookkeeping (DESIGN.md §17).
    std::uint32_t member_row(std::size_t i) const noexcept {
        return slot_handles_[order_[i]].index;
    }

    ConstSolutionView operator[](std::size_t i) const {
        return pool_->view(slot_handles_[order_[i]]);
    }

    /// All archived solutions (ε-Pareto set approximation), as owning
    /// copies materialized out of the pool.
    std::vector<Solution> solutions() const;

    /// All archived objective vectors, e.g. for metric computation.
    std::vector<std::vector<double>> objective_vectors() const;

    const std::vector<double>& epsilons() const noexcept { return epsilons_; }

    /// Monotone counter of ε-progress events (new boxes occupied) since
    /// construction. Restart logic diffs this across a window.
    std::uint64_t epsilon_progress() const noexcept { return progress_; }

    /// Monotone counter of accepted insertions (new box or same-box win).
    std::uint64_t improvements() const noexcept { return improvements_; }

    /// Order-independent digest of the current front: a finalized
    /// wrap-around sum of per-member FNV-1a objective-row hashes, mixed
    /// with the member count. Maintained incrementally — O(changed
    /// members) per add/evict, O(1) to read — so trajectory recording can
    /// fingerprint the front without walking it. Restoring the same
    /// member set into a fresh archive reproduces the same digest
    /// (membership defines it, not insertion history).
    std::uint64_t front_digest() const noexcept;

    /// Number of archive members attributed to each operator index; used by
    /// the adaptive operator selector. \p num_operators sizes the result;
    /// members with kNoOperator are counted in no bucket.
    std::vector<std::size_t> operator_counts(std::size_t num_operators) const;

    /// Allocation-free variant: fills \p counts (resized to
    /// \p num_operators) instead of returning a fresh vector.
    void operator_counts_into(std::vector<std::size_t>& counts,
                              std::size_t num_operators) const;

    void clear() noexcept;

    /// Checkpoint restore: installs \p solutions directly, preserving
    /// order — they are already mutually ε-nondominated, so replaying them
    /// through add() would only re-run (and, on corner-distance ties,
    /// misresolve) contests that were settled when they entered the
    /// archive. Overwrites the progress counters with the saved values.
    void restore(const std::vector<Solution>& solutions,
                 std::uint64_t progress, std::uint64_t improvements);

private:
    SolutionPool& pool_for(ConstSolutionView exemplar);
    ConstSolutionView member_view(std::uint32_t slot) const {
        return pool_->view(slot_handles_[slot]);
    }
    /// Shared implementation of add()/add_owned(): \p owned is the handle
    /// to adopt on acceptance, or null for the copying path. When non-null,
    /// \p solution views that same row.
    ArchiveAdd do_add(ConstSolutionView solution, SolutionHandle owned);
    void discard(SolutionHandle owned);
    /// FNV-1a over the objective bytes; the front digest is the wrap-sum
    /// of this over all members.
    static std::uint64_t row_hash(std::span<const double> objectives) noexcept;

    std::uint32_t allocate_slot();
    void release_slot(std::uint32_t slot);
    /// Installs an already-boxed candidate as a fresh member (no contests).
    void install(ConstSolutionView solution, SolutionHandle owned);
    void reset_structures() noexcept;
    /// Fills scratch_box_ and scratch_box_values_ with the ε-box of
    /// \p objectives.
    void compute_box(std::span<const double> objectives);
    /// True iff \p slot's box equals scratch_box_.
    bool same_box(std::uint32_t slot) const {
        for (std::size_t j = 0; j < scratch_box_values_.size(); ++j)
            if (boxes_.value(slot, j) != scratch_box_values_[j]) return false;
        return true;
    }

    std::vector<double> epsilons_;

    // Member payloads are SolutionPool rows addressed through stable slot
    // ids: slots never move while a member lives, and the dominance pass
    // touches only the box mirror — never the payloads.
    SolutionPool* pool_ = nullptr;          ///< shared (or = owned_pool_)
    std::unique_ptr<SolutionPool> owned_pool_;
    std::vector<SolutionHandle> slot_handles_;
    /// Row = slot: ε-box coordinates as doubles, violation 0; free slots
    /// are NaN, so they never dominate and are never evicted.
    DominanceTiles boxes_;
    std::vector<std::int64_t> slot_sum_;     ///< Σ box coords
    std::vector<std::uint64_t> slot_install_; ///< install() stamp
    std::vector<std::uint8_t> slot_evicted_; ///< transient compaction marks
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_install_ = 0;

    /// Iteration order: order_[i] is the slot of the i-th member.
    std::vector<std::uint32_t> order_;

    // Reusable scratch: the steady-state add path allocates nothing.
    std::vector<std::int64_t> scratch_box_;
    std::vector<double> scratch_box_values_;     ///< scratch_box_ as doubles
    std::vector<std::uint64_t> scratch_bits_;    ///< kernel output per slot
    std::vector<std::uint32_t> scratch_evicted_; ///< slots evicted this add

    /// Wrap-around sum of row_hash() over current members (commutative,
    /// so eviction subtracts what installation added).
    std::uint64_t digest_sum_ = 0;

    std::uint64_t progress_ = 0;
    std::uint64_t improvements_ = 0;
};

/// The production archive type used throughout the algorithm.
using EpsilonBoxArchive = ArchiveEngine;

/// The original linear-scan archive, kept as the reference oracle the
/// engine is pinned against (same role as HvAlgo::naive for the
/// hypervolume engine). O(n·m) per add; allocates a box per insertion.
/// Do not "optimize" this class — its value is being obviously correct.
class NaiveArchive {
public:
    explicit NaiveArchive(std::vector<double> epsilons);

    ArchiveAdd add(const Solution& solution);
    ArchiveBatchResult add_all(std::span<const Solution> batch);

    std::size_t size() const noexcept { return entries_.size(); }
    bool empty() const noexcept { return entries_.empty(); }

    const Solution& operator[](std::size_t i) const {
        return entries_[i].solution;
    }

    std::vector<Solution> solutions() const;
    std::vector<std::vector<double>> objective_vectors() const;

    const std::vector<double>& epsilons() const noexcept { return epsilons_; }
    std::uint64_t epsilon_progress() const noexcept { return progress_; }
    std::uint64_t improvements() const noexcept { return improvements_; }

    std::vector<std::size_t> operator_counts(std::size_t num_operators) const;

    void clear() noexcept;

    void restore(const std::vector<Solution>& solutions,
                 std::uint64_t progress, std::uint64_t improvements);

private:
    struct Entry {
        Solution solution;
        std::vector<std::int64_t> box;
    };

    std::vector<double> epsilons_;
    std::vector<Entry> entries_;
    std::uint64_t progress_ = 0;
    std::uint64_t improvements_ = 0;
};

} // namespace borg::moea

#endif
