#ifndef BORG_TESTS_NAIVE_ARCHIVE_HPP
#define BORG_TESTS_NAIVE_ARCHIVE_HPP

/// \file naive_archive.hpp
/// Test-only oracle for moea::ArchiveEngine (src/moea/epsilon_archive.hpp):
/// the original linear-scan ε-box archive, kept verbatim. It shares the
/// engine's contract — verdicts, membership, iteration order (insertion
/// order, stable under eviction, same-box winners re-appended at the end)
/// and counters — so tests/test_epsilon_archive.cpp and bench/micro_archive
/// pin the engine against it on any stream.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "moea/dominance.hpp"
#include "moea/epsilon_archive.hpp"
#include "moea/solution.hpp"

namespace borg::moea {

/// The original linear-scan archive, kept as the reference oracle the
/// engine is pinned against (same role as hypervolume_naive() for the
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
    static void validate_epsilons(const std::vector<double>& epsilons) {
        if (epsilons.empty())
            throw std::invalid_argument("archive: empty epsilon vector");
        for (const double e : epsilons)
            if (!(e > 0.0))
                throw std::invalid_argument(
                    "archive: epsilons must be positive");
    }

    static void validate_candidate(const Solution& solution,
                                   const std::vector<double>& epsilons) {
        if (!solution.evaluated ||
            solution.objectives.size() != epsilons.size())
            throw std::invalid_argument(
                "archive: unevaluated or wrong-arity solution");
    }

    struct Entry {
        Solution solution;
        std::vector<double> box;
    };

    std::vector<double> epsilons_;
    std::vector<Entry> entries_;
    std::uint64_t progress_ = 0;
    std::uint64_t improvements_ = 0;
};

inline NaiveArchive::NaiveArchive(std::vector<double> epsilons)
    : epsilons_(std::move(epsilons)) {
    validate_epsilons(epsilons_);
}

inline ArchiveAdd NaiveArchive::add(const Solution& solution) {
    validate_candidate(solution, epsilons_);

    if (!solution.feasible()) {
        const bool infeasible_phase =
            !entries_.empty() && !entries_[0].solution.feasible();
        if (!entries_.empty() && !infeasible_phase)
            return ArchiveAdd::kRejected; // feasible members always win
        if (!entries_.empty() &&
            solution.total_violation() >=
                entries_[0].solution.total_violation())
            return ArchiveAdd::kRejected;
        entries_.clear();
        entries_.push_back(
            Entry{solution, epsilon_box(solution.objectives, epsilons_)});
        ++improvements_;
        ++progress_; // violation improved: counts as search progress
        return ArchiveAdd::kAddedNewBox;
    }
    if (!entries_.empty() && !entries_[0].solution.feasible()) {
        // First feasible solution: the infeasible anchor is obsolete.
        entries_.clear();
    }

    const auto box = epsilon_box(solution.objectives, epsilons_);

    // Single pass: detect rejection, same-box contests, and evictions.
    bool same_box_win = false;
    std::size_t write = 0;
    for (std::size_t read = 0; read < entries_.size(); ++read) {
        Entry& entry = entries_[read];
        const Dominance rel = compare_boxes(box, entry.box);
        if (rel == Dominance::kDominatedBy) {
            // An existing member ε-dominates the candidate: reject. No
            // eviction can have happened before a dominator is found
            // (dominance of boxes is a partial order: if the candidate's box
            // dominated an earlier member's box, no member's box can
            // dominate the candidate's), so the archive is untouched.
            return ArchiveAdd::kRejected;
        }
        if (rel == Dominance::kEqual) {
            // Same box: the solution nearer the box corner wins.
            const double d_new = distance_to_box_corner(solution.objectives,
                                                        box, epsilons_);
            const double d_old = distance_to_box_corner(
                entry.solution.objectives, entry.box, epsilons_);
            if (d_new < d_old) {
                same_box_win = true;
                continue; // drop the incumbent
            }
            return ArchiveAdd::kRejected;
        }
        if (rel == Dominance::kDominates) continue; // evict dominated member
        if (write != read) entries_[write] = std::move(entries_[read]);
        ++write;
    }
    entries_.resize(write);
    entries_.push_back(Entry{solution, box});

    ++improvements_;
    if (!same_box_win) {
        ++progress_;
        return ArchiveAdd::kAddedNewBox;
    }
    return ArchiveAdd::kReplacedSameBox;
}

inline ArchiveBatchResult NaiveArchive::add_all(std::span<const Solution> batch) {
    ArchiveBatchResult result;
    for (const Solution& s : batch) {
        switch (add(s)) {
        case ArchiveAdd::kAddedNewBox: ++result.added_new_box; break;
        case ArchiveAdd::kReplacedSameBox: ++result.replaced_same_box; break;
        case ArchiveAdd::kRejected: ++result.rejected; break;
        }
    }
    return result;
}

inline std::vector<Solution> NaiveArchive::solutions() const {
    std::vector<Solution> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.solution);
    return out;
}

inline std::vector<std::vector<double>> NaiveArchive::objective_vectors() const {
    std::vector<std::vector<double>> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.solution.objectives);
    return out;
}

inline std::vector<std::size_t> NaiveArchive::operator_counts(
    std::size_t num_operators) const {
    std::vector<std::size_t> counts(num_operators, 0);
    for (const Entry& e : entries_) {
        const int op = e.solution.operator_index;
        if (op >= 0 && static_cast<std::size_t>(op) < num_operators)
            ++counts[static_cast<std::size_t>(op)];
    }
    return counts;
}

inline void NaiveArchive::clear() noexcept { entries_.clear(); }

inline void NaiveArchive::restore(const std::vector<Solution>& solutions,
                           std::uint64_t progress,
                           std::uint64_t improvements) {
    entries_.clear();
    for (const Solution& s : solutions) {
        validate_candidate(s, epsilons_);
        entries_.push_back(
            Entry{s, epsilon_box(s.objectives, epsilons_)});
    }
    progress_ = progress;
    improvements_ = improvements;
}

} // namespace borg::moea

#endif
