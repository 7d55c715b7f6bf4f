#include "moea/epsilon_archive.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace borg::moea {

namespace {

void validate_epsilons(const std::vector<double>& epsilons) {
    if (epsilons.empty())
        throw std::invalid_argument("archive: empty epsilon vector");
    for (const double e : epsilons)
        if (!(e > 0.0))
            throw std::invalid_argument("archive: epsilons must be positive");
}

void validate_candidate(ConstSolutionView solution,
                        const std::vector<double>& epsilons) {
    if (!solution.evaluated || solution.objectives.size() != epsilons.size())
        throw std::invalid_argument(
            "archive: unevaluated or wrong-arity solution");
}

} // namespace

// ---------------------------------------------------------------------------
// ArchiveEngine
// ---------------------------------------------------------------------------

ArchiveEngine::ArchiveEngine(std::vector<double> epsilons)
    : epsilons_(std::move(epsilons)) {
    validate_epsilons(epsilons_);
    scratch_box_.assign(epsilons_.size(), 0);
    scratch_box_values_.assign(epsilons_.size(), 0.0);
    boxes_.reset(epsilons_.size());
}

ArchiveEngine::ArchiveEngine(SolutionPool& pool, std::vector<double> epsilons)
    : ArchiveEngine(std::move(epsilons)) {
    pool_ = &pool;
}

ArchiveEngine::~ArchiveEngine() { reset_structures(); }

SolutionPool& ArchiveEngine::pool_for(ConstSolutionView exemplar) {
    if (pool_ == nullptr) {
        owned_pool_ = std::make_unique<SolutionPool>(
            exemplar.variables.size(), exemplar.objectives.size(),
            exemplar.constraints.size());
        pool_ = owned_pool_.get();
    }
    return *pool_;
}

std::uint64_t ArchiveEngine::row_hash(
    std::span<const double> objectives) noexcept {
    std::uint64_t h = 14695981039346656037ull; // FNV-1a offset basis
    for (const double v : objectives) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull; // FNV prime
        }
    }
    return h;
}

std::uint64_t ArchiveEngine::front_digest() const noexcept {
    // splitmix64 finalizer over the commutative member-hash sum and the
    // member count (the count mix distinguishes fronts whose row hashes
    // cancel, e.g. empty vs. any set summing to zero).
    std::uint64_t x =
        digest_sum_ + 0x9e3779b97f4a7c15ull * (order_.size() + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

std::uint32_t ArchiveEngine::allocate_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slot_handles_.emplace_back();
    boxes_.resize(slot_handles_.size());
    slot_sum_.push_back(0);
    slot_install_.push_back(0);
    slot_evicted_.push_back(0);
    return static_cast<std::uint32_t>(slot_handles_.size() - 1);
}

void ArchiveEngine::release_slot(std::uint32_t slot) {
    // The slot's entries stay allocated for reuse; its box row turns NaN
    // (so the dominance scan passes over it) and the payload row returns
    // to the pool so evicted solutions do not linger.
    digest_sum_ -= row_hash(pool_->objectives(slot_handles_[slot]));
    pool_->release(slot_handles_[slot]);
    slot_handles_[slot] = SolutionHandle{};
    boxes_.clear_row(slot);
    free_slots_.push_back(slot);
}

void ArchiveEngine::reset_structures() noexcept {
    for (const SolutionHandle h : slot_handles_)
        if (!h.is_null()) pool_->release(h);
    slot_handles_.clear();
    boxes_.reset(epsilons_.size());
    slot_sum_.clear();
    slot_install_.clear();
    slot_evicted_.clear();
    free_slots_.clear();
    order_.clear();
    digest_sum_ = 0;
}

void ArchiveEngine::install(ConstSolutionView solution, SolutionHandle owned) {
    // Precondition: scratch_box_/scratch_box_values_ hold the candidate's
    // ε-box.
    const std::uint32_t slot = allocate_slot();
    slot_handles_[slot] =
        owned.is_null() ? pool_for(solution).store(solution) : owned;
    digest_sum_ += row_hash(pool_->objectives(slot_handles_[slot]));
    boxes_.set_row(slot, scratch_box_values_, 0.0);
    std::int64_t sum = 0;
    for (const std::int64_t c : scratch_box_) sum += c;
    slot_sum_[slot] = sum;
    slot_install_[slot] = next_install_++;
    order_.push_back(slot);
}

void ArchiveEngine::compute_box(std::span<const double> objectives) {
    epsilon_box_into(objectives, epsilons_, scratch_box_);
    for (std::size_t i = 0; i < scratch_box_.size(); ++i)
        scratch_box_values_[i] = static_cast<double>(scratch_box_[i]);
}

void ArchiveEngine::discard(SolutionHandle owned) {
    if (!owned.is_null()) pool_->release(owned);
}

ArchiveAdd ArchiveEngine::add(ConstSolutionView solution) {
    return do_add(solution, SolutionHandle{});
}

ArchiveAdd ArchiveEngine::add_owned(SolutionHandle handle) {
    if (pool_ == nullptr)
        throw std::logic_error("archive: add_owned requires a shared pool");
    return do_add(pool_->view(handle), handle);
}

ArchiveAdd ArchiveEngine::do_add(ConstSolutionView solution,
                                 SolutionHandle owned) {
    validate_candidate(solution, epsilons_);

    // Constraint handling: the archive stores the feasible ε-front. While
    // no feasible solution has ever been seen, it instead carries the
    // single least-violating solution so search has an anchor; the first
    // feasible arrival evicts it.
    if (!solution.feasible()) {
        const bool infeasible_phase =
            !order_.empty() && !member_view(order_[0]).feasible();
        if (!order_.empty() && !infeasible_phase) {
            discard(owned);
            return ArchiveAdd::kRejected; // feasible members always win
        }
        if (!order_.empty() &&
            solution.total_violation() >=
                member_view(order_[0]).total_violation()) {
            discard(owned);
            return ArchiveAdd::kRejected;
        }
        reset_structures(); // releases members only, never the candidate row
        compute_box(solution.objectives);
        install(solution, owned);
        ++improvements_;
        ++progress_; // violation improved: counts as search progress
        return ArchiveAdd::kAddedNewBox;
    }
    if (!order_.empty() && !member_view(order_[0]).feasible()) {
        // First feasible solution: the infeasible anchor is obsolete.
        reset_structures();
    }

    compute_box(solution.objectives);

    // One kernel pass over every slot's box row (free slots are NaN and
    // take no part), stopping at the first member whose box dominates or
    // equals the candidate's. Members are mutually box-nondominated, so a
    // member in the candidate's box rules out any member that dominates
    // the candidate and any it dominates: the first covering member
    // either shares the box — the corner-distance contest alone decides —
    // or dominates the candidate. With no covering member, the pass's
    // bitmask is the eviction set.
    const std::size_t cover =
        boxes_.cover(scratch_box_values_, 0.0, scratch_bits_);
    if (cover < boxes_.size()) {
        const auto slot = static_cast<std::uint32_t>(cover);
        const bool wins =
            same_box(slot) &&
            distance_to_box_corner(solution.objectives, scratch_box_,
                                   epsilons_) <
                distance_to_box_corner(member_view(slot).objectives,
                                       scratch_box_, epsilons_);
        if (!wins) {
            discard(owned);
            return ArchiveAdd::kRejected;
        }
        // The winner inherits the incumbent's slot — box row, sum and
        // install stamp stay valid — but moves to the back of the
        // iteration order, matching the naive drop-and-append.
        digest_sum_ -= row_hash(member_view(slot).objectives);
        if (owned.is_null()) {
            pool_->copy_payload(slot_handles_[slot], solution);
        } else {
            pool_->release(slot_handles_[slot]);
            slot_handles_[slot] = owned;
        }
        digest_sum_ += row_hash(member_view(slot).objectives);
        order_.erase(std::find(order_.begin(), order_.end(), slot));
        order_.push_back(slot);
        ++improvements_;
        return ArchiveAdd::kReplacedSameBox;
    }

    scratch_evicted_.clear();
    for_each_set_bit(scratch_bits_, [this](std::size_t slot) {
        scratch_evicted_.push_back(static_cast<std::uint32_t>(slot));
    });

    if (!scratch_evicted_.empty()) {
        // Evicted rows go back to the pool largest box sum first, the
        // oldest install first among equal sums. The pool recycles rows
        // LIFO, so this order decides which rows later offspring get.
        std::sort(scratch_evicted_.begin(), scratch_evicted_.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      if (slot_sum_[a] != slot_sum_[b])
                          return slot_sum_[a] > slot_sum_[b];
                      return slot_install_[a] < slot_install_[b];
                  });
        for (const std::uint32_t slot : scratch_evicted_)
            slot_evicted_[slot] = 1;
        std::erase_if(order_, [&](std::uint32_t s) {
            return slot_evicted_[s] != 0;
        });
        for (const std::uint32_t slot : scratch_evicted_) {
            slot_evicted_[slot] = 0;
            release_slot(slot);
        }
    }

    install(solution, owned);
    ++improvements_;
    ++progress_;
    return ArchiveAdd::kAddedNewBox;
}

ArchiveBatchResult ArchiveEngine::add_all(std::span<const Solution> batch) {
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

std::vector<Solution> ArchiveEngine::solutions() const {
    std::vector<Solution> out;
    out.reserve(order_.size());
    for (const std::uint32_t slot : order_)
        out.push_back(pool_->materialize(slot_handles_[slot]));
    return out;
}

std::vector<std::vector<double>> ArchiveEngine::objective_vectors() const {
    std::vector<std::vector<double>> out;
    out.reserve(order_.size());
    for (const std::uint32_t slot : order_) {
        const auto objectives = pool_->objectives(slot_handles_[slot]);
        out.emplace_back(objectives.begin(), objectives.end());
    }
    return out;
}

std::vector<std::size_t> ArchiveEngine::operator_counts(
    std::size_t num_operators) const {
    std::vector<std::size_t> counts;
    operator_counts_into(counts, num_operators);
    return counts;
}

void ArchiveEngine::operator_counts_into(std::vector<std::size_t>& counts,
                                         std::size_t num_operators) const {
    counts.assign(num_operators, 0);
    for (const std::uint32_t slot : order_) {
        const int op = pool_->operator_index(slot_handles_[slot]);
        if (op >= 0 && static_cast<std::size_t>(op) < num_operators)
            ++counts[static_cast<std::size_t>(op)];
    }
}

void ArchiveEngine::clear() noexcept { reset_structures(); }

void ArchiveEngine::restore(const std::vector<Solution>& solutions,
                            std::uint64_t progress,
                            std::uint64_t improvements) {
    reset_structures();
    for (const Solution& s : solutions) {
        validate_candidate(s, epsilons_);
        compute_box(s.objectives);
        install(s, SolutionHandle{});
    }
    progress_ = progress;
    improvements_ = improvements;
}

// ---------------------------------------------------------------------------
// NaiveArchive — the frozen reference implementation.
// ---------------------------------------------------------------------------

NaiveArchive::NaiveArchive(std::vector<double> epsilons)
    : epsilons_(std::move(epsilons)) {
    validate_epsilons(epsilons_);
}

ArchiveAdd NaiveArchive::add(const Solution& solution) {
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

ArchiveBatchResult NaiveArchive::add_all(std::span<const Solution> batch) {
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

std::vector<Solution> NaiveArchive::solutions() const {
    std::vector<Solution> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.solution);
    return out;
}

std::vector<std::vector<double>> NaiveArchive::objective_vectors() const {
    std::vector<std::vector<double>> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.solution.objectives);
    return out;
}

std::vector<std::size_t> NaiveArchive::operator_counts(
    std::size_t num_operators) const {
    std::vector<std::size_t> counts(num_operators, 0);
    for (const Entry& e : entries_) {
        const int op = e.solution.operator_index;
        if (op >= 0 && static_cast<std::size_t>(op) < num_operators)
            ++counts[static_cast<std::size_t>(op)];
    }
    return counts;
}

void NaiveArchive::clear() noexcept { entries_.clear(); }

void NaiveArchive::restore(const std::vector<Solution>& solutions,
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
