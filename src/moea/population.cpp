#include "moea/population.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace borg::moea {

Population::Population(std::size_t target_size) : target_size_(target_size) {
    if (target_size == 0)
        throw std::invalid_argument("population: target size must be >= 1");
    members_.reserve(target_size);
}

Population::Population(SolutionPool& pool, std::size_t target_size)
    : Population(target_size) {
    pool_ = &pool;
}

Population::~Population() { clear(); }

SolutionPool& Population::pool_for(ConstSolutionView exemplar) {
    if (pool_ == nullptr) {
        owned_pool_ = std::make_unique<SolutionPool>(
            exemplar.variables.size(), exemplar.objectives.size(),
            exemplar.constraints.size());
        pool_ = owned_pool_.get();
    }
    return *pool_;
}

void Population::set_target_size(std::size_t target) {
    if (target == 0)
        throw std::invalid_argument("population: target size must be >= 1");
    target_size_ = target;
}

void Population::clear() noexcept {
    if (pool_ != nullptr)
        for (const SolutionHandle h : members_) pool_->release(h);
    members_.clear();
    mirror_.reset(mirror_.num_objectives());
    rows_.reset(rows_.num_objectives());
}

void Population::cache_member(std::size_t i) {
    const ConstSolutionView member = pool_->view(members_[i]);
    const double violation = member.total_violation();
    if (mirror_.size() == 0) {
        mirror_.reset(member.objectives.size());
        rows_.reset(member.objectives.size());
    }
    if (mirror_.size() <= i) {
        mirror_.resize(i + 1);
        rows_.resize(i + 1);
    }
    mirror_.set_row(i, member.objectives, violation);
    rows_.set_row(i, member.objectives, violation);
}

bool Population::inject(ConstSolutionView offspring, util::Rng& rng,
                        std::uint32_t* member_row) {
    if (!offspring.evaluated)
        throw std::invalid_argument("population: offspring not evaluated");

    SolutionPool& pool = pool_for(offspring);
    if (members_.size() < target_size_) {
        members_.push_back(pool.store(offspring));
        cache_member(members_.size() - 1);
        if (member_row != nullptr) *member_row = members_.back().index;
        return true;
    }

    // One kernel pass over the mirror: the members the offspring
    // dominates (a bitmask) and whether any member dominates the
    // offspring. Replacement of a dominated member takes precedence over
    // rejection (both can hold at once when the population carries
    // mutually dominated members), keeping the rule order-independent.
    // The victim is a uniform draw among the dominated members, taken as
    // that set bit in index order.
    const bool offspring_dominated = mirror_.scan(
        offspring.objectives, offspring.total_violation(), dominated_bits_);
    std::size_t dominated = 0;
    for (const std::uint64_t word : dominated_bits_)
        dominated += static_cast<std::size_t>(std::popcount(word));
    if (dominated == 0 && offspring_dominated) return false;
    std::size_t victim = 0;
    if (dominated != 0) {
        auto k = static_cast<std::size_t>(rng.below(dominated));
        const std::uint64_t* word = dominated_bits_.data();
        for (; k >= static_cast<std::size_t>(std::popcount(*word)); ++word)
            k -= static_cast<std::size_t>(std::popcount(*word));
        std::uint64_t bits = *word;
        for (; k > 0; --k) bits &= bits - 1;
        victim = static_cast<std::size_t>(word - dominated_bits_.data()) * 64 +
                 static_cast<std::size_t>(std::countr_zero(bits));
    } else {
        victim = static_cast<std::size_t>(rng.below(members_.size()));
    }
    pool.copy_payload(members_[victim], offspring);
    cache_member(victim);
    if (member_row != nullptr) *member_row = members_[victim].index;
    return true;
}

void Population::append(ConstSolutionView solution) {
    members_.push_back(pool_for(solution).store(solution));
    cache_member(members_.size() - 1);
}

void Population::restore(const std::vector<Solution>& members,
                         std::size_t target) {
    set_target_size(target);
    clear();
    members_.reserve(members.size());
    for (const Solution& s : members) {
        members_.push_back(pool_for(s).store(s));
        cache_member(members_.size() - 1);
    }
}

std::span<const std::uint64_t> Population::draw_contestants(
    std::size_t tournament_size, util::Rng& rng) const {
    // Nothing else draws between a tournament's contestants, so drawing
    // them all up front in one batch leaves the stream unchanged.
    contestants_.resize(std::max<std::size_t>(tournament_size, 1));
    rng.below(members_.size(), contestants_);
    return contestants_;
}

std::size_t Population::tournament_pick(std::size_t tournament_size,
                                        util::Rng& rng) const {
    return rows_.tournament(draw_contestants(tournament_size, rng));
}

std::size_t Population::tournament_pick_index(std::size_t tournament_size,
                                              util::Rng& rng) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    return tournament_pick(tournament_size, rng);
}

std::size_t Population::tournament_pick_freq(
    std::size_t tournament_size, util::Rng& rng,
    std::span<const std::uint32_t> counts_by_row) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    const auto count_of = [&](std::size_t idx) -> std::uint32_t {
        const std::uint32_t row = members_[idx].index;
        return row < counts_by_row.size() ? counts_by_row[row] : 0u;
    };
    const auto contestants = draw_contestants(tournament_size, rng);
    std::size_t best = contestants[0];
    std::uint32_t best_count = count_of(best);
    for (const std::uint64_t idx : contestants.subspan(1)) {
        const Dominance result = rows_.compare_rows(idx, best);
        const bool wins =
            result == Dominance::kDominates ||
            (result == Dominance::kNondominated &&
             count_of(idx) < best_count);
        if (wins) {
            best = idx;
            best_count = count_of(best);
        }
    }
    return best;
}

std::vector<Solution> Population::materialize_members() const {
    std::vector<Solution> out;
    out.reserve(members_.size());
    for (const SolutionHandle h : members_)
        out.push_back(pool_->materialize(h));
    return out;
}

} // namespace borg::moea
