#include "moea/borg.hpp"

#include <stdexcept>

#include "moea/selection.hpp"

namespace borg::moea {

BorgParams BorgParams::for_problem(const problems::Problem& problem,
                                   double epsilon) {
    BorgParams params;
    params.epsilons.assign(problem.num_objectives(), epsilon);
    return params;
}

BorgMoea::BorgMoea(const problems::Problem& problem, BorgParams params,
                   std::uint64_t seed)
    : problem_(problem),
      params_(std::move(params)),
      rng_(seed),
      pool_(problem),
      operators_(make_borg_operators(problem)),
      restart_mutation_(problem),
      archive_(pool_, params_.epsilons),
      population_(pool_, params_.initial_population_size),
      selector_(operators_.size(), params_.selector_zeta,
                params_.selector_update_frequency),
      controller_(params_.restart),
      operator_usage_(operators_.size(), 0) {
    if (params_.epsilons.size() != problem.num_objectives())
        throw std::invalid_argument("borg: epsilons size != num objectives");
    if (params_.initial_population_size == 0)
        throw std::invalid_argument("borg: initial population size == 0");
    if (params_.forced_operator >=
        static_cast<int>(operators_.size()))
        throw std::invalid_argument("borg: forced operator out of range");
    // Row recycling must reset selection counters and reach any attached
    // SelectionObserver; with neither in play the hook is one dead branch
    // per acquire.
    pool_.set_row_observer(this);
}

void BorgMoea::on_row_reset(std::uint32_t index) {
    if (index < selection_counts_.size()) selection_counts_[index] = 0;
    if (selection_observer_ != nullptr)
        selection_observer_->on_row_reset(index);
}

std::vector<std::string> BorgMoea::operator_names() const {
    std::vector<std::string> names;
    names.reserve(operators_.size());
    for (const auto& op : operators_) names.push_back(op->name());
    return names;
}

std::size_t BorgMoea::pick_operator() {
    if (params_.forced_operator >= 0)
        return static_cast<std::size_t>(params_.forced_operator);
    if (!params_.enable_adaptation)
        return static_cast<std::size_t>(rng_.below(operators_.size()));
    return selector_.select(archive_, rng_);
}

SolutionHandle BorgMoea::make_restart_mutant_handle() {
    --pending_restart_mutants_;
    const auto idx = static_cast<std::size_t>(rng_.below(archive_.size()));
    const ConstSolutionView seed = archive_[idx];
    const SolutionHandle handle = pool_.acquire();
    parent_scratch_.clear();
    parent_scratch_.emplace_back(seed.variables);
    restart_mutation_.apply_into(parent_scratch_, rng_,
                                 pool_.variables_mut(handle));
    // Restart mutants are injection, not operator search: they carry no
    // operator credit so they cannot skew the auto-adaptation.
    pool_.set_operator_index(handle, kNoOperator);
    ++issued_;
    return handle;
}

SolutionHandle BorgMoea::next_offspring_handle() {
    // Initialization phase, and the fallback before any result has ever
    // come back (an asynchronous master with many workers can be asked for
    // far more offspring than the initial population before the first
    // result returns).
    if (issued_ < params_.initial_population_size || population_.empty()) {
        ++issued_;
        const SolutionHandle handle = pool_.acquire();
        random_solution_into(problem_, rng_, pool_, handle);
        return handle;
    }

    if (pending_restart_mutants_ > 0 && !archive_.empty())
        return make_restart_mutant_handle();

    const std::size_t op = pick_operator();
    Variation& variation = *operators_[op];

    // Parents are drawn with replacement, so operators receive their full
    // arity even while the population is still tiny (early asynchronous
    // starts); duplicated parents degenerate gracefully inside each
    // operator. The parent spans point into the pool; acquiring the
    // offspring row cannot invalidate them (pool blocks never move).
    if (params_.frequency_selection) {
        select_parents_freq_into(parent_scratch_, variation.arity(), archive_,
                                 population_,
                                 controller_.tournament_size(population_),
                                 rng_, selection_counts_,
                                 parent_rows_scratch_);
        // One increment per parent slot (a parent drawn twice counts
        // twice), applied after the whole draw so within-offspring ties
        // are broken on the pre-draw counts.
        for (const std::uint32_t row : parent_rows_scratch_) {
            if (row >= selection_counts_.size())
                selection_counts_.resize(row + 1, 0);
            ++selection_counts_[row];
        }
    } else {
        // The rows out-param changes no draws; recover parent identities
        // only when someone is listening.
        select_parents_into(parent_scratch_, variation.arity(), archive_,
                            population_,
                            controller_.tournament_size(population_), rng_,
                            selection_observer_ != nullptr
                                ? &parent_rows_scratch_
                                : nullptr);
    }
    if (selection_observer_ != nullptr)
        for (const std::uint32_t row : parent_rows_scratch_)
            selection_observer_->on_parent_row(row);

    const SolutionHandle handle = pool_.acquire();
    variation.apply_into(parent_scratch_, rng_, pool_.variables_mut(handle));
    pool_.set_operator_index(handle, static_cast<int>(op));
    ++operator_usage_[op];
    ++issued_;
    return handle;
}

void BorgMoea::maybe_restart() {
    if (params_.enable_restarts &&
        controller_.should_restart(archive_, population_)) {
        pending_restart_mutants_ +=
            controller_.perform_restart(archive_, population_);
        selector_.invalidate();
    }
}

void BorgMoea::receive_handle(SolutionHandle handle) {
    const ConstSolutionView view = pool_.view(handle);
    if (!view.evaluated)
        throw std::invalid_argument("borg: received unevaluated solution");
    ++received_;

    std::uint32_t member_row = SolutionHandle::kNullIndex;
    population_.inject(view, rng_,
                       selection_observer_ != nullptr ? &member_row : nullptr);
    if (selection_observer_ != nullptr &&
        member_row != SolutionHandle::kNullIndex)
        selection_observer_->on_row_copied(handle.index, member_row);
    archive_.add_owned(handle);

    maybe_restart();
}

void run_serial(BorgMoea& algorithm, const problems::Problem& problem,
                std::uint64_t max_evaluations,
                const std::function<void(std::uint64_t)>& on_evaluation) {
    while (algorithm.evaluations() < max_evaluations) {
        const SolutionHandle handle = algorithm.next_offspring_handle();
        evaluate(problem, algorithm.pool(), handle);
        algorithm.receive_handle(handle);
        if (on_evaluation) on_evaluation(algorithm.evaluations());
    }
}

} // namespace borg::moea
