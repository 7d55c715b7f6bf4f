#include "parallel/time_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace borg::parallel {

// -------------------------------------------------------------- per-worker

PerWorkerTimeModel::PerWorkerTimeModel(
    std::vector<std::unique_ptr<stats::Distribution>> per_worker)
    : per_worker_(std::move(per_worker)) {
    if (per_worker_.empty())
        throw std::invalid_argument("per-worker time model: no workers");
    for (const auto& dist : per_worker_)
        if (!dist)
            throw std::invalid_argument(
                "per-worker time model: null distribution");
}

std::unique_ptr<PerWorkerTimeModel> PerWorkerTimeModel::straggler_fleet(
    std::size_t workers, const stats::Distribution& body,
    const stats::Distribution& tail, std::size_t every) {
    if (workers == 0)
        throw std::invalid_argument("straggler fleet: no workers");
    if (every == 0)
        throw std::invalid_argument("straggler fleet: every == 0");
    std::vector<std::unique_ptr<stats::Distribution>> dists;
    dists.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        dists.push_back(w % every == 0 ? tail.clone() : body.clone());
    return std::make_unique<PerWorkerTimeModel>(std::move(dists));
}

double PerWorkerTimeModel::sample(util::Rng& rng,
                                  const TimeSampleContext& ctx) {
    if (ctx.worker >= per_worker_.size())
        throw std::out_of_range("per-worker time model: worker index " +
                                std::to_string(ctx.worker) + " >= fleet " +
                                std::to_string(per_worker_.size()));
    return per_worker_[ctx.worker]->sample(rng);
}

std::string PerWorkerTimeModel::describe() const {
    return "per_worker(" + std::to_string(per_worker_.size()) + " nodes, [0]=" +
           per_worker_[0]->describe() + ")";
}

// ---------------------------------------------------------------- episodic

EpisodicSlowdownTimeModel::EpisodicSlowdownTimeModel(
    const stats::Distribution* base, std::size_t workers, double mean_normal,
    double mean_slow, double slowdown)
    : base_(base), mean_normal_(mean_normal), mean_slow_(mean_slow),
      slowdown_(slowdown), states_(workers) {
    if (base_ == nullptr)
        throw std::invalid_argument("episodic time model: null distribution");
    if (workers == 0)
        throw std::invalid_argument("episodic time model: no workers");
    if (!(mean_normal > 0.0) || !(mean_slow > 0.0))
        throw std::invalid_argument(
            "episodic time model: phase means must be positive");
    if (!(slowdown >= 1.0))
        throw std::invalid_argument("episodic time model: slowdown < 1");
}

double EpisodicSlowdownTimeModel::sample(util::Rng& rng,
                                         const TimeSampleContext& ctx) {
    if (ctx.worker >= states_.size())
        throw std::out_of_range("episodic time model: worker index " +
                                std::to_string(ctx.worker) + " >= fleet " +
                                std::to_string(states_.size()));
    WorkerState& state = states_[ctx.worker];
    // Lazy phase advance: catch the worker's on/off process up to `now`,
    // drawing each phase duration from the same group stream as the T_F
    // draw itself — transitions happen at deterministic (seed-reproducible)
    // times because `now` is part of the deterministic schedule.
    const auto phase_duration = [&](bool slow) {
        const double mean = slow ? mean_slow_ : mean_normal_;
        return -mean * std::log(1.0 - rng.uniform());
    };
    if (!state.started) {
        state.started = true;
        state.until = phase_duration(/*slow=*/false);
    }
    while (ctx.now >= state.until) {
        state.slowed = !state.slowed;
        state.until += phase_duration(state.slowed);
    }
    const double v = base_->sample(rng);
    return state.slowed ? v * slowdown_ : v;
}

void EpisodicSlowdownTimeModel::reset() {
    for (WorkerState& state : states_) state = WorkerState{};
}

std::string EpisodicSlowdownTimeModel::describe() const {
    return "episodic(" + base_->describe() + ", x" +
           std::to_string(slowdown_) + " slow phases)";
}

// ----------------------------------------------------------- variable-cost

VariableCostTimeModel::VariableCostTimeModel(const stats::Distribution* base,
                                             CostFn cost)
    : base_(base), cost_(std::move(cost)) {
    if (base_ == nullptr)
        throw std::invalid_argument(
            "variable-cost time model: null distribution");
    if (!cost_)
        throw std::invalid_argument(
            "variable-cost time model: null cost function");
}

double VariableCostTimeModel::sample(util::Rng& rng,
                                     const TimeSampleContext& ctx) {
    const double v = base_->sample(rng);
    if (ctx.variables.empty()) return v;
    const double multiplier = cost_(ctx.variables);
    if (!(multiplier > 0.0))
        throw std::domain_error(
            "variable-cost time model: non-positive cost multiplier");
    return v * multiplier;
}

std::string VariableCostTimeModel::describe() const {
    return "variable_cost(" + base_->describe() + ")";
}

} // namespace borg::parallel
