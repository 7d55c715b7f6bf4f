#ifndef BORG_MOEA_BORG_HPP
#define BORG_MOEA_BORG_HPP

/// \file borg.hpp
/// A clean-room C++ implementation of the Borg MOEA (Hadka & Reed 2012),
/// structured for asynchronous master-slave execution.
///
/// The algorithm is exposed as a *master state machine* with two entry
/// points:
///
///   * next_offspring_handle() — produce one (unevaluated) candidate:
///     uniform random during initialization, restart mutants while a
///     restart is refilling the population, otherwise an offspring from
///     the auto-adaptive operator ensemble;
///   * receive_handle(handle) — ingest one evaluated candidate:
///     steady-state population injection, ε-archive update (which credits
///     the producing operator), and stagnation/restart checks.
///
/// The serial algorithm is the trivial loop {generate; evaluate; receive},
/// provided by run_serial(). The asynchronous executors call
/// next_offspring_handle() whenever a worker becomes free and
/// receive_handle() whenever a result returns — the exact protocol of the
/// paper's MPI implementation. Because both modes share this class, any
/// observed behavioural difference between serial and parallel runs is
/// attributable to evaluation *order*, not to divergent implementations.
///
/// Storage (DESIGN.md §15): all solutions — population members, archive
/// members, and in-flight offspring — live as rows of one SolutionPool
/// arena owned by the algorithm. An offspring is a pool row the caller
/// evaluates in place (or patches with a worker's reply) and hands back;
/// acceptance into the archive transfers the row instead of copying it.
/// A solution from elsewhere (an island migrant, a test fixture) enters
/// by `pool().store()` and then receive_handle().

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "moea/epsilon_archive.hpp"
#include "moea/operator_selector.hpp"
#include "moea/operators.hpp"
#include "moea/population.hpp"
#include "moea/restart.hpp"
#include "moea/selection_observer.hpp"
#include "moea/solution_pool.hpp"
#include "problems/problem.hpp"
#include "util/rng.hpp"

namespace borg::moea {

struct BorgParams {
    /// ε-box sizes, one per objective (required, all positive).
    std::vector<double> epsilons;
    std::size_t initial_population_size = 100;
    RestartParams restart;
    double selector_zeta = 1.0;
    std::size_t selector_update_frequency = 100;

    /// Ablation switches (DESIGN.md §7): disable restarts entirely, or
    /// bypass auto-adaptation. With adaptation disabled, operators are
    /// drawn uniformly unless forced_operator selects a single one.
    bool enable_restarts = true;
    bool enable_adaptation = true;
    int forced_operator = -1; ///< index into the ensemble, or -1

    /// Frequency-based parent selection (Harada, arXiv:2107.12053):
    /// counters the asynchronous evaluation-time bias by preferring
    /// rarely selected parents — the archive anchor is drawn uniformly
    /// among least-selected members, and population tournaments break
    /// nondominated ties toward the lower selection count. Off by
    /// default; the draw sequence differs from the classic rule, so
    /// enabling it changes runs (see DESIGN.md §17).
    bool frequency_selection = false;

    /// Convenience: uniform ε for a problem's objective count.
    static BorgParams for_problem(const problems::Problem& problem,
                                  double epsilon);
};

class BorgMoea : private SolutionPool::RowObserver {
public:
    /// The problem must outlive the algorithm. Only bounds and dimensions
    /// are read here — evaluation happens outside (worker side).
    BorgMoea(const problems::Problem& problem, BorgParams params,
             std::uint64_t seed);

    BorgMoea(const BorgMoea&) = delete;
    BorgMoea& operator=(const BorgMoea&) = delete;

    /// Produces the next candidate to evaluate as a pool row the caller
    /// now owns: evaluate it in place (moea::evaluate(problem, pool(), h)
    /// or via spans) and return it through receive_handle(). This is the
    /// allocation-free hot path.
    SolutionHandle next_offspring_handle();

    /// Ingests an evaluated pool row previously issued by
    /// next_offspring_handle(), consuming the handle: the archive adopts
    /// the row on acceptance and releases it on rejection. (If the row is
    /// unevaluated this throws and the caller keeps ownership.)
    void receive_handle(SolutionHandle handle);

    /// The arena all population/archive members and issued offspring live
    /// in. Exposed so evaluators can write objective rows in place.
    SolutionPool& pool() noexcept { return pool_; }
    const SolutionPool& pool() const noexcept { return pool_; }

    // --- inspection ---------------------------------------------------
    const ArchiveEngine& archive() const noexcept { return archive_; }
    const Population& population() const noexcept { return population_; }

    std::uint64_t issued() const noexcept { return issued_; }
    std::uint64_t evaluations() const noexcept { return received_; }
    std::uint64_t restarts() const noexcept { return controller_.restarts(); }
    std::size_t pending_restart_mutants() const noexcept {
        return pending_restart_mutants_;
    }

    std::size_t num_operators() const noexcept { return operators_.size(); }
    std::vector<std::string> operator_names() const;
    const std::vector<double>& operator_probabilities() const noexcept {
        return selector_.probabilities();
    }
    /// How many offspring each operator produced so far (lifetime counts).
    const std::vector<std::uint64_t>& operator_usage() const noexcept {
        return operator_usage_;
    }

    const BorgParams& params() const noexcept { return params_; }
    const problems::Problem& problem() const noexcept { return problem_; }

    /// Attaches (or clears, with nullptr) the selection-identity observer
    /// (selection_observer.hpp). Observers are bookkeeping-only; the
    /// algorithm draws the same RNG sequence with or without one, so
    /// attaching the bias monitor leaves runs byte-identical.
    void set_selection_observer(SelectionObserver* observer) noexcept {
        selection_observer_ = observer;
    }

    /// Lifetime selection counts per pool row (non-empty only with
    /// params().frequency_selection). Exposed for tests.
    const std::vector<std::uint32_t>& selection_counts() const noexcept {
        return selection_counts_;
    }

    /// Checkpointing (moea/checkpoint.hpp): serializes the complete
    /// algorithm state — RNG stream, population, archive, adaptive
    /// probabilities, restart counters — so a long run resumes exactly.
    /// CheckpointIo is the implementation detail the format readers and
    /// writers live behind.
    friend struct CheckpointIo;

private:
    SolutionHandle make_restart_mutant_handle();
    std::size_t pick_operator();
    void maybe_restart();

    /// SolutionPool::RowObserver — the algorithm registers itself with its
    /// own pool so row recycling resets the selection counters and reaches
    /// any attached SelectionObserver. Pure bookkeeping: no RNG, no
    /// algorithm state beyond the counters.
    void on_row_reset(std::uint32_t index) override;

    const problems::Problem& problem_;
    BorgParams params_;
    util::Rng rng_;

    /// Declared before archive_/population_ so it outlives them (they
    /// release their member handles on destruction).
    SolutionPool pool_;

    std::vector<std::unique_ptr<Variation>> operators_;
    UniformMutation restart_mutation_;
    ArchiveEngine archive_;
    Population population_;
    OperatorSelector selector_;
    RestartController controller_;
    ParentView parent_scratch_; ///< select_parents_into() reuse

    std::uint64_t issued_ = 0;
    std::uint64_t received_ = 0;
    std::size_t pending_restart_mutants_ = 0;
    std::vector<std::uint64_t> operator_usage_;

    SelectionObserver* selection_observer_ = nullptr;
    /// Pool row -> lifetime selection count; maintained only under
    /// frequency_selection (grown on demand, reset on row recycling).
    std::vector<std::uint32_t> selection_counts_;
    std::vector<std::uint32_t> parent_rows_scratch_;
};

/// Runs the serial Borg MOEA for \p max_evaluations function evaluations.
/// \p on_evaluation, if set, is called after every receive_handle() with
/// the running evaluation count — the hook the trajectory recorder uses.
void run_serial(BorgMoea& algorithm, const problems::Problem& problem,
                std::uint64_t max_evaluations,
                const std::function<void(std::uint64_t)>& on_evaluation = {});

} // namespace borg::moea

#endif
