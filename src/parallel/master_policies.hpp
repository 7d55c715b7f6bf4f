#ifndef BORG_PARALLEL_MASTER_POLICIES_HPP
#define BORG_PARALLEL_MASTER_POLICIES_HPP

/// \file master_policies.hpp
/// Reusable master-policy objects shared by every transport.
///
/// AsyncBorgPolicy — the asynchronous Borg protocol (ingest one result,
/// immediately hand back fresh work) — used to be a private class inside
/// async_executor.cpp, which made the protocol inseparable from the
/// virtual-time transport. The TCP run manager (tcp_executor.hpp) drives
/// the *same object* over real sockets through ClusterEngine's external
/// (real-time) mode, so the scheduling semantics of a distributed run are
/// bit-exact with the simulated one by construction, not by parallel
/// maintenance (DESIGN.md §14).
///
/// Two bias-countering variants subclass it (DESIGN.md §17):
///
///  * AsyncFreqPolicy — identical protocol, but the algorithm runs
///    Harada's frequency-based parent selection
///    (BorgParams::frequency_selection), countering the asynchronous
///    master's preference for fast-evaluating solutions;
///  * AsyncSpecPolicy — bounded staleness via speculative duplicate
///    evaluation: when a dispatched offspring has been in flight longer
///    than `staleness_bound` ingested results, the next free worker
///    re-evaluates a clone instead of drawing fresh work; the first
///    arrival of the pair is ingested, the second discarded. Duplicates
///    consume evaluation budget — the honest equal-budget cost model.
///
/// All three share serve()'s hold pricing draw-for-draw, and the base
/// policy's own draw sequence is unchanged — the golden traces pin it.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>

#include "moea/borg.hpp"
#include "parallel/cluster_engine.hpp"
#include "problems/problem.hpp"

namespace borg::parallel {

class BiasMonitor;

/// A fresh offspring of \p algorithm as a work item: a row of its pool.
inline WorkItem offspring_work(moea::BorgMoea& algorithm) {
    WorkItem work;
    work.pool = &algorithm.pool();
    work.handle = algorithm.next_offspring_handle();
    return work;
}

/// The asynchronous Borg protocol as a master policy: every master
/// interaction ingests one result and immediately hands back fresh work
/// while the evaluation budget lasts (DESIGN.md §10).
class AsyncBorgPolicy : public EventMasterPolicy {
public:
    AsyncBorgPolicy(moea::BorgMoea& algorithm, const problems::Problem& problem)
        : algorithm_(algorithm), problem_(problem) {}

    const char* prefix() const noexcept override { return "async"; }

    std::optional<WorkItem> dispatch_initial(ClusterEngine& engine,
                                             const WorkerRef& worker) override;
    void evaluate(WorkItem& work) override;
    Service serve(ClusterEngine& engine, const WorkerRef& worker,
                  WorkItem work) override;
    void on_worker_failure(ClusterEngine& engine,
                           const WorkerRef& worker) override;
    void record_result(ClusterEngine& engine, const WorkerRef& worker) override;
    void publish_extra_metrics(ClusterEngine& engine,
                               obs::MetricsRegistry& metrics) override;
    void finalize(ClusterEngine& engine,
                  const VirtualRunResult& result) override;

    /// Attaches (or clears) the bias monitor (non-owning; attach the same
    /// monitor to the algorithm with set_selection_observer so it sees
    /// parent picks too). serve() then feeds it each result's applied T_F
    /// and staleness, and publish_extra_metrics emits the bias.*
    /// instruments. Observational only: attaching a monitor leaves the
    /// run byte-identical.
    void set_bias_monitor(BiasMonitor* monitor) noexcept {
        monitor_ = monitor;
    }

    std::uint64_t issued() const noexcept { return issued_; }

protected:
    /// Feeds the attached monitor one result (no-op when none attached).
    void observe_result(ClusterEngine& engine, const WorkItem& work);

    moea::BorgMoea& algorithm_;
    const problems::Problem& problem_;
    std::uint64_t issued_ = 0;
    BiasMonitor* monitor_ = nullptr;
};

/// The same asynchronous protocol over an algorithm running
/// frequency-based parent selection (Harada, arXiv:2107.12053). The
/// protocol logic is entirely inherited — the countermeasure lives in
/// BorgMoea's selection path — so this class only asserts the algorithm
/// is actually configured for it and renames the metric prefix.
class AsyncFreqPolicy final : public AsyncBorgPolicy {
public:
    AsyncFreqPolicy(moea::BorgMoea& algorithm,
                    const problems::Problem& problem);

    const char* prefix() const noexcept override { return "freq"; }
};

/// Bounded-staleness asynchronous protocol with speculative duplicate
/// evaluation. When the oldest in-flight offspring has been waiting
/// longer than \p staleness_bound ingested results — it is stuck on a
/// straggler — the next free worker gets a clone of it instead of fresh
/// work. Whichever copy returns first is ingested; the other is
/// discarded on arrival (but still holds the master and advances the
/// completion counter, so duplicates spend real evaluation budget).
class AsyncSpecPolicy final : public AsyncBorgPolicy {
public:
    AsyncSpecPolicy(moea::BorgMoea& algorithm,
                    const problems::Problem& problem,
                    std::uint64_t staleness_bound);

    const char* prefix() const noexcept override { return "spec"; }

    std::optional<WorkItem> dispatch_initial(ClusterEngine& engine,
                                             const WorkerRef& worker) override;
    Service serve(ClusterEngine& engine, const WorkerRef& worker,
                  WorkItem work) override;
    void on_worker_failure(ClusterEngine& engine,
                           const WorkerRef& worker) override;
    void publish_extra_metrics(ClusterEngine& engine,
                               obs::MetricsRegistry& metrics) override;

    std::uint64_t duplicates_issued() const noexcept {
        return duplicates_issued_;
    }
    std::uint64_t duplicates_wasted() const noexcept {
        return duplicates_wasted_;
    }

private:
    /// One dispatched offspring and its (at most one) speculative twin.
    struct Task {
        moea::SolutionHandle primary;
        std::uint64_t dispatched_at = 0; ///< completed() at creation
        int outstanding = 0;             ///< copies still in flight
        bool resolved = false;           ///< first arrival ingested
        bool has_dup = false;
        bool primary_lost = false;       ///< primary's worker failed
    };
    struct Assignment {
        std::uint64_t seq = 0;
        bool is_dup = false;
    };

    /// Claims the next dispatch: a speculative duplicate of the stalest
    /// eligible task if one exceeds the bound, fresh work otherwise,
    /// nullopt when the budget is spent.
    std::optional<WorkItem> make_next(ClusterEngine& engine,
                                      const WorkerRef& worker);

    std::uint64_t staleness_bound_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t duplicates_issued_ = 0;
    std::uint64_t duplicates_wasted_ = 0;
    /// Keyed by task_seq; ordered so the staleness scan visits oldest
    /// dispatches first.
    std::map<std::uint64_t, Task> tasks_;
    /// Which task each busy worker carries (keyed by global index) — the
    /// failure hook needs it, since the engine reports only the worker.
    std::map<std::size_t, Assignment> worker_task_;
};

} // namespace borg::parallel

#endif
