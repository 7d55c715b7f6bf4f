#include "parallel/master_policies.hpp"

#include <stdexcept>
#include <utility>

#include "obs/event_trace.hpp"
#include "parallel/bias_monitor.hpp"
#include "parallel/trajectory.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
    return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

} // namespace

std::optional<WorkItem>
AsyncBorgPolicy::dispatch_initial(ClusterEngine& engine,
                                  const WorkerRef& worker) {
    (void)worker;
    if (issued_ >= engine.target()) return std::nullopt;
    ++issued_;
    return offspring_work(algorithm_);
}

void AsyncBorgPolicy::evaluate(WorkItem& work) {
    moea::evaluate(problem_, *work.pool, work.handle);
}

void AsyncBorgPolicy::observe_result(ClusterEngine& engine,
                                     const WorkItem& work) {
    if (monitor_ == nullptr) return;
    monitor_->on_result(work.handle.index, work.eval_seconds,
                        engine.completed() - work.dispatched_at_completed);
}

EventMasterPolicy::Service AsyncBorgPolicy::serve(ClusterEngine& engine,
                                                  const WorkerRef& worker,
                                                  WorkItem work) {
    const auto start = SteadyClock::now();
    observe_result(engine, work);
    algorithm_.receive_handle(work.handle);
    std::optional<WorkItem> next;
    if (issued_ < engine.target()) {
        next = offspring_work(algorithm_);
        ++issued_;
    }
    const double measured = seconds_since(start);
    const auto actor = static_cast<std::int64_t>(worker.global);
    // Protocol order: the master ingests + generates (T_A), then the
    // result-return and fresh-work messages are priced (T_C twice).
    const double ta = engine.sample_ta(worker.group, actor, measured);
    const double tc1 = engine.sample_tc(worker.group, actor);
    const double tc2 = engine.sample_tc(worker.group, actor);
    return {tc1 + ta + tc2, std::move(next)};
}

void AsyncBorgPolicy::on_worker_failure(ClusterEngine& engine,
                                        const WorkerRef& worker) {
    (void)engine;
    (void)worker;
    --issued_; // the lost offspring's claim returns to the pool
}

void AsyncBorgPolicy::record_result(ClusterEngine& engine,
                                    const WorkerRef& worker) {
    if (auto* trace = engine.trace()) {
        trace->record({obs::EventKind::result, engine.now(),
                       static_cast<std::int64_t>(worker.global), 0.0,
                       engine.completed()});
        trace->record({obs::EventKind::archive_snapshot, engine.now(), -1, 0.0,
                       algorithm_.archive().size()});
    }
    if (auto* recorder = engine.recorder())
        recorder->on_result(engine.now(), engine.completed(), [this] {
            return algorithm_.archive().objective_vectors();
        });
}

void AsyncBorgPolicy::publish_extra_metrics(ClusterEngine& engine,
                                            obs::MetricsRegistry& metrics) {
    (void)engine;
    // bias.* instruments exist only when a monitor is attached, keeping
    // unmonitored runs' instrument sets unchanged.
    if (monitor_ != nullptr) monitor_->publish(metrics);
}

void AsyncBorgPolicy::finalize(ClusterEngine& engine,
                               const VirtualRunResult& result) {
    if (auto* recorder = engine.recorder())
        recorder->finalize(result.elapsed, result.evaluations, [this] {
            return algorithm_.archive().objective_vectors();
        });
}

AsyncFreqPolicy::AsyncFreqPolicy(moea::BorgMoea& algorithm,
                                 const problems::Problem& problem)
    : AsyncBorgPolicy(algorithm, problem) {
    if (!algorithm.params().frequency_selection)
        throw std::invalid_argument(
            "freq policy: algorithm must be built with "
            "BorgParams::frequency_selection");
}

AsyncSpecPolicy::AsyncSpecPolicy(moea::BorgMoea& algorithm,
                                 const problems::Problem& problem,
                                 std::uint64_t staleness_bound)
    : AsyncBorgPolicy(algorithm, problem), staleness_bound_(staleness_bound) {
    if (staleness_bound == 0)
        throw std::invalid_argument(
            "spec policy: staleness bound must be >= 1 (0 would duplicate "
            "every dispatch)");
}

std::optional<WorkItem>
AsyncSpecPolicy::make_next(ClusterEngine& engine, const WorkerRef& worker) {
    if (issued_ >= engine.target()) return std::nullopt;
    const std::uint64_t completed = engine.completed();

    // Oldest unresolved, not-yet-duplicated task past the bound. Tasks
    // whose primary worker died are skipped: their handle is back in the
    // pool, so there is nothing left to clone.
    for (auto& [seq, t] : tasks_) {
        if (t.resolved || t.has_dup || t.primary_lost) continue;
        if (completed - t.dispatched_at <= staleness_bound_) continue;
        WorkItem dup;
        dup.pool = &algorithm_.pool();
        dup.handle = algorithm_.pool().clone(t.primary);
        dup.task_seq = seq;
        t.has_dup = true;
        ++t.outstanding;
        ++issued_;
        ++duplicates_issued_;
        worker_task_[worker.global] = {seq, true};
        return dup;
    }

    WorkItem fresh = offspring_work(algorithm_);
    fresh.task_seq = next_seq_++;
    Task t;
    t.primary = fresh.handle;
    t.dispatched_at = completed;
    t.outstanding = 1;
    tasks_.emplace(fresh.task_seq, t);
    ++issued_;
    worker_task_[worker.global] = {fresh.task_seq, false};
    return fresh;
}

std::optional<WorkItem>
AsyncSpecPolicy::dispatch_initial(ClusterEngine& engine,
                                  const WorkerRef& worker) {
    return make_next(engine, worker);
}

EventMasterPolicy::Service AsyncSpecPolicy::serve(ClusterEngine& engine,
                                                  const WorkerRef& worker,
                                                  WorkItem work) {
    worker_task_.erase(worker.global);
    const auto start = SteadyClock::now();

    const auto tit = tasks_.find(work.task_seq);
    Task* task = tit != tasks_.end() ? &tit->second : nullptr;
    if (task != nullptr && task->resolved) {
        // Second arrival of a speculative pair: the result was already
        // ingested, discard this copy.
        work.pool->release(work.handle);
        ++duplicates_wasted_;
    } else {
        observe_result(engine, work);
        algorithm_.receive_handle(work.handle);
        if (task != nullptr) task->resolved = true;
    }
    if (task != nullptr && --task->outstanding == 0) tasks_.erase(tit);

    std::optional<WorkItem> next = make_next(engine, worker);

    // Same hold shape as the base protocol whether the arrival was
    // ingested or discarded: a wasted duplicate still costs the master a
    // full service (and the draws keep T_A/T_C stream usage uniform).
    const double measured = seconds_since(start);
    const auto actor = static_cast<std::int64_t>(worker.global);
    const double ta = engine.sample_ta(worker.group, actor, measured);
    const double tc1 = engine.sample_tc(worker.group, actor);
    const double tc2 = engine.sample_tc(worker.group, actor);
    return {tc1 + ta + tc2, std::move(next)};
}

void AsyncSpecPolicy::on_worker_failure(ClusterEngine& engine,
                                        const WorkerRef& worker) {
    (void)engine;
    --issued_; // this dispatch's budget claim returns, as in the base
    const auto it = worker_task_.find(worker.global);
    if (it == worker_task_.end()) return;
    const Assignment lost = it->second;
    worker_task_.erase(it);
    const auto tit = tasks_.find(lost.seq);
    if (tit == tasks_.end()) return;
    Task& t = tit->second;
    if (lost.is_dup) t.has_dup = false;
    else t.primary_lost = true; // engine already returned the slot
    if (--t.outstanding == 0) tasks_.erase(tit);
}

void AsyncSpecPolicy::publish_extra_metrics(ClusterEngine& engine,
                                            obs::MetricsRegistry& metrics) {
    AsyncBorgPolicy::publish_extra_metrics(engine, metrics);
    metrics.counter("spec.duplicates_issued").inc(duplicates_issued_);
    metrics.counter("spec.duplicates_wasted").inc(duplicates_wasted_);
}

} // namespace borg::parallel
