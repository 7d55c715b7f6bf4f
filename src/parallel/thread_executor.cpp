#include "parallel/thread_executor.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "des/ring_queue.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/reorder_ring.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

} // namespace

ThreadMasterSlaveExecutor::ThreadMasterSlaveExecutor(std::size_t workers,
                                                     IngestOrder ingest)
    : workers_(workers), ingest_(ingest) {
    if (workers == 0)
        throw std::invalid_argument("thread executor: need >= 1 worker");
}

ThreadRunResult ThreadMasterSlaveExecutor::run(
    moea::BorgMoea& algorithm, const problems::Problem& problem,
    std::uint64_t evaluations, const RunContext& ctx) {
    obs::TraceSink* trace = ctx.trace;
    obs::MetricsRegistry* metrics = ctx.metrics;
    if (evaluations == 0)
        throw std::invalid_argument("thread executor: evaluations == 0");
    if (algorithm.evaluations() != 0)
        throw std::logic_error("thread executor: algorithm already used");

    std::vector<std::unique_ptr<Channel<WorkPayload>>> work_channels;
    work_channels.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w)
        work_channels.push_back(std::make_unique<Channel<WorkPayload>>());
    Channel<ResultPayload> results;

    // A worker whose evaluation throws parks the exception here and closes
    // the result channel so the master wakes up instead of blocking
    // forever; the master rethrows after joining everyone.
    std::mutex failure_mutex;
    std::exception_ptr worker_failure;

    std::vector<std::thread> threads;
    threads.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        threads.emplace_back([&, w] {
            Channel<WorkPayload>& inbox = *work_channels[w];
            for (;;) {
                std::optional<WorkPayload> message = inbox.receive();
                if (!message) return; // channel closed: shut down
                try {
                    // Evaluate straight into the pool slot's rows. The
                    // master resolved the spans at dispatch; pool metadata
                    // (the `evaluated` flag) stays master-owned.
                    problem.evaluate(message->variables, message->objectives,
                                     message->constraints);
                } catch (...) {
                    {
                        const std::lock_guard lock(failure_mutex);
                        if (!worker_failure)
                            worker_failure = std::current_exception();
                    }
                    results.close();
                    return;
                }
                results.send(ResultPayload{message->seq, w, message->handle,
                                           SteadyClock::now()});
            }
        });
    }

    // Shuts the fleet down exactly once on every exit path (normal
    // completion, worker failure, or an exception in the master's own
    // receive/generate calls) — the threads reference the channels, so
    // they must be joined before the channels go out of scope.
    bool joined = false;
    const auto shutdown = [&] {
        if (joined) return;
        joined = true;
        for (auto& channel : work_channels) channel->close();
        for (std::thread& t : threads) t.join();
    };
    struct Guard {
        const decltype(shutdown)& fn;
        ~Guard() { fn(); }
    } guard{shutdown};

    ThreadRunResult run_result;
    run_result.ta_samples.reserve(evaluations);
    run_result.tc_samples.reserve(evaluations);

    obs::Histogram* h_ta = nullptr;
    obs::Histogram* h_tc = nullptr;
    if (metrics) {
        h_ta = &metrics->histogram("thread.ta_seconds");
        h_tc = &metrics->histogram("thread.tc_seconds");
    }

    const auto run_start = SteadyClock::now();
    const auto since_start = [&] {
        return std::chrono::duration<double>(SteadyClock::now() - run_start)
            .count();
    };
    if (trace) {
        trace->record({obs::EventKind::run_start, 0.0, -1,
                       static_cast<double>(workers_ + 1), evaluations});
        for (std::size_t w = 0; w < workers_; ++w)
            trace->record({obs::EventKind::worker_spawn, 0.0,
                           static_cast<std::int64_t>(w), 0.0, 0});
    }
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;

    moea::SolutionPool& pool = algorithm.pool();
    // Resolves a fresh offspring's slot into a dispatchable payload. The
    // spans stay valid across pool growth (block storage is stable).
    const auto make_task = [&](std::uint64_t seq) {
        const moea::SolutionHandle handle = algorithm.next_offspring_handle();
        return WorkPayload{seq, handle, pool.variables(handle),
                           pool.objectives_mut(handle),
                           pool.constraints_mut(handle)};
    };

    // The master step: ingest one evaluated solution, fund the next task
    // if the budget allows. Returns the new task (unassigned).
    const auto ingest = [&](moea::SolutionHandle handle, std::size_t actor)
        -> std::optional<WorkPayload> {
        const auto ta_start = SteadyClock::now();
        pool.set_evaluated(handle, true); // objectives landed via the spans
        algorithm.receive_handle(handle);
        std::optional<WorkPayload> next;
        if (issued < evaluations) {
            next = make_task(issued);
            ++issued;
        }
        const double ta =
            std::chrono::duration<double>(SteadyClock::now() - ta_start)
                .count();
        run_result.ta_samples.push_back(ta);
        if (h_ta) h_ta->observe(ta);
        if (trace)
            trace->record({obs::EventKind::ta_sample, since_start(),
                           static_cast<std::int64_t>(actor), ta, 0});
        ++completed;
        if (trace) {
            trace->record({obs::EventKind::result, since_start(),
                           static_cast<std::int64_t>(actor), 0.0, completed});
            trace->record({obs::EventKind::archive_snapshot, since_start(),
                           -1, 0.0, algorithm.archive().size()});
        }
        return next;
    };

    // Seed every worker with initial work. Under the window protocol this
    // is the deterministic prefix: offspring 0..W-1 generated before any
    // ingest, in worker order.
    for (std::size_t w = 0; w < workers_ && issued < evaluations; ++w) {
        work_channels[w]->send(make_task(issued));
        ++issued;
    }

    // Dispatch-order state: results parked until their turn, workers
    // parked until a task exists for them.
    ReorderRing<ResultPayload> reorder;
    reorder.reset(workers_);
    des::RingQueue<WorkPayload> pending_tasks;
    des::RingQueue<std::size_t> idle_workers;

    while (completed < evaluations) {
        std::optional<ResultPayload> result = results.receive();
        if (!result) {
            // The result channel only closes when a worker failed; join
            // the fleet and surface the captured exception.
            shutdown();
            {
                const std::lock_guard lock(failure_mutex);
                if (worker_failure) std::rethrow_exception(worker_failure);
            }
            throw std::logic_error("thread executor: result channel closed");
        }
        const double tc =
            std::chrono::duration<double>(SteadyClock::now() -
                                          result->sent_at)
                .count();
        run_result.tc_samples.push_back(tc);
        if (h_tc) h_tc->observe(tc);
        if (trace)
            trace->record({obs::EventKind::tc_sample, since_start(),
                           static_cast<std::int64_t>(result->worker), tc,
                           0});

        if (ingest_ == IngestOrder::arrival) {
            std::optional<WorkPayload> next =
                ingest(result->handle, result->worker);
            if (next)
                work_channels[result->worker]->send(std::move(*next));
            continue;
        }

        // Window protocol: park the result and the newly idle worker, then
        // drain the reorder buffer strictly in sequence order. Each ingest
        // may fund one task; tasks meet idle workers FIFO.
        reorder.park(result->seq, *result);
        idle_workers.push_back(result->worker);
        while (const auto turn = reorder.pop_ready()) {
            std::optional<WorkPayload> next =
                ingest(turn->value.handle, turn->value.worker);
            if (next) pending_tasks.push_back(*next);
        }
        while (!pending_tasks.empty() && !idle_workers.empty()) {
            const std::size_t w = idle_workers.front();
            idle_workers.pop_front();
            work_channels[w]->send(pending_tasks.front());
            pending_tasks.pop_front();
        }
    }

    shutdown();

    run_result.elapsed =
        std::chrono::duration<double>(SteadyClock::now() - run_start).count();
    run_result.evaluations = completed;
    if (trace)
        trace->record({obs::EventKind::run_end, run_result.elapsed, -1,
                       run_result.elapsed, completed});
    if (metrics) {
        metrics->counter("thread.results").inc(completed);
        metrics->gauge("thread.elapsed_seconds").set(run_result.elapsed);
    }
    return run_result;
}

} // namespace borg::parallel
