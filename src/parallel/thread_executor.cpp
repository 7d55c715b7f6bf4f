#include "parallel/thread_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "parallel/master_policies.hpp"
#include "parallel/spsc_ring.hpp"
#include "parallel/window_protocol.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// Entries per ring. The window gives each worker one dispatch credit, so
/// a worker's task ring and its result ring each hold at most one entry;
/// a full ring is a broken invariant, not back-pressure.
constexpr std::size_t kRingCapacity = 4;

/// One worker's end of the wire.
struct WorkerLink {
    SpscRing<WorkPayload> tasks{kRingCapacity};     ///< master -> worker
    SpscRing<ResultPayload> results{kRingCapacity}; ///< worker -> master
    /// Bumped per task and on close; the worker parks on it.
    alignas(kCacheLine) std::atomic<std::uint32_t> task_signal{0};
    /// Set by the worker before it closes `results`; the master reads it
    /// once that ring reports drained.
    std::exception_ptr failure;
};

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
    if (evaluations == 0)
        throw std::invalid_argument("thread executor: evaluations == 0");
    if (algorithm.evaluations() != 0)
        throw std::logic_error("thread executor: algorithm already used");

    const auto links = std::make_unique<WorkerLink[]>(workers_);
    // Bumped per result and on a worker's failure; the master parks on it.
    alignas(kCacheLine) std::atomic<std::uint32_t> result_signal{0};

    std::vector<std::thread> threads;
    threads.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        threads.emplace_back([&, w] {
            WorkerLink& link = links[w];
            WorkPayload task;
            for (;;) {
                RingPop status = RingPop::empty;
                spin_then_park(link.task_signal, [&] {
                    status = link.tasks.try_pop(task);
                    return status != RingPop::empty;
                });
                if (status == RingPop::drained) return; // shut down
                const auto start = SteadyClock::now();
                try {
                    // Evaluate straight into the pool slot's rows. The
                    // master resolved the spans at dispatch; pool metadata
                    // (the `evaluated` flag) stays master-owned.
                    problem.evaluate(task.variables, task.objectives,
                                     task.constraints);
                    const auto sent_at = SteadyClock::now();
                    if (!link.results.try_push(ResultPayload{
                            task.seq, task.slot, w,
                            seconds_between(start, sent_at), sent_at}))
                        throw std::logic_error(
                            "thread executor: result ring full");
                } catch (...) {
                    // Park the exception and close this worker's result
                    // ring: the master wakes, joins everyone and rethrows.
                    link.failure = std::current_exception();
                    link.results.close();
                    bump(result_signal);
                    return;
                }
                bump(result_signal);
            }
        });
    }

    // Shuts the fleet down exactly once on every exit path (normal
    // completion, worker failure, or an exception in the master's own
    // receive/generate calls) — the threads reference the rings, so they
    // must be joined before the rings go out of scope.
    bool joined = false;
    const auto shutdown = [&] {
        if (joined) return;
        joined = true;
        for (std::size_t w = 0; w < workers_; ++w) {
            links[w].tasks.close();
            bump(links[w].task_signal);
        }
        for (std::thread& t : threads) t.join();
    };
    struct Guard {
        const decltype(shutdown)& fn;
        ~Guard() { fn(); }
    } guard{shutdown};

    ThreadRunResult run_result;
    run_result.ta_samples.reserve(evaluations);
    run_result.tc_samples.reserve(evaluations);

    AsyncBorgPolicy policy(algorithm, problem);
    WindowProtocol window(workers_, ingest_, ctx, &run_result.ta_samples);
    window.begin(policy, evaluations);
    for (std::size_t w = 0; w < workers_; ++w) {
        const auto worker = static_cast<std::uint32_t>(w);
        window.spawn(worker);
        window.add_credit(worker);
    }
    moea::SolutionPool& pool = algorithm.pool();
    const auto dispatch = [&] {
        window.dispatch([](std::uint32_t) { return true; },
                        [&](std::uint32_t worker, std::uint32_t slot,
                            const WindowProtocol::Task& task) {
                            const moea::SolutionHandle handle =
                                task.work.handle;
                            WorkerLink& link = links[worker];
                            if (!link.tasks.try_push(WorkPayload{
                                    task.seq, slot, pool.variables(handle),
                                    pool.objectives_mut(handle),
                                    pool.constraints_mut(handle)}))
                                throw std::logic_error(
                                    "thread executor: task ring full");
                            bump(link.task_signal);
                        });
    };
    dispatch();

    // The master polls the result rings round-robin, starting after the
    // worker it served last.
    std::size_t next = 0;
    // End of the master's latest service: a result that arrived before it
    // waited on the master, not on the wire.
    SteadyClock::time_point service_end = SteadyClock::now();
    ResultPayload result;
    WorkerLink* failed = nullptr;
    const auto poll = [&] {
        for (std::size_t k = 0; k < workers_; ++k) {
            WorkerLink& link = links[next];
            next = next + 1 == workers_ ? 0 : next + 1;
            switch (link.results.try_pop(result)) {
            case RingPop::item:
                return true;
            case RingPop::drained:
                failed = &link;
                return true;
            case RingPop::empty:
                break;
            }
        }
        return false;
    };
    while (!window.finished()) {
        spin_then_park(result_signal, poll);
        if (failed != nullptr) {
            // A result ring only closes when its worker failed; join the
            // fleet and surface the captured exception.
            shutdown();
            std::rethrow_exception(failed->failure);
        }
        const double tc = seconds_between(
            std::max(result.sent_at, service_end), SteadyClock::now());
        run_result.tc_samples.push_back(tc);
        const auto worker = static_cast<std::uint32_t>(result.worker);
        window.add_credit(worker);
        window.complete(result.slot, {worker, result.eval_seconds, tc});
        dispatch();
        service_end = SteadyClock::now();
    }

    shutdown();
    static_cast<VirtualRunResult&>(run_result) = window.finish();
    return run_result;
}

} // namespace borg::parallel
