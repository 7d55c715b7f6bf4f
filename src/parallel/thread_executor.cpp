#include "parallel/thread_executor.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "parallel/master_policies.hpp"
#include "parallel/window_protocol.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

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
                const auto start = SteadyClock::now();
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
                const auto sent_at = SteadyClock::now();
                results.send(ResultPayload{message->seq, message->slot, w,
                                           seconds_between(start, sent_at),
                                           sent_at});
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
                            work_channels[worker]->send(WorkPayload{
                                task.seq, slot, pool.variables(handle),
                                pool.objectives_mut(handle),
                                pool.constraints_mut(handle)});
                        });
    };
    dispatch();

    while (!window.finished()) {
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
        const double tc = seconds_between(result->sent_at, SteadyClock::now());
        run_result.tc_samples.push_back(tc);
        const auto worker = static_cast<std::uint32_t>(result->worker);
        window.add_credit(worker);
        window.complete(result->slot, {worker, result->eval_seconds, tc});
        dispatch();
    }

    shutdown();
    static_cast<VirtualRunResult&>(run_result) = window.finish();
    return run_result;
}

} // namespace borg::parallel
