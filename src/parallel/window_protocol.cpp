#include "parallel/window_protocol.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace borg::parallel {

namespace {

ClusterEngine::Setup real_time_setup(std::size_t window) {
    ClusterEngine::Setup setup;
    setup.real_time = true;
    setup.processors = window + 1;
    setup.groups = {{window, 1, 0}};
    return setup;
}

std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

WindowProtocol::WindowProtocol(std::size_t window, IngestOrder ingest,
                               const RunContext& ctx,
                               std::vector<double>* ta_samples)
    : engine_(real_time_setup(window), ctx), ingest_(ingest),
      ta_samples_(ta_samples), tasks_(window) {
    if (window == 0)
        throw std::invalid_argument("window protocol: window == 0");
}

void WindowProtocol::begin(EventMasterPolicy& policy,
                           std::uint64_t evaluations) {
    engine_.external_begin(policy, evaluations);
    for (std::size_t w = 0; w < tasks_.size(); ++w) {
        std::optional<WorkItem> work =
            engine_.external_dispatch_initial(WorkerRef{0, w, w});
        if (!work) break;
        install(static_cast<std::uint32_t>(w), std::move(*work));
    }
}

void WindowProtocol::install(std::uint32_t slot, WorkItem&& work) {
    if (work.pool == nullptr)
        throw std::logic_error(
            "window protocol: policy produced an empty work item "
            "(statistics-only policies cannot run over a real transport)");
    Task& task = tasks_[slot];
    task.work = std::move(work);
    task.seq = issued_++;
    task.dispatch_count = 0;
    task.dispatched_at_ns = 0;
    task.done = false;
    pending_.push_back(slot);
}

void WindowProtocol::complete(std::uint32_t slot, const Arrival& arrival) {
    Task& task = tasks_[slot];
    task.done = true;
    task.arrival = arrival;
    // The payload landed in the slot's rows; the master stamps the flag
    // (pool metadata stays single-writer).
    if (task.work.pool != nullptr)
        task.work.pool->set_evaluated(task.work.handle, true);
    if (ingest_ == IngestOrder::arrival) {
        ingest(slot);
        return;
    }
    // Window protocol: ingest strictly in seq order. seq s lives in slot
    // s % W, so the cursor's slot is the only one that can be next.
    while (!finished_) {
        const auto next = static_cast<std::uint32_t>(next_ingest_ %
                                                     tasks_.size());
        const Task& turn = tasks_[next];
        if (!turn.done || turn.seq != next_ingest_) break;
        ++next_ingest_;
        ingest(next);
    }
}

void WindowProtocol::ingest(std::uint32_t slot) {
    Task& task = tasks_[slot];
    if (task.dispatched_at_ns != 0) {
        const std::uint64_t now_ns = steady_ns();
        if (now_ns > task.dispatched_at_ns)
            latency_sum_s_ +=
                static_cast<double>(now_ns - task.dispatched_at_ns) * 1e-9;
    }
    const WorkerRef worker = ref_of(task.arrival.worker);
    ClusterEngine::ExternalServe serve =
        engine_.external_result(worker, std::move(task.work),
                                task.arrival.eval_seconds,
                                task.arrival.measured_tc);
    if (ta_samples_ != nullptr) ta_samples_->push_back(serve.ta);
    if (serve.next) install(slot, std::move(*serve.next));
    if (serve.finished) finished_ = true;
}

} // namespace borg::parallel
