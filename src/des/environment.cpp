#include "des/environment.hpp"

#include <limits>
#include <utility>

#include "obs/metrics_registry.hpp"

namespace borg::des {

Process Process::promise_type::get_return_object() noexcept {
    return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
}

Process::Process(Process&& other) noexcept
    : handle_(std::exchange(other.handle_, nullptr)) {}

Process& Process::operator=(Process&& other) noexcept {
    if (this != &other) {
        if (handle_) handle_.destroy();
        handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
}

Process::~Process() {
    if (handle_) handle_.destroy();
}

Environment::~Environment() {
    // Reap frames still suspended (in the queue, or parked in a Resource /
    // Event waiter list) when the environment dies. Destroying a frame
    // runs the destructors of its suspended locals but never resumes it,
    // so teardown order between the environment and the primitives holding
    // its waiters does not matter.
    for (const auto handle : live_)
        if (handle) handle.destroy();
}

void Environment::spawn(Process process) {
    if (!process.valid())
        throw std::invalid_argument("spawn: invalid process handle");
    const auto handle = std::exchange(process.handle_, nullptr);
    auto& promise = handle.promise();
    promise.env = this;
    if (!free_slots_.empty()) {
        promise.slot = free_slots_.back();
        free_slots_.pop_back();
        live_[promise.slot] = handle;
    } else {
        promise.slot = static_cast<std::uint32_t>(live_.size());
        live_.push_back(handle);
        // Sized so that on_process_finished's push_back below can never
        // allocate (and therefore never throw): one freed slot per live
        // slot, reserved while we are allowed to fail.
        free_slots_.reserve(live_.capacity());
    }
    schedule_at(handle, now_);
}

void Environment::on_process_finished(Process::promise_type& promise) noexcept {
    ++finished_;
    if (promise.exception && !first_exception_)
        first_exception_ = promise.exception;
    live_[promise.slot] = nullptr;
    free_slots_.push_back(promise.slot);
}

void Environment::dispatch_until(double max_time) {
    while (!stopped_) {
        const auto popped = queue_.pop_ready(max_time);
        if (!popped.handle) break;
        now_ = popped.time;
        ++events_fired_;
        popped.handle.resume();
        if (first_exception_)
            std::rethrow_exception(std::exchange(first_exception_, nullptr));
    }
}

void Environment::run() {
    stopped_ = false;
    const MetricsOnExit metrics_guard{*this};
    dispatch_until(std::numeric_limits<double>::infinity());
}

void Environment::run_until(double t) {
    if (!std::isfinite(t))
        throw std::invalid_argument("run_until: non-finite deadline");
    stopped_ = false;
    const MetricsOnExit metrics_guard{*this};
    dispatch_until(t);
    // SimPy run(until=...) semantics: a non-stopped exit leaves the clock
    // at the deadline even when later events remain queued, so subsequent
    // delay()s compute from t rather than the last fired event.
    if (!stopped_ && now_ < t) now_ = t;
}

void Environment::publish_engine_metrics() const noexcept {
    if (!metrics_) return;
    metrics_->gauge("des.events").set(static_cast<double>(events_fired_));
    metrics_->gauge("des.finished_processes")
        .set(static_cast<double>(finished_));
}

} // namespace borg::des
