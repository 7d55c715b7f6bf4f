#ifndef BORG_DES_ENVIRONMENT_HPP
#define BORG_DES_ENVIRONMENT_HPP

/// \file environment.hpp
/// A deterministic discrete-event simulation (DES) engine with SimPy
/// semantics, built on C++20 coroutines.
///
/// The paper's simulation model was written in SimPy 2.3: simulated
/// "processes" hold resources for sampled amounts of time instead of doing
/// real work, and the engine advances a virtual clock from event to event.
/// This module is the C++ substitute. A simulation process is a coroutine
/// returning des::Process; it suspends on awaitables created by the
/// environment (delays) or by synchronization primitives (resources, events,
/// declared in resource.hpp).
///
/// Example — the paper's master-interaction fragment:
/// \code
///   des::Process worker(des::Environment& env, des::Resource& master, ...) {
///       while (more_work()) {
///           co_await master.acquire();                 // yield request
///           co_await env.delay(tc() + ta() + tc());    // yield hold
///           master.release();                          // yield release
///           co_await env.delay(tf());                  // evaluate
///       }
///   }
/// \endcode
///
/// Determinism: events scheduled for the same virtual time fire in FIFO
/// scheduling order, and resources grant strictly FIFO, so a run is a pure
/// function of its inputs (including RNG seeds).
///
/// Scale (DESIGN.md §13): pending events live in a calendar queue over a
/// flat slot arena (O(1) amortized dispatch). Coroutine frames come from a
/// thread-local size-class pool (frame_pool.hpp) and are reclaimed eagerly
/// the moment a process finishes, so a 10^6-worker saturation run neither
/// hammers the global allocator nor accretes dead frames.

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <vector>

#include "des/event_queue.hpp"
#include "des/frame_pool.hpp"

namespace borg::obs {
class TraceSink;
class MetricsRegistry;
} // namespace borg::obs

namespace borg::des {

class Environment;

/// Owning handle for a simulation process coroutine. Movable, not copyable.
/// The coroutine starts suspended; Environment::spawn takes ownership of
/// the frame (the handle becomes invalid) and schedules its first step at
/// the current virtual time. Once spawned, the frame is destroyed — and
/// its pooled memory recycled — the moment the process runs to completion;
/// frames still suspended when the environment dies are destroyed by the
/// environment's destructor.
class Process {
public:
    struct promise_type {
        Process get_return_object() noexcept;
        std::suspend_always initial_suspend() noexcept { return {}; }

        /// Reports completion — and any escaped exception — to the
        /// environment, then lets the coroutine finish without suspending
        /// so the frame frees itself back to the pool in O(1).
        auto final_suspend() noexcept;

        void return_void() noexcept {}
        void unhandled_exception() noexcept {
            exception = std::current_exception();
        }

        /// Frames are pooled by size class (frame_pool.hpp): steady-state
        /// spawn/finish cycles recycle frames without touching malloc.
        static void* operator new(std::size_t bytes) {
            return detail::frame_allocate(bytes);
        }
        static void operator delete(void* block, std::size_t bytes) noexcept {
            detail::frame_deallocate(block, bytes);
        }

        Environment* env = nullptr;
        std::uint32_t slot = 0;
        std::exception_ptr exception;
    };

    Process() noexcept = default;
    Process(Process&& other) noexcept;
    Process& operator=(Process&& other) noexcept;
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;
    ~Process();

    bool valid() const noexcept { return handle_ != nullptr; }

private:
    friend class Environment;
    explicit Process(std::coroutine_handle<promise_type> handle) noexcept
        : handle_(handle) {}

    std::coroutine_handle<promise_type> handle_;
};

/// The simulation environment: virtual clock plus a time-ordered event
/// queue of suspended coroutine resumptions.
class Environment {
public:
    Environment() = default;
    Environment(const Environment&) = delete;
    Environment& operator=(const Environment&) = delete;
    ~Environment();

    /// Current virtual time in seconds.
    double now() const noexcept { return now_; }

    /// Registers a process and schedules its first step at now().
    /// The environment takes ownership of the coroutine frame.
    void spawn(Process process);

    /// Awaitable that suspends the calling process for \p dt virtual
    /// seconds. Negative delays clamp to zero; non-finite delays (NaN,
    /// +/-inf) throw std::invalid_argument — silently admitting a NaN
    /// would corrupt the queue's ordering, since every NaN comparison is
    /// false.
    auto delay(double dt);

    /// Runs until the event queue is empty or stop() was called (a prior
    /// stop is cleared on entry, so calling run() again resumes the
    /// remaining events). Rethrows the first exception that escaped any
    /// process; engine metrics are published on every exit path,
    /// exceptional or not.
    void run();

    /// Runs until now() would exceed \p t (events at exactly t still
    /// fire). On every non-stopped exit the clock is advanced to \p t —
    /// SimPy run(until=...) semantics — whether or not later events remain
    /// queued, so a subsequent delay() never computes from a stale clock.
    void run_until(double t);

    /// Requests the run loop to halt after the current event completes.
    /// Callable from inside a process (e.g. when N evaluations finished).
    void stop() noexcept { stopped_ = true; }

    bool stopped() const noexcept { return stopped_; }

    /// Count of processes that have run to completion.
    std::size_t finished_processes() const noexcept { return finished_; }

    /// Count of spawned processes whose frames are still live (suspended
    /// or running). Teardown destroys exactly these.
    std::size_t live_processes() const noexcept {
        return live_.size() - free_slots_.size();
    }

    /// Total events dispatched so far (diagnostic / test hook).
    std::uint64_t event_count() const noexcept { return events_fired_; }

    /// Attaches a trace sink (nullable). The environment itself emits
    /// nothing; primitives built on it (Resource) and executors read this
    /// pointer and record typed events when it is non-null. Emission sites
    /// pay one branch when no sink is attached.
    void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }
    obs::TraceSink* trace() const noexcept { return trace_; }

    /// Attaches a metrics registry (nullable). run()/run_until() publish
    /// the engine gauges ("des.events", "des.finished_processes") on exit
    /// — including the exception exit path — so the gauges stay truthful
    /// after a process fault; executors reuse the same registry for their
    /// own instruments.
    void set_metrics(obs::MetricsRegistry* metrics) noexcept {
        metrics_ = metrics;
    }
    obs::MetricsRegistry* metrics() const noexcept { return metrics_; }

    /// Schedules \p handle to resume at absolute virtual time \p t >=
    /// now(). Throws std::invalid_argument for non-finite \p t and
    /// std::logic_error for times in the past. Public so synchronization
    /// primitives (Resource, Event) can reschedule their waiters; not
    /// intended for direct use by simulation code.
    void schedule_at(std::coroutine_handle<> handle, double t) {
        if (!std::isfinite(t))
            throw std::invalid_argument(
                "schedule_at: non-finite event time");
        if (t < now_)
            throw std::logic_error("schedule_at: cannot schedule in the past");
        queue_.push(t, next_seq_++, handle);
    }

    /// Called by Process::promise_type at final suspend, just before the
    /// frame destroys itself. Internal.
    void on_process_finished(Process::promise_type& promise) noexcept;

private:
    /// Dispatches every event due by \p max_time until the queue runs
    /// dry or stop() is called; the loop run() and run_until() share.
    void dispatch_until(double max_time);

    void publish_engine_metrics() const noexcept;

    /// Publishes the engine gauges on every exit from run()/run_until(),
    /// including unwinds caused by a throwing process.
    struct MetricsOnExit {
        const Environment& env;
        ~MetricsOnExit() { env.publish_engine_metrics(); }
    };

    double now_ = 0.0;
    bool stopped_ = false;
    obs::TraceSink* trace_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
    std::uint64_t next_seq_ = 0;
    std::uint64_t events_fired_ = 0;
    std::size_t finished_ = 0;
    std::exception_ptr first_exception_;
    CalendarQueue queue_;

    /// Slot-indexed registry of live frames (null = free slot, chained
    /// through free_slots_). Finishing processes clear their own slot in
    /// O(1); the destructor reaps whatever is left.
    std::vector<std::coroutine_handle<Process::promise_type>> live_;
    std::vector<std::uint32_t> free_slots_;
};

inline auto Process::promise_type::final_suspend() noexcept {
    struct FinalAwaiter {
        promise_type& promise;
        /// Never suspends: report, then fall through so the frame is
        /// destroyed (and its memory pooled) right here.
        bool await_ready() const noexcept {
            if (promise.env) promise.env->on_process_finished(promise);
            return true;
        }
        void await_suspend(std::coroutine_handle<>) const noexcept {}
        void await_resume() const noexcept {}
    };
    return FinalAwaiter{*this};
}

namespace detail {
/// Awaiter for Environment::delay.
struct TimeoutAwaiter {
    Environment& env;
    double dt;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) const {
        env.schedule_at(handle, env.now() + dt);
    }
    void await_resume() const noexcept {}
};
} // namespace detail

inline auto Environment::delay(double dt) {
    if (!std::isfinite(dt))
        throw std::invalid_argument("delay: non-finite duration");
    return detail::TimeoutAwaiter{*this, dt < 0.0 ? 0.0 : dt};
}

} // namespace borg::des

#endif
