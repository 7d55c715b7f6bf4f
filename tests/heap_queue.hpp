#ifndef BORG_TESTS_HEAP_QUEUE_HPP
#define BORG_TESTS_HEAP_QUEUE_HPP

/// \file heap_queue.hpp
/// Test-only oracle for des::CalendarQueue (src/des/event_queue.hpp): the
/// pre-rebuild engine's std::priority_queue binary heap, kept verbatim.
/// Its pop order — ascending (time, seq), same-time events FIFO by
/// scheduling sequence number — is the order the calendar queue must
/// reproduce exactly. tests/test_des.cpp feeds both queues one reactive
/// push/pop stream in lockstep, and bench/micro_des times and hashes both
/// on the same hold loop. O(log n) per operation with a full-depth sift on
/// every pop.
///
/// ParkedFrames supplies the handles such a queue-level driver pushes:
/// distinct, real coroutine frames that are never resumed.

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace borg::des {

/// One scheduled resumption, as popped from the heap.
struct EventRecord {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle;
};

/// The original binary-heap store, verbatim from the pre-calendar engine.
class HeapQueue {
public:
    void push(double time, std::uint64_t seq,
              std::coroutine_handle<> handle) {
        queue_.push(Scheduled{time, seq, handle});
    }

    /// Pops the earliest event into \p out if its time is <= max_time.
    bool pop_if(double max_time, EventRecord& out) {
        if (queue_.empty()) return false;
        const Scheduled& top = queue_.top();
        if (top.time > max_time) return false;
        out = {top.time, top.seq, top.handle};
        queue_.pop();
        return true;
    }

    bool empty() const noexcept { return queue_.empty(); }
    std::size_t size() const noexcept { return queue_.size(); }

private:
    struct Scheduled {
        double time;
        std::uint64_t seq;
        std::coroutine_handle<> handle;
        bool operator>(const Scheduled& other) const noexcept {
            if (time != other.time) return time > other.time;
            return seq > other.seq;
        }
    };

    std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
        queue_;
};

/// \p count distinct coroutine frames, created suspended and destroyed
/// unresumed, so a queue can be driven without an Environment. Frame i
/// carries i in its promise: index_of() maps a popped handle back to its
/// frame in O(1), touching the frame the way a resume would.
class ParkedFrames {
public:
    explicit ParkedFrames(std::size_t count) {
        frames_.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            frames_.push_back(park(i).handle);
    }
    ParkedFrames(const ParkedFrames&) = delete;
    ParkedFrames& operator=(const ParkedFrames&) = delete;
    ~ParkedFrames() {
        for (const auto frame : frames_) frame.destroy();
    }

    std::size_t size() const noexcept { return frames_.size(); }
    std::coroutine_handle<> operator[](std::size_t i) const noexcept {
        return frames_[i];
    }

    static std::size_t index_of(std::coroutine_handle<> handle) noexcept {
        return Handle::from_address(handle.address()).promise().index;
    }

private:
    struct Frame {
        struct promise_type {
            explicit promise_type(std::size_t i) noexcept : index(i) {}
            Frame get_return_object() noexcept {
                return {std::coroutine_handle<promise_type>::from_promise(
                    *this)};
            }
            std::suspend_always initial_suspend() noexcept { return {}; }
            std::suspend_always final_suspend() noexcept { return {}; }
            void return_void() noexcept {}
            void unhandled_exception() noexcept {}

            std::size_t index;
        };
        std::coroutine_handle<promise_type> handle;
    };
    using Handle = std::coroutine_handle<Frame::promise_type>;

    static Frame park([[maybe_unused]] std::size_t index) { co_return; }

    std::vector<Handle> frames_;
};

} // namespace borg::des

#endif
