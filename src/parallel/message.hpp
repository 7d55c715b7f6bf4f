#ifndef BORG_PARALLEL_MESSAGE_HPP
#define BORG_PARALLEL_MESSAGE_HPP

/// \file message.hpp
/// Transport-shared message payloads and channels for the physical
/// master-slave executors (threads and TCP).
///
/// The paper's implementation moved decision variables and objectives
/// between the master and workers as fixed-size MPI messages. Here the
/// same payloads ride two transports: an in-process mutex/condition-
/// variable channel with the semantics of a matched MPI_Send/MPI_Recv
/// pair (the thread executor; the master owns one send channel per worker
/// and all workers share one result channel — exactly the MPI_ANY_SOURCE
/// receive loop of the original), and the framed TCP protocol of
/// net/wire.hpp (the socket run manager sends the same variables as a
/// Task frame and gets objectives back as a Result frame). Both drivers
/// hand what arrives to the same master core (window_protocol.hpp), which
/// owns the task table and the ingest order; the payloads here are only
/// the thread driver's wire.
///
/// The in-process payloads carry no owning Solution (DESIGN.md §15). The
/// master resolves the pool slot's payload spans at dispatch time — block
/// storage is address-stable, so the spans survive pool growth — and the
/// worker evaluates straight into the slot's objective/constraint rows.
/// Only the task's (seq, slot) ticket and the worker's timings travel
/// back; the master stamps the `evaluated` flag (pool metadata stays
/// single-writer) and ingests without ever copying the payload.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

namespace borg::parallel {

/// How a physical master ingests results (DESIGN.md §14).
///
///  * `arrival` — classic asynchronous semantics: ingest each result the
///    moment it lands (MPI_ANY_SOURCE order). Maximum throughput, but the
///    archive depends on OS/network scheduling races.
///  * `dispatch` — the schedule-invariant window protocol: results are
///    reordered and ingested strictly in task-sequence order, and each
///    ingest funds the next offspring. The archive becomes a pure
///    function of (seed, window, evaluations) — byte-identical across
///    transports, worker counts below the window, mid-run joins/leaves,
///    and even kill -9 reassignment — at the cost of idling a fast worker
///    while an earlier result is still outstanding.
enum class IngestOrder : std::uint8_t { arrival, dispatch };

/// One evaluation travelling master -> worker. `seq` is the task's
/// sequence number and `slot` its row in the master's task table
/// (WindowProtocol); both come back with the result. The spans are the
/// pool slot's payload rows, resolved by the master before the send; the
/// worker writes objectives/constraints in place and never touches pool
/// metadata.
struct WorkPayload {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::span<const double> variables;
    std::span<double> objectives;
    std::span<double> constraints;
};

/// One evaluated result travelling worker -> master. The payload already
/// sits in the pool slot; only the claim ticket and the worker's timings
/// return.
struct ResultPayload {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::size_t worker = 0;
    double eval_seconds = 0.0; ///< measured T_F (problem.evaluate)
    std::chrono::steady_clock::time_point sent_at{};
};

/// Unbounded MPSC/SPSC blocking queue. close() wakes all receivers;
/// receive() returns std::nullopt once the channel is closed and drained.
template <typename T>
class Channel {
public:
    Channel() = default;
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    void send(T value) {
        {
            const std::lock_guard lock(mutex_);
            if (closed_) return; // messages to a closed channel are dropped
            queue_.push_back(std::move(value));
        }
        ready_.notify_one();
    }

    /// Blocks until a message arrives or the channel is closed and empty.
    std::optional<T> receive() {
        std::unique_lock lock(mutex_);
        ready_.wait(lock, [&] { return !queue_.empty() || closed_; });
        if (queue_.empty()) return std::nullopt;
        T value = std::move(queue_.front());
        queue_.pop_front();
        return value;
    }

    void close() {
        {
            const std::lock_guard lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> queue_;
    bool closed_ = false;
};

} // namespace borg::parallel

#endif
