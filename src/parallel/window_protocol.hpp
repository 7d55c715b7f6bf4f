#ifndef BORG_PARALLEL_WINDOW_PROTOCOL_HPP
#define BORG_PARALLEL_WINDOW_PROTOCOL_HPP

/// \file window_protocol.hpp
/// The real-time master above the wire, shared by every physical
/// transport (DESIGN.md §14): the thread executor's in-process channels
/// and the TCP run manager's sockets drive this one object.
///
/// It owns what the paper's master loop does between receiving a result
/// and sending work:
///
///   * the real-time ClusterEngine (its external mode), so every transport
///     emits one trace and one `<prefix>.*` metric schema and feeds the
///     recorder and the policy's observers as the virtual executors do;
///   * window seeding — W tasks claimed before any ingest, which makes the
///     dispatch-order archive a pure function of (seed, W, N);
///   * the task table, the tasks awaiting a worker, and the workers'
///     dispatch credits, matched FIFO on both sides;
///   * ingest order: IngestOrder::arrival ingests a result as it lands;
///     IngestOrder::dispatch parks it until every lower seq is ingested.
///
/// The task table has exactly W slots. Seeding puts seq k in slot k, and
/// each funded task takes the slot of the result that funded it, so under
/// dispatch ingest seq s lives in slot s % W and the table doubles as the
/// reorder buffer. Each slot keeps its seq: a result whose slot holds
/// another seq, or whose own result already landed, is stale.
///
/// The driver owns the wire: delivering tasks, writing returned
/// objectives into the task's work item, worker liveness, and re-queueing
/// a lost worker's tasks.

#include <cstdint>
#include <vector>

#include "des/ring_queue.hpp"
#include "parallel/cluster_engine.hpp"
#include "parallel/message.hpp"
#include "parallel/run_context.hpp"

namespace borg::parallel {

class WindowProtocol {
public:
    /// What a landed result carries besides its payload.
    struct Arrival {
        std::uint32_t worker = 0;
        double eval_seconds = 0.0; ///< measured T_F
        double measured_tc = 0.0;  ///< measured result-return latency
    };

    /// One dispatched evaluation. The master retains the whole work item
    /// (operator tag included); the transport only moves variables out
    /// and objectives back, so the ingested solution is bit-exact with
    /// what the policy generated however often the task was re-sent.
    struct Task {
        WorkItem work;
        std::uint64_t seq = 0;
        std::uint32_t dispatch_count = 0;
        /// Wall-clock nanoseconds of the latest send, stamped by a driver
        /// that reports dispatch -> ingest latency (0: not measured).
        std::uint64_t dispatched_at_ns = 0;
        /// The result landed (parked or ingested). Another result for
        /// the same seq is a duplicate.
        bool done = false;
        Arrival arrival; ///< filled when the result lands
    };

    /// \p window (W >= 1) tasks stay in flight; it is also the engine's
    /// worker count (processors = W + 1). \p ta_samples, if given,
    /// receives the applied T_A of every ingested result.
    WindowProtocol(std::size_t window, IngestOrder ingest,
                   const RunContext& ctx,
                   std::vector<double>* ta_samples = nullptr);

    /// Starts the run and claims the window: tasks 0..W-1 (fewer if the
    /// policy's budget ends first) queue for dispatch.
    void begin(EventMasterPolicy& policy, std::uint64_t evaluations);

    /// Ends the run: collects the result, emits run_end, publishes the
    /// engine's metrics and runs the policy's finalize hook.
    VirtualRunResult finish() { return engine_.external_finish(); }

    bool finished() const noexcept { return finished_; }
    /// Wall-clock seconds since begin().
    double now() const noexcept { return engine_.now(); }

    /// A worker joined: emits worker_spawn.
    void spawn(std::uint32_t worker) { engine_.external_spawn(ref_of(worker)); }
    /// A worker died: emits worker_failure and counts it. Its tasks are
    /// the driver's to re-queue.
    void worker_failed(std::uint32_t worker) {
        engine_.external_worker_failure(ref_of(worker));
    }

    /// Gives \p worker one dispatch credit (one more task it can hold).
    void add_credit(std::uint32_t worker) { idle_.push_back(worker); }

    /// Matches queued tasks to credits, FIFO on both sides. A credit
    /// whose worker fails `usable(worker)` (it died, or is already full)
    /// is dropped. `send(worker, slot, task)` delivers the task; it may
    /// re-queue tasks (a send that reaps its connection).
    template <typename Usable, typename Send>
    void dispatch(Usable&& usable, Send&& send) {
        while (!pending_.empty() && !idle_.empty()) {
            const std::uint32_t worker = idle_.front();
            idle_.pop_front();
            if (!usable(worker)) continue;
            const std::uint32_t slot = pending_.front();
            pending_.pop_front();
            Task& task = tasks_[slot];
            ++task.dispatch_count;
            send(worker, slot, task);
        }
    }

    /// The task in \p slot if it still awaits the result of \p seq;
    /// nullptr when that result is stale.
    Task* outstanding(std::uint32_t slot, std::uint64_t seq) noexcept {
        if (slot >= tasks_.size()) return nullptr;
        Task& task = tasks_[slot];
        return (task.seq == seq && !task.done) ? &task : nullptr;
    }

    /// Puts a lost task back at the head of the queue (the lowest
    /// outstanding seq gates dispatch-order ingest, so it runs first).
    void requeue(std::uint32_t slot) { pending_.push_front(slot); }

    /// The result for the task in \p slot landed and its payload is in
    /// the task's work item. Ingests it (arrival) or parks it and ingests
    /// every result that became consecutive (dispatch); each ingest may
    /// fund one task, which takes the ingested slot and queues.
    void complete(std::uint32_t slot, const Arrival& arrival);

    /// Summed dispatch -> ingest wall latency over tasks whose driver
    /// stamped dispatched_at_ns.
    double latency_sum_s() const noexcept { return latency_sum_s_; }

private:
    static WorkerRef ref_of(std::uint32_t worker) {
        const auto id = static_cast<std::size_t>(worker);
        return WorkerRef{0, id, id};
    }

    /// Places a policy-produced work item in \p slot under the next seq
    /// and queues it.
    void install(std::uint32_t slot, WorkItem&& work);
    void ingest(std::uint32_t slot);

    ClusterEngine engine_;
    IngestOrder ingest_;
    std::vector<double>* ta_samples_;
    std::vector<Task> tasks_;
    des::RingQueue<std::uint32_t> pending_; ///< slots awaiting a worker
    /// Dispatch credits: worker ids with capacity. A worker with depth d
    /// appears up to d times.
    des::RingQueue<std::uint32_t> idle_;
    std::uint64_t issued_ = 0;      ///< next seq to assign
    std::uint64_t next_ingest_ = 0; ///< dispatch: the seq whose turn it is
    double latency_sum_s_ = 0.0;
    bool finished_ = false;
};

} // namespace borg::parallel

#endif
