#ifndef BORG_PARALLEL_CLUSTER_ENGINE_HPP
#define BORG_PARALLEL_CLUSTER_ENGINE_HPP

/// \file cluster_engine.hpp
/// The one virtual-time master-slave engine behind every executor and the
/// paper's simulation model.
///
/// The paper compares a single scheduling protocol across incarnations —
/// analytical model, discrete-event simulation, real-algorithm runs
/// (Sections III–V). Before this engine existed the codebase implemented
/// that protocol five times over; model-vs-experiment agreement rested on
/// five hand-synchronized copies of the same worker loop. Now there is one
/// engine owning everything protocol-generic:
///
///   * worker lifecycle — spawn, evaluate, fail (worker_failure_at),
///     retire — for any number of master groups (islands);
///   * the T_F/T_C/T_A sampling streams, with per-worker `worker_speed`
///     scaling and sample mirroring into trace + histograms;
///   * the master as a capacity-1 FIFO `des::Resource` per group, with
///     queue-wait, contention, and busy-fraction accounting (the
///     generational driver reproduces the same accounting arithmetic
///     without a resource, since a barrier never interleaves);
///   * all obs emission: typed trace events and metric instruments under
///     the policy's prefix.
///
/// What a protocol *means* is supplied by a MasterPolicy: what to dispatch
/// to a free worker, how the master ingests a result, what the service
/// hold costs, and — for barrier protocols — how a generation is planned
/// and processed. The four executors and the simulation model are thin
/// policies over this engine, so the simulation model provably shares
/// scheduling code with the real-algorithm executors (DESIGN.md §10).
///
/// Determinism contract: policies draw every virtual-time cost through the
/// engine's sample_* helpers, in the exact order the protocol charges
/// them. The engine never draws from a policy's stream behind its back —
/// bookkeeping (wait/hold accumulators, counters) consumes no randomness —
/// so fixed seeds reproduce byte-identical event traces
/// (tests/test_golden_traces.cpp holds the fixtures).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "des/environment.hpp"
#include "moea/solution_pool.hpp"
#include "parallel/run_context.hpp"
#include "parallel/virtual_cluster.hpp"
#include "stats/distribution.hpp"
#include "stats/summary.hpp"

namespace borg::des {
class Resource;
} // namespace borg::des

namespace borg::obs {
class Histogram;
} // namespace borg::obs

namespace borg::util {
class Rng;
}

namespace borg::parallel {

class ClusterEngine;
class TimeModel;

/// Identity of one virtual worker. `global` indexes the engine-wide
/// worker_speed / worker_failure_at arrays (workers are numbered in spawn
/// order across groups); `group`/`local` locate it inside its island.
struct WorkerRef {
    std::size_t group = 0;
    std::size_t local = 0;
    std::size_t global = 0;
};

/// One master group: a master resource plus its sampling stream. Single
/// -master protocols use exactly one; the multi-master executor one per
/// island.
struct GroupSpec {
    std::uint64_t workers = 0;
    std::uint64_t rng_seed = 1;
    /// Stamped into this group's resource trace events (`actor` field).
    std::int64_t trace_id = 0;
};

/// What a worker carries between master interactions: a pool claim —
/// `pool` + `handle` name the row the offspring lives in, the worker's
/// objectives land in that row, and ingestion moves the handle instead of
/// copying the payload. The statistics-only simulation policy leaves
/// `pool` null — the work item then only marks "has work". If a worker
/// dies holding a claim, the engine returns the row to the pool before
/// telling the policy.
struct WorkItem {
    moea::SolutionPool* pool = nullptr;
    moea::SolutionHandle handle;

    /// Stamped by the engine: the applied T_F of this item's evaluation
    /// (available from serve() on; 0 before). Real-time runs measure T_F
    /// out-of-band and leave this 0.
    double eval_seconds = 0.0;
    /// Stamped by the engine at dispatch: the completion counter at the
    /// moment this item was handed to a worker. serve() reads staleness as
    /// engine.completed() - dispatched_at_completed — how many results the
    /// master ingested while this one was in flight.
    std::uint64_t dispatched_at_completed = 0;
    /// Policy-owned sequence number (0 when unused). The speculative
    /// policy tags a duplicate with its primary's task_seq so the second
    /// arrival of a pair can be recognized and discarded.
    std::uint64_t task_seq = 0;
};

/// Protocol identity shared by both driver shapes.
class MasterPolicy {
public:
    virtual ~MasterPolicy() = default;

    /// Metric-name prefix, e.g. "async" -> "async.results".
    virtual const char* prefix() const noexcept = 0;

    /// Whether T_F/T_C/T_A draws are mirrored into the trace as
    /// tf_sample/tc_sample/ta_sample events. The multi-master executor
    /// turns this off (its traces identify work through per-island
    /// result/hold events instead, as they always have).
    virtual bool trace_samples() const noexcept { return true; }
};

/// Policy for event-driven (asynchronous) protocols: each worker loops
/// evaluate -> queue for its master -> be serviced, with no barrier. The
/// engine drives the des::Environment; hooks run inside worker coroutines.
class EventMasterPolicy : public MasterPolicy {
public:
    /// Outcome of one master service (the engine charges `hold` to the
    /// group's master and then releases it).
    struct Service {
        double hold = 0.0;
        std::optional<WorkItem> next; ///< nullopt retires the worker
    };

    /// Called under the initial master hold: claim/produce the first work
    /// item, or nullopt when the run needs no more workers. Must not
    /// sample the engine streams (the engine charges the initial T_C).
    virtual std::optional<WorkItem>
    dispatch_initial(ClusterEngine& engine, const WorkerRef& worker) = 0;

    /// Computes the real objectives (a no-op for statistics-only
    /// policies). Runs before the T_F delay is charged.
    virtual void evaluate(WorkItem& work) = 0;

    /// The master service, called when the worker is granted the master:
    /// ingest `work`, decide the next dispatch, and price the hold by
    /// drawing T_A/T_C through the engine in protocol order.
    virtual Service serve(ClusterEngine& engine, const WorkerRef& worker,
                          WorkItem work) = 0;

    /// A worker hit its failure time while holding unfinished work; return
    /// the claim to the pool. The engine counts the failure and emits the
    /// worker_failure event.
    virtual void on_worker_failure(ClusterEngine& engine,
                                   const WorkerRef& worker) = 0;

    /// Emit the policy's per-result events / recorder checkpoint. Runs
    /// after the service hold is released and the completion counter has
    /// been advanced, before the engine's target check.
    virtual void record_result(ClusterEngine& engine,
                               const WorkerRef& worker) = 0;

    /// Runs after record_result and the target check; the island policy
    /// launches ring migrations from here.
    virtual void after_result(ClusterEngine& engine, const WorkerRef& worker) {
        (void)engine;
        (void)worker;
    }

    /// Emits the worker_spawn trace event for one worker. The default is
    /// the single-master shape {actor = global index}; the multi-master
    /// policy stamps {actor = island, count = local} instead.
    virtual void record_spawn(ClusterEngine& engine, const WorkerRef& worker);

    /// Policy-specific instruments beyond the engine's uniform set
    /// (e.g. mm.migrations).
    virtual void publish_extra_metrics(ClusterEngine& engine,
                                       obs::MetricsRegistry& metrics) {
        (void)engine;
        (void)metrics;
    }

    /// Runs last (after run_end and metrics publication) with the final
    /// result — the recorder-finalize hook.
    virtual void finalize(ClusterEngine& engine,
                          const VirtualRunResult& result) {
        (void)engine;
        (void)result;
    }
};

/// Policy for barrier (generational) protocols: the run is a sequence of
/// generations — plan/evaluate, serialized sends, serialized receives
/// gated on the master's own evaluation, whole-generation ingest. The
/// engine drives the clock arithmetic and all shared accounting; it needs
/// no des::Environment because a barrier never interleaves services.
class GenerationalMasterPolicy : public MasterPolicy {
public:
    struct Plan {
        std::size_t batch = 0; ///< offspring evaluated this generation
        std::size_t nodes = 0; ///< participating nodes incl. master (>= 1)
    };

    struct Ingest {
        double ta_sync = 0.0;      ///< whole-generation processing time
        double ta_per_offspring = 0.0; ///< ta_sync / batch (the reported T_A)
    };

    /// Produce and price the next generation. `alive_workers` holds the
    /// global indices of workers that have not failed; node k >= 1 of the
    /// plan is alive_workers[k - 1], node 0 the master. Policies that
    /// draw T_F up front (the real sync executor) do so here through
    /// gen_sample_tf; lazy policies (the simulation model) defer to
    /// node_eval_time.
    virtual Plan plan(ClusterEngine& engine, std::uint64_t completed,
                      std::uint64_t target,
                      const std::vector<std::size_t>& alive_workers) = 0;

    /// Summed evaluation time of node \p node this generation, queried
    /// during the send sweep (workers, in node order, then the master).
    virtual double node_eval_time(ClusterEngine& engine, double at,
                                  std::size_t node) = 0;

    /// Whole-generation master processing: ingest the results and price
    /// T_A^sync (one draw per offspring, or the measured ingest time).
    virtual Ingest ingest(ClusterEngine& engine, std::size_t batch) = 0;

    /// Recorder checkpoint after a generation is ingested.
    virtual void record_generation(ClusterEngine& engine, double now,
                                   std::uint64_t completed) {
        (void)engine;
        (void)now;
        (void)completed;
    }

    /// See EventMasterPolicy::finalize.
    virtual void finalize(ClusterEngine& engine,
                          const VirtualRunResult& result) {
        (void)engine;
        (void)result;
    }
};

/// One run of the engine. Construct, call exactly one of run_events /
/// run_generational, read the result (and any per-group statistics the
/// wrapping executor's result type needs).
class ClusterEngine {
public:
    struct Setup {
        /// Required sampling streams; ta == nullptr means "measure the
        /// real master step" (policies pass the measured seconds into
        /// sample_ta).
        const stats::Distribution* tf = nullptr;
        const stats::Distribution* tc = nullptr;
        const stats::Distribution* ta = nullptr;
        /// Heterogeneous T_F model (DESIGN.md §17). When set, event-path
        /// T_F draws go through the model (which owns the whole per-worker
        /// story — Setup.worker_speed is NOT applied on top) instead of
        /// `tf`; `tf` may then be null. Event-path only: run_generational
        /// rejects a Setup carrying a model. Non-owning; must outlive the
        /// engine. The model's mutable state ties it to one run — reset()
        /// it before reuse.
        TimeModel* time_model = nullptr;
        /// Total processors (masters + workers) — run_start payload only.
        std::uint64_t processors = 0;
        /// Per-worker multipliers/failure times indexed by global worker
        /// index; empty means homogeneous / failure-free.
        std::vector<double> worker_speed;
        std::vector<double> worker_failure_at;
        std::vector<GroupSpec> groups;
        /// Pending-event store for the DES (event-driven runs only). Both
        /// stores produce byte-identical schedules; `heap` is the
        /// pre-rebuild oracle kept for equivalence gates (DESIGN.md §13).
        des::QueuePolicy queue = des::QueuePolicy::calendar;
        /// Real-time (external-drive) mode: a physical transport owns the
        /// event loop and feeds the engine through the external_* hooks
        /// (via WindowProtocol, window_protocol.hpp); now() is wall-clock seconds since
        /// external_begin, T_A is measured, and T_C is fed from measured
        /// transport latency (tf/tc/ta distributions may all be null).
        /// run_events/run_generational are unavailable in this mode
        /// (DESIGN.md §14).
        bool real_time = false;
    };

    ClusterEngine(Setup setup, const RunContext& ctx);
    ~ClusterEngine();

    ClusterEngine(const ClusterEngine&) = delete;
    ClusterEngine& operator=(const ClusterEngine&) = delete;

    VirtualRunResult run_events(EventMasterPolicy& policy,
                                std::uint64_t evaluations);
    VirtualRunResult run_generational(GenerationalMasterPolicy& policy,
                                      std::uint64_t evaluations);

    // ------------------------------------------- external (real-time) drive
    // A real transport (threads or TCP, through the one WindowProtocol
    // core that calls these) owns the event loop; the engine keeps owning
    // what it always owned — policy invocation order, trace/metrics
    // emission, completion accounting — so an EventMasterPolicy written
    // for the virtual cluster runs unchanged over real hardware. All
    // external_* calls require Setup.real_time and run on the driving
    // thread.

    /// Starts an externally driven run: installs the policy, arms the
    /// wall clock, emits run_start.
    void external_begin(EventMasterPolicy& policy, std::uint64_t evaluations);
    /// A real worker joined (after handshake): emits worker_spawn.
    void external_spawn(const WorkerRef& worker);
    /// Claims one initial work item from the policy (window seeding).
    std::optional<WorkItem> external_dispatch_initial(const WorkerRef& worker);

    struct ExternalServe {
        std::optional<WorkItem> next; ///< fresh work, if the budget allows
        bool finished = false;        ///< target reached with this result
        double ta = 0.0;              ///< the T_A this service applied
    };
    /// One master service: feeds \p measured_tf into the T_F accounting,
    /// runs policy.serve (which measures its own T_A), charges the hold,
    /// advances completion, and fires record_result / after_result exactly
    /// as the virtual driver would. \p measured_tc is the observed
    /// result-return latency, observed into `<prefix>.tc_seconds` and
    /// consumed by the policy's first sample_tc draw.
    ExternalServe external_result(const WorkerRef& worker, WorkItem work,
                                  double measured_tf, double measured_tc);
    /// A real worker died (socket EOF or heartbeat timeout). Emits
    /// worker_failure and counts it. The policy is *not* told: unlike the
    /// virtual cluster, a real transport retains the dispatched solution
    /// and reassigns it, so no claim is lost.
    void external_worker_failure(const WorkerRef& worker);
    /// Ends the run: collects the result, emits run_end, publishes
    /// metrics, and runs the policy's finalize hook.
    VirtualRunResult external_finish();

    // ----------------------------------------------------- policy services

    /// The DES environment (event-driven runs only; policies spawn side
    /// processes such as migrations on it).
    des::Environment& env() noexcept { return *env_; }
    /// Current virtual time — env().now() on the event path, the
    /// generational driver's clock otherwise.
    double now() const noexcept;

    std::uint64_t target() const noexcept { return target_; }
    std::uint64_t completed() const noexcept { return completed_; }
    bool measured_ta() const noexcept { return setup_.ta == nullptr; }

    obs::TraceSink* trace() noexcept { return ctx_.trace; }
    TrajectoryRecorder* recorder() noexcept { return ctx_.recorder; }
    obs::MetricsRegistry* metrics() noexcept { return ctx_.metrics; }

    util::Rng& group_rng(std::size_t group) noexcept;
    des::Resource& group_master(std::size_t group) noexcept;
    std::size_t group_count() const noexcept { return groups_.size(); }
    std::uint64_t group_evaluations(std::size_t group) const noexcept;
    double group_hold(std::size_t group) const noexcept;

    double speed_of(std::size_t global_worker) const noexcept;
    double failure_time_of(std::size_t global_worker) const noexcept;

    /// Draws a speed-scaled T_F for \p worker from its group stream —
    /// through Setup.time_model when one is set (conditioning on worker,
    /// time, and \p work's decision variables), the flat tf distribution ×
    /// worker_speed otherwise — feeding the tf accumulator/histogram and
    /// (if trace_samples) a tf_sample event at the current time with
    /// actor = global index. Negative draws (a high-cv NormalDistribution
    /// T_F) are truncated to zero *here*, counted in clamped_samples(),
    /// so the applied, traced, and accumulated values agree — they used
    /// to disagree, with des::Environment::delay clamping silently after
    /// the negative value had already been recorded.
    double sample_tf(const WorkerRef& worker, const WorkItem* work = nullptr);
    /// Draws a T_C from \p group's stream (tc_sample at current time).
    /// Negative draws clamp to zero and count, as with sample_tf.
    double sample_tc(std::size_t group, std::int64_t actor);
    /// Applied T_A: drawn from the configured distribution, or
    /// \p measured_seconds under measured mode. Feeds the ta
    /// accumulator/histogram (ta_sample at current time). Negative draws
    /// clamp to zero and count, as with sample_tf.
    double sample_ta(std::size_t group, std::int64_t actor,
                     double measured_seconds);

    /// How many sample_tf/tc/ta (and gen_sample_*) draws were negative
    /// and truncated to zero this run. Nonzero means the configured
    /// distribution puts real mass below zero — the run is still valid
    /// (the applied values are what the accounting and traces show), but
    /// the effective distribution is not the configured one. Published as
    /// `<prefix>.clamped_samples` when nonzero.
    std::uint64_t clamped_samples() const noexcept { return clamped_samples_; }

    /// Queue-wait accounting shared by worker acquires and policy side
    /// processes (migrations) — keeps the engine's reported mean equal to
    /// what obs::recompute derives from the grant events.
    void add_wait(double wait);
    /// Charges master hold time to \p group and emits the master_hold
    /// event (at the current time, before the delay is taken).
    void add_hold(std::size_t group, double hold);

    // ------------------------------- generational-driver sampling helpers
    // (explicit event times: the barrier driver time-stamps samples at
    // protocol positions, not at a DES clock; \p group names the stream —
    // these used to draw from group 0 unconditionally, silently sharing
    // one stream across islands)

    double gen_sample_tf(std::size_t group, double at, std::int64_t actor,
                         double speed);
    double gen_sample_tc(std::size_t group, double at, std::int64_t actor);

private:
    struct Group;

    des::Process worker_loop(EventMasterPolicy& policy, WorkerRef worker);
    /// Truncates a negative timing draw to zero, counting it (the clamp
    /// lives at the sampling boundary so traces/accumulators/applied
    /// delays agree — see sample_tf).
    double clamp_negative(double v);
    void emit_run_start();
    VirtualRunResult collect(double elapsed_fallback);
    void publish_metrics(const char* prefix, const VirtualRunResult& result);
    /// Marks workers whose failure time has passed as dead (emitting
    /// worker_failure); returns true if any worker died now.
    bool reap_dead_workers(double now, std::vector<std::size_t>& alive,
                           std::vector<char>& dead);

    Setup setup_;
    RunContext ctx_;
    std::unique_ptr<des::Environment> env_;
    std::vector<std::unique_ptr<Group>> groups_;
    MasterPolicy* policy_ = nullptr; ///< set for the duration of a run
    /// External-drive state (real-time mode only).
    EventMasterPolicy* external_policy_ = nullptr;
    std::chrono::steady_clock::time_point real_start_{};
    double pending_tc_ = 0.0; ///< next measured T_C, consumed by sample_tc
    double last_ta_ = 0.0;    ///< the latest sample_ta value

    std::uint64_t target_ = 0;
    std::uint64_t completed_ = 0;
    std::size_t failed_workers_ = 0;
    bool finished_ = false; ///< explicit: a t=0 finish is a valid finish
    double finish_time_ = 0.0;
    double gen_now_ = 0.0; ///< generational driver clock
    bool generational_ = false;
    /// Generational-path acquire accounting (the event path reads the
    /// group resources instead).
    std::uint64_t gen_acquires_ = 0;
    std::uint64_t gen_contended_ = 0;

    std::uint64_t clamped_samples_ = 0;

    stats::Accumulator queue_wait_;
    stats::Accumulator ta_applied_;
    stats::Accumulator tf_applied_;
    obs::Histogram* h_tf_ = nullptr;
    obs::Histogram* h_ta_ = nullptr;
    obs::Histogram* h_wait_ = nullptr;
    obs::Histogram* h_tc_ = nullptr; ///< measured T_C (real-time mode)
};

} // namespace borg::parallel

#endif
