#include "parallel/cluster_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "des/resource.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/time_model.hpp"
#include "util/rng.hpp"

namespace borg::parallel {

struct ClusterEngine::Group {
    std::unique_ptr<des::Resource> master;
    util::Rng rng{1};
    std::uint64_t evaluations = 0;
    double hold = 0.0;
};

void EventMasterPolicy::record_spawn(ClusterEngine& engine,
                                     const WorkerRef& worker) {
    if (auto* trace = engine.trace())
        trace->record({obs::EventKind::worker_spawn, engine.now(),
                       static_cast<std::int64_t>(worker.global), 0.0, 0});
}

ClusterEngine::ClusterEngine(Setup setup, const RunContext& ctx)
    : setup_(std::move(setup)), ctx_(ctx),
      env_(std::make_unique<des::Environment>(setup_.queue)) {
    // In real-time mode every cost is measured, not sampled, so the
    // distributions are optional; a TimeModel replaces the flat tf stream.
    if (!setup_.tf && !setup_.time_model && !setup_.real_time)
        throw std::invalid_argument("cluster engine: missing T_F distribution");
    if (!setup_.tc && !setup_.real_time)
        throw std::invalid_argument("cluster engine: missing T_C distribution");
    if (setup_.groups.empty())
        throw std::invalid_argument("cluster engine: no master groups");
    env_->set_trace(ctx_.trace);
    env_->set_metrics(ctx_.metrics);
    for (const GroupSpec& spec : setup_.groups) {
        auto group = std::make_unique<Group>();
        group->master = std::make_unique<des::Resource>(*env_, 1);
        group->master->set_trace_id(spec.trace_id);
        group->rng = util::Rng(spec.rng_seed);
        groups_.push_back(std::move(group));
    }
}

ClusterEngine::~ClusterEngine() = default;

double ClusterEngine::now() const noexcept {
    if (setup_.real_time) {
        if (external_policy_ == nullptr) return 0.0; // before external_begin
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             real_start_)
            .count();
    }
    return generational_ ? gen_now_ : env_->now();
}

util::Rng& ClusterEngine::group_rng(std::size_t group) noexcept {
    return groups_[group]->rng;
}

des::Resource& ClusterEngine::group_master(std::size_t group) noexcept {
    return *groups_[group]->master;
}

std::uint64_t
ClusterEngine::group_evaluations(std::size_t group) const noexcept {
    return groups_[group]->evaluations;
}

double ClusterEngine::group_hold(std::size_t group) const noexcept {
    return groups_[group]->hold;
}

double ClusterEngine::speed_of(std::size_t global_worker) const noexcept {
    return setup_.worker_speed.empty() ? 1.0
                                       : setup_.worker_speed[global_worker];
}

double
ClusterEngine::failure_time_of(std::size_t global_worker) const noexcept {
    return setup_.worker_failure_at.empty()
               ? std::numeric_limits<double>::infinity()
               : setup_.worker_failure_at[global_worker];
}

double ClusterEngine::clamp_negative(double v) {
    // Negative timing draws (a high-cv NormalDistribution) used to slip
    // through to des::Environment::delay, which clamps silently — so the
    // *applied* delay was 0 while traces, histograms, and the tf/ta
    // accumulators recorded the negative value. Truncate at the sampling
    // boundary instead, before any mirroring, and count it so a
    // misconfigured cell is visible (`<prefix>.clamped_samples`).
    if (v < 0.0) {
        ++clamped_samples_;
        return 0.0;
    }
    return v;
}

double ClusterEngine::sample_tf(const WorkerRef& worker,
                                const WorkItem* work) {
    double v;
    if (setup_.time_model) {
        TimeSampleContext tctx;
        tctx.worker = worker.global;
        tctx.now = now();
        if (work != nullptr && work->pool != nullptr)
            tctx.variables = work->pool->variables(work->handle);
        v = setup_.time_model->sample(groups_[worker.group]->rng, tctx);
    } else {
        v = setup_.tf->sample(groups_[worker.group]->rng) *
            speed_of(worker.global);
    }
    v = clamp_negative(v);
    tf_applied_.add(v);
    if (h_tf_) h_tf_->observe(v);
    if (ctx_.trace && policy_->trace_samples())
        ctx_.trace->record({obs::EventKind::tf_sample, now(),
                            static_cast<std::int64_t>(worker.global), v, 0});
    return v;
}

double ClusterEngine::sample_tc(std::size_t group, std::int64_t actor) {
    // Real-time mode has no T_C distribution: the draw consumes the
    // measured transport latency fed by the external driver (one value per
    // service; subsequent draws in the same service see 0).
    double v;
    if (setup_.tc) {
        v = clamp_negative(setup_.tc->sample(groups_[group]->rng));
    } else {
        v = pending_tc_;
        pending_tc_ = 0.0;
    }
    if (ctx_.trace && policy_->trace_samples())
        ctx_.trace->record({obs::EventKind::tc_sample, now(), actor, v, 0});
    return v;
}

double ClusterEngine::sample_ta(std::size_t group, std::int64_t actor,
                                double measured_seconds) {
    const double v =
        setup_.ta ? clamp_negative(setup_.ta->sample(groups_[group]->rng))
                  : measured_seconds;
    last_ta_ = v;
    ta_applied_.add(v);
    if (h_ta_) h_ta_->observe(v);
    if (ctx_.trace && policy_->trace_samples())
        ctx_.trace->record({obs::EventKind::ta_sample, now(), actor, v, 0});
    return v;
}

void ClusterEngine::add_wait(double wait) {
    queue_wait_.add(wait);
    if (h_wait_) h_wait_->observe(wait);
}

void ClusterEngine::add_hold(std::size_t group, double hold) {
    groups_[group]->hold += hold;
    if (ctx_.trace)
        ctx_.trace->record({obs::EventKind::master_hold, now(),
                            setup_.groups[group].trace_id, hold, 0});
}

double ClusterEngine::gen_sample_tf(std::size_t group, double at,
                                    std::int64_t actor, double speed) {
    const double v =
        clamp_negative(setup_.tf->sample(groups_[group]->rng) * speed);
    tf_applied_.add(v);
    if (h_tf_) h_tf_->observe(v);
    if (ctx_.trace && policy_->trace_samples())
        ctx_.trace->record({obs::EventKind::tf_sample, at, actor, v, 0});
    return v;
}

double ClusterEngine::gen_sample_tc(std::size_t group, double at,
                                    std::int64_t actor) {
    const double v = clamp_negative(setup_.tc->sample(groups_[group]->rng));
    if (ctx_.trace && policy_->trace_samples())
        ctx_.trace->record({obs::EventKind::tc_sample, at, actor, v, 0});
    return v;
}

namespace {

void init_check(std::uint64_t evaluations) {
    if (evaluations == 0)
        throw std::invalid_argument("cluster engine: evaluations == 0");
}

} // namespace

void ClusterEngine::emit_run_start() {
    if (ctx_.trace)
        ctx_.trace->record({obs::EventKind::run_start, now(), -1,
                            static_cast<double>(setup_.processors), target_});
}

des::Process ClusterEngine::worker_loop(EventMasterPolicy& policy,
                                        WorkerRef worker) {
    des::Environment& env = *env_;
    Group& group = *groups_[worker.group];
    des::Resource& master = *group.master;
    const double fail_at = failure_time_of(worker.global);
    std::optional<WorkItem> work;

    // Initial assignment: the master sends the first offspring. Only the
    // message cost T_C occupies the master here; generation cost is
    // charged with the first result.
    {
        const double wait_start = env.now();
        co_await master.acquire();
        add_wait(env.now() - wait_start);
        work = policy.dispatch_initial(*this, worker);
        if (work) work->dispatched_at_completed = completed_;
        const double hold =
            sample_tc(worker.group, static_cast<std::int64_t>(worker.global));
        add_hold(worker.group, hold);
        co_await env.delay(hold);
        master.release();
    }

    while (work) {
        // Fault injection: a failed worker returns its claim to the pool
        // (the master re-dispatches via a surviving worker's next
        // interaction) and retires. The offspring is lost with the node —
        // an arena slot it held goes back to the free list.
        if (env.now() >= fail_at) {
            if (work->pool != nullptr) work->pool->release(work->handle);
            policy.on_worker_failure(*this, worker);
            ++failed_workers_;
            if (ctx_.trace)
                ctx_.trace->record({obs::EventKind::worker_failure, env.now(),
                                    static_cast<std::int64_t>(worker.global),
                                    0.0, 1});
            co_return;
        }

        // Evaluate: real objectives (or nothing, for statistics-only
        // policies), then the virtual clock advances by a sampled T_F.
        policy.evaluate(*work);
        const double tf = sample_tf(worker, &*work);
        work->eval_seconds = tf;
        co_await env.delay(tf);

        const double wait_start = env.now();
        co_await master.acquire();
        add_wait(env.now() - wait_start);

        EventMasterPolicy::Service service =
            policy.serve(*this, worker, std::move(*work));
        work = std::move(service.next);
        add_hold(worker.group, service.hold);
        co_await env.delay(service.hold);
        master.release();

        ++group.evaluations;
        ++completed_;
        if (work) work->dispatched_at_completed = completed_;
        policy.record_result(*this, worker);
        if (completed_ == target_) {
            finished_ = true;
            finish_time_ = env.now();
            env.stop();
        }
        policy.after_result(*this, worker);
    }
}

// ---------------------------------------------------------- external drive

void ClusterEngine::external_begin(EventMasterPolicy& policy,
                                   std::uint64_t evaluations) {
    if (!setup_.real_time)
        throw std::logic_error(
            "cluster engine: external drive requires Setup.real_time");
    if (external_policy_ != nullptr)
        throw std::logic_error("cluster engine: external run already begun");
    init_check(evaluations);
    policy_ = &policy;
    external_policy_ = &policy;
    target_ = evaluations;
    generational_ = false;
    if (ctx_.metrics) {
        const std::string prefix = policy.prefix();
        h_tf_ = &ctx_.metrics->histogram(prefix + ".tf_seconds");
        h_ta_ = &ctx_.metrics->histogram(prefix + ".ta_seconds");
        h_wait_ = &ctx_.metrics->histogram(prefix + ".queue_wait_seconds");
        h_tc_ = &ctx_.metrics->histogram(prefix + ".tc_seconds");
    }
    real_start_ = std::chrono::steady_clock::now();
    emit_run_start();
}

void ClusterEngine::external_spawn(const WorkerRef& worker) {
    external_policy_->record_spawn(*this, worker);
}

std::optional<WorkItem>
ClusterEngine::external_dispatch_initial(const WorkerRef& worker) {
    std::optional<WorkItem> work =
        external_policy_->dispatch_initial(*this, worker);
    if (work) work->dispatched_at_completed = completed_;
    return work;
}

ClusterEngine::ExternalServe
ClusterEngine::external_result(const WorkerRef& worker, WorkItem work,
                               double measured_tf, double measured_tc) {
    tf_applied_.add(measured_tf);
    if (h_tf_) h_tf_->observe(measured_tf);
    if (ctx_.trace && external_policy_->trace_samples())
        ctx_.trace->record({obs::EventKind::tf_sample, now(),
                            static_cast<std::int64_t>(worker.global),
                            measured_tf, 0});
    pending_tc_ = measured_tc;
    last_ta_ = 0.0;
    if (h_tc_) h_tc_->observe(measured_tc);
    EventMasterPolicy::Service service =
        external_policy_->serve(*this, worker, std::move(work));
    pending_tc_ = 0.0;
    add_hold(worker.group, service.hold);
    ++groups_[worker.group]->evaluations;
    ++completed_;
    if (service.next) service.next->dispatched_at_completed = completed_;
    external_policy_->record_result(*this, worker);
    if (completed_ == target_) {
        finished_ = true;
        finish_time_ = now();
    }
    external_policy_->after_result(*this, worker);
    return {std::move(service.next), finished_, last_ta_};
}

void ClusterEngine::external_worker_failure(const WorkerRef& worker) {
    ++failed_workers_;
    if (ctx_.trace)
        ctx_.trace->record({obs::EventKind::worker_failure, now(),
                            static_cast<std::int64_t>(worker.global), 0.0,
                            0});
}

VirtualRunResult ClusterEngine::external_finish() {
    if (external_policy_ == nullptr)
        throw std::logic_error("cluster engine: no external run to finish");
    VirtualRunResult result = collect(now());
    if (ctx_.trace)
        ctx_.trace->record({obs::EventKind::run_end, result.elapsed, -1,
                            result.elapsed, completed_});
    publish_metrics(external_policy_->prefix(), result);
    if (ctx_.metrics)
        external_policy_->publish_extra_metrics(*this, *ctx_.metrics);
    external_policy_->finalize(*this, result);
    return result;
}

VirtualRunResult ClusterEngine::run_events(EventMasterPolicy& policy,
                                           std::uint64_t evaluations) {
    if (setup_.real_time)
        throw std::logic_error(
            "cluster engine: real_time setups are externally driven");
    init_check(evaluations);
    policy_ = &policy;
    target_ = evaluations;
    generational_ = false;
    if (ctx_.metrics) {
        const std::string prefix = policy.prefix();
        h_tf_ = &ctx_.metrics->histogram(prefix + ".tf_seconds");
        h_ta_ = &ctx_.metrics->histogram(prefix + ".ta_seconds");
        h_wait_ = &ctx_.metrics->histogram(prefix + ".queue_wait_seconds");
    }
    emit_run_start();

    std::size_t global = 0;
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        for (std::uint64_t w = 0; w < setup_.groups[gi].workers; ++w) {
            const WorkerRef worker{gi, static_cast<std::size_t>(w), global++};
            policy.record_spawn(*this, worker);
            env_->spawn(worker_loop(policy, worker));
        }
    }
    env_->run();

    VirtualRunResult result = collect(env_->now());
    if (ctx_.trace)
        ctx_.trace->record({obs::EventKind::run_end, result.elapsed, -1,
                            result.elapsed, completed_});
    publish_metrics(policy.prefix(), result);
    if (ctx_.metrics) policy.publish_extra_metrics(*this, *ctx_.metrics);
    policy.finalize(*this, result);
    return result;
}

bool ClusterEngine::reap_dead_workers(double now,
                                      std::vector<std::size_t>& alive,
                                      std::vector<char>& dead) {
    bool any = false;
    for (const std::size_t w : alive) {
        const double fail_at = failure_time_of(w);
        if (now >= fail_at && !dead[w]) {
            dead[w] = 1;
            ++failed_workers_;
            if (ctx_.trace)
                ctx_.trace->record({obs::EventKind::worker_failure, fail_at,
                                    static_cast<std::int64_t>(w), 0.0, 1});
            any = true;
        }
    }
    if (any)
        alive.erase(std::remove_if(alive.begin(), alive.end(),
                                   [&](std::size_t w) { return dead[w]; }),
                    alive.end());
    return any;
}

VirtualRunResult
ClusterEngine::run_generational(GenerationalMasterPolicy& policy,
                                std::uint64_t evaluations) {
    if (setup_.real_time)
        throw std::logic_error(
            "cluster engine: real_time setups are externally driven");
    init_check(evaluations);
    if (groups_.size() != 1)
        throw std::logic_error(
            "cluster engine: generational runs use one master group");
    if (setup_.time_model != nullptr)
        throw std::logic_error(
            "cluster engine: TimeModel is event-path only (generational "
            "drivers price batches through the flat tf stream)");
    policy_ = &policy;
    target_ = evaluations;
    generational_ = true;
    if (ctx_.metrics) {
        const std::string prefix = policy.prefix();
        h_tf_ = &ctx_.metrics->histogram(prefix + ".tf_seconds");
        h_ta_ = &ctx_.metrics->histogram(prefix + ".ta_seconds");
        h_wait_ = &ctx_.metrics->histogram(prefix + ".queue_wait_seconds");
    }
    emit_run_start();

    obs::TraceSink* trace = ctx_.trace;
    Group& master = *groups_[0];
    const std::int64_t master_actor = setup_.groups[0].trace_id;
    gen_now_ = 0.0;

    // The master is busy for every serialized send/receive T_C and the
    // generation processing T_A; each contribution is mirrored as a
    // `master_hold` trace event so trace_check can re-sum it.
    const auto hold = [&](double t, double amount) {
        master.hold += amount;
        if (trace)
            trace->record(
                {obs::EventKind::master_hold, t, master_actor, amount, 0});
    };

    const std::size_t worker_count =
        static_cast<std::size_t>(setup_.groups[0].workers);
    std::vector<std::size_t> alive;
    alive.reserve(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w) alive.push_back(w);
    std::vector<char> dead(worker_count, 0);

    struct Done {
        double at;
        std::size_t worker;
    };
    std::vector<Done> done;
    done.reserve(worker_count);

    while (completed_ < target_) {
        // Workers whose failure time has passed never receive another
        // assignment (this matters only for failures injected at or
        // before t = 0; a mid-generation death aborts the run below).
        reap_dead_workers(gen_now_, alive, dead);

        const GenerationalMasterPolicy::Plan plan =
            policy.plan(*this, completed_, target_, alive);
        if (plan.batch == 0 || plan.nodes == 0)
            throw std::logic_error("cluster engine: empty generation plan");

        // Serialized sends to the participating workers (nodes 1..).
        double send_clock = gen_now_;
        done.clear();
        for (std::size_t k = 1; k < plan.nodes; ++k) {
            const double tc =
                gen_sample_tc(0, send_clock, static_cast<std::int64_t>(k));
            send_clock += tc;
            hold(send_clock, tc);
            done.push_back({send_clock + policy.node_eval_time(
                                             *this, send_clock, k),
                            alive[k - 1]});
        }
        // The master evaluates its own share after the sends.
        const double master_done =
            send_clock + policy.node_eval_time(*this, send_clock, 0);

        // A worker that hits its failure time before its result lands
        // deserts the barrier: the generation can never complete, so the
        // run aborts after the surviving receives (a synchronous protocol
        // has no redispatch path — DESIGN.md §10).
        bool lost = false;
        for (const Done& d : done) {
            if (d.at >= failure_time_of(d.worker)) {
                dead[d.worker] = 1;
                ++failed_workers_;
                if (trace)
                    trace->record({obs::EventKind::worker_failure,
                                   failure_time_of(d.worker),
                                   static_cast<std::int64_t>(d.worker), 0.0,
                                   1});
                lost = true;
            }
        }

        // Serialized receives in completion order, gated by the master's
        // own evaluation. Each receive is a (request, grant) pair on the
        // master: a result that lands while the master is still busy has
        // queued (contended), mirroring the DES resource's accounting.
        std::sort(done.begin(), done.end(),
                  [](const Done& a, const Done& b) { return a.at < b.at; });
        double recv_clock = master_done;
        for (const Done& d : done) {
            if (dead[d.worker]) continue;
            ++gen_acquires_;
            const double start = std::max(recv_clock, d.at);
            const bool waited = recv_clock > d.at;
            if (waited) ++gen_contended_;
            const double wait = start - d.at;
            add_wait(wait);
            if (trace) {
                trace->record({obs::EventKind::acquire_request, d.at,
                               master_actor, 0.0, waited ? 1u : 0u});
                trace->record({obs::EventKind::acquire_grant, start,
                               master_actor, wait, waited ? 1u : 0u});
            }
            const double tc = gen_sample_tc(0, start, -1);
            hold(start + tc, tc);
            recv_clock = start + tc;
        }
        if (lost) {
            gen_now_ = recv_clock;
            break;
        }

        // Whole-generation processing at the master.
        const GenerationalMasterPolicy::Ingest ingest =
            policy.ingest(*this, plan.batch);
        ta_applied_.add(ingest.ta_per_offspring);
        if (h_ta_) h_ta_->observe(ingest.ta_per_offspring);
        hold(recv_clock + ingest.ta_sync, ingest.ta_sync);
        gen_now_ = recv_clock + ingest.ta_sync;
        if (trace)
            trace->record({obs::EventKind::ta_sample, gen_now_, -1,
                           ingest.ta_per_offspring, 0});

        completed_ += plan.batch;
        if (trace)
            trace->record(
                {obs::EventKind::generation, gen_now_, -1, 0.0, completed_});
        policy.record_generation(*this, gen_now_, completed_);
    }

    if (completed_ >= target_) {
        finished_ = true;
        finish_time_ = gen_now_;
    }
    VirtualRunResult result = collect(gen_now_);
    if (trace)
        trace->record({obs::EventKind::run_end, result.elapsed, -1,
                       result.elapsed, completed_});
    publish_metrics(policy.prefix(), result);
    policy.finalize(*this, result);
    return result;
}

VirtualRunResult ClusterEngine::collect(double elapsed_fallback) {
    VirtualRunResult result;
    result.evaluations = completed_;
    result.completed_target = finished_;
    // A starved run never set finish_time; report the time the simulation
    // actually drained instead.
    result.elapsed = finished_ ? finish_time_ : elapsed_fallback;
    result.failed_workers = failed_workers_;

    double hold_total = 0.0;
    for (const auto& group : groups_) hold_total += group->hold;
    result.master_busy_fraction =
        result.elapsed > 0.0 ? hold_total / result.elapsed : 0.0;
    result.mean_queue_wait = queue_wait_.mean();

    std::uint64_t acquires = gen_acquires_;
    std::uint64_t contended = gen_contended_;
    if (!generational_) {
        for (const auto& group : groups_) {
            acquires += group->master->total_acquires();
            contended += group->master->contended_acquires();
        }
    }
    result.contention_rate =
        acquires > 0
            ? static_cast<double>(contended) / static_cast<double>(acquires)
            : 0.0;

    result.ta_applied.count = ta_applied_.count();
    result.ta_applied.mean = ta_applied_.mean();
    result.ta_applied.stddev = ta_applied_.stddev();
    result.ta_applied.min = ta_applied_.min();
    result.ta_applied.max = ta_applied_.max();
    result.tf_applied.count = tf_applied_.count();
    result.tf_applied.mean = tf_applied_.mean();
    result.tf_applied.stddev = tf_applied_.stddev();
    result.tf_applied.min = tf_applied_.min();
    result.tf_applied.max = tf_applied_.max();
    return result;
}

void ClusterEngine::publish_metrics(const char* prefix,
                                    const VirtualRunResult& result) {
    if (!ctx_.metrics) return;
    const std::string p = prefix;
    ctx_.metrics->counter(p + ".results").inc(result.evaluations);
    ctx_.metrics->counter(p + ".failed_workers")
        .inc(static_cast<std::uint64_t>(result.failed_workers));
    if (!result.completed_target)
        ctx_.metrics->counter(p + ".starved_runs").inc();
    ctx_.metrics->gauge(p + ".elapsed_seconds").set(result.elapsed);
    ctx_.metrics->gauge(p + ".master_busy_fraction")
        .set(result.master_busy_fraction);
    ctx_.metrics->gauge(p + ".contention_rate").set(result.contention_rate);
    // Published only when the clamp fired: runs with well-configured
    // distributions keep their historical instrument set byte-for-byte.
    if (clamped_samples_ > 0)
        ctx_.metrics->counter(p + ".clamped_samples").inc(clamped_samples_);
}

} // namespace borg::parallel
