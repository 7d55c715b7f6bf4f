/// trace_check — end-to-end validation of the run-observability layer.
///
/// Runs a Figure-3-style 5-objective DTLZ2 configuration through every
/// master policy hosted by the ClusterEngine — asynchronous Borg,
/// synchronous (generational) NSGA-II, the multi-master island ring, and
/// both statistics-only simulation policies — with an EventTrace attached,
/// then:
///
///   1. recomputes master_busy_fraction, mean_queue_wait, contention_rate,
///      elapsed, and (where the policy mirrors its draws into the trace)
///      the T_F/T_A sample summaries from the raw JSONL-able event stream
///      and cross-validates them against the reported run result
///      (tolerance 1e-9);
///   2. repeats the async run with the same seed and checks the two JSONL
///      exports are byte-identical (trace determinism);
///   3. optionally writes the async trace to a file (first CLI argument).
///
/// Exit code 0 means every check passed — CI runs this as a gate, turning
/// the engine-accounting invariants into a permanently enforced check.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "models/simulation_model.hpp"
#include "moea/nsga2.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_check.hpp"
#include "parallel/multi_master.hpp"
#include "parallel/sync_executor.hpp"
#include "parallel/trace_check.hpp"
#include "stats/distribution.hpp"

namespace {

using namespace borg;

struct CheckContext {
    int failures = 0;

    void report(const std::string& label,
                const std::vector<std::string>& issues) {
        if (issues.empty()) {
            std::printf("  [ok] %s: reported aggregates match trace\n",
                        label.c_str());
            return;
        }
        ++failures;
        std::printf("  [FAIL] %s:\n", label.c_str());
        for (const auto& issue : issues)
            std::printf("         %s\n", issue.c_str());
    }

    void expect(bool ok, const char* label) {
        if (ok) {
            std::printf("  [ok] %s\n", label);
        } else {
            ++failures;
            std::printf("  [FAIL] %s\n", label);
        }
    }
};

} // namespace

int main(int argc, char** argv) {
    const std::string problem_name = "dtlz2_5";
    const std::uint64_t p = 17;
    const std::uint64_t evals = 20000;
    const std::uint64_t seed = 2013;

    const auto problem = problems::make_problem(problem_name);
    const auto tf = stats::make_delay(0.01, 0.1);
    const auto tc = stats::make_delay(bench::kPaperTc, 0.0);
    const auto ta =
        stats::make_delay(bench::paper_ta_mean(problem_name, p), 0.2);
    const parallel::VirtualClusterConfig cfg{p, tf.get(), tc.get(), ta.get(),
                                             seed};

    std::printf("trace_check: %s, P = %llu, N = %llu, seed = %llu\n\n",
                problem->name().c_str(),
                static_cast<unsigned long long>(p),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(seed));

    CheckContext ctx;

    // --- asynchronous policy: cross-validate + determinism --------------
    const auto async_run = [&](obs::EventTrace& trace,
                               obs::MetricsRegistry* metrics) {
        moea::BorgMoea algo(*problem,
                            bench::experiment_params(*problem, 0.15),
                            seed);
        parallel::AsyncMasterSlaveExecutor exec(algo, *problem, cfg);
        return exec.run(evals, {.trace = &trace, .metrics = metrics});
    };

    obs::EventTrace trace_a;
    obs::MetricsRegistry metrics;
    const auto reported = async_run(trace_a, &metrics);
    std::printf("async run: elapsed %.4f s, busy %.4f, queue wait %.3g s, "
                "contention %.4f, %zu events\n",
                reported.elapsed, reported.master_busy_fraction,
                reported.mean_queue_wait, reported.contention_rate,
                trace_a.size());

    ctx.report("async aggregates",
               parallel::cross_validate(trace_a, reported));
    ctx.expect(reported.completed_target, "async run reached its target");

    obs::EventTrace trace_b;
    async_run(trace_b, nullptr);
    const std::string jsonl_a = trace_a.to_jsonl();
    const std::string jsonl_b = trace_b.to_jsonl();
    ctx.expect(jsonl_a == jsonl_b,
               "two same-seed async traces are byte-identical");

    const auto agg = obs::recompute(trace_a);
    ctx.expect(agg.results == evals, "trace carries one result per eval");
    ctx.expect(agg.final_archive_size > 0,
               "trace carries archive snapshots");

    // --- synchronous policy: same invariants over the barrier protocol --
    moea::Nsga2 sync_algo(*problem, 100, seed);
    parallel::SyncMasterSlaveExecutor sync_exec(sync_algo, *problem, cfg);
    obs::EventTrace sync_trace;
    const auto sync_reported =
        sync_exec.run(evals, {.trace = &sync_trace, .metrics = &metrics});
    ctx.report("sync aggregates",
               parallel::cross_validate(sync_trace, sync_reported));

    // --- multi-master island ring: per-island masters, one trace --------
    // The multi-master policy does not mirror T_F/T_A draws into the
    // trace (work is attributed through per-island result/hold events),
    // so sample-summary checks are skipped.
    parallel::MultiMasterConfig mm;
    mm.cluster = cfg;
    mm.cluster.processors = 18; // 3 islands x (1 master + 5 workers)
    mm.islands = 3;
    mm.migration_interval = 500;
    parallel::MultiMasterExecutor mm_exec(
        *problem, bench::experiment_params(*problem, 0.15), mm);
    obs::EventTrace mm_trace;
    const auto mm_result =
        mm_exec.run(evals, {.trace = &mm_trace, .metrics = &metrics});
    ctx.report("multi-master aggregates",
               obs::cross_validate(
                   mm_trace,
                   parallel::to_reported(mm_result,
                                         /*check_samples=*/false)));
    ctx.expect(mm_result.migrations > 0, "multi-master run migrated");

    // --- simulation model, both protocols: statistics-only policies -----
    models::SimulationConfig sim_cfg;
    sim_cfg.tf = tf.get();
    sim_cfg.tc = tc.get();
    sim_cfg.ta = ta.get();
    sim_cfg.evaluations = evals;
    sim_cfg.processors = p;
    sim_cfg.seed = seed;

    obs::EventTrace sim_async_trace;
    const auto sim_async = models::simulate_async(
        sim_cfg, {.trace = &sim_async_trace, .metrics = &metrics});
    ctx.report("sim-async aggregates",
               parallel::cross_validate(sim_async_trace, sim_async));

    obs::EventTrace sim_sync_trace;
    const auto sim_sync = models::simulate_sync(
        sim_cfg, {.trace = &sim_sync_trace, .metrics = &metrics});
    ctx.report("sim-sync aggregates",
               parallel::cross_validate(sim_sync_trace, sim_sync));

    // --- optional JSONL export ------------------------------------------
    if (argc > 1) {
        std::ofstream out(argv[1]);
        if (out) {
            trace_a.write_jsonl(out);
            std::printf("  wrote %zu events to %s\n", trace_a.size(),
                        argv[1]);
        } else {
            ctx.expect(false, "failed to open trace output file");
        }
    }

    std::printf("\n%s\n", ctx.failures == 0 ? "trace_check: all checks passed"
                                            : "trace_check: FAILURES");
    return ctx.failures == 0 ? 0 : 1;
}
