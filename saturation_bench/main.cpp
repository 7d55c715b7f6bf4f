/// saturation_bench: the end-to-end master-saturation benchmark.
///
///   saturation_bench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs the real master (TcpMasterSlaveExecutor / TcpRunManager::run over
/// loopback TCP against a simulated fleet, or ThreadMasterSlaveExecutor)
/// repeatedly for S seconds and prints, as the last line of stdout, one
/// JSON object {correct, attempted, failed, metrics}. --trace 0 reports the
/// end-to-end metrics of untraced runs; --trace 1 interleaves untraced and
/// traced runs and reports the per-layer ledger (METRICS.md maps every
/// metric to its layer and to the end-to-end metric it should move).
///
/// Every run's final archive is compared with a reference computed before
/// timing starts: the dispatch-order window protocol replayed serially at
/// the same seed, warm-up, window and evaluation count — the archive every
/// transport must reproduce byte for byte. Exit code 0 only when every
/// run matched and every ledger identity held.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fleet.hpp"
#include "log_histogram.hpp"
#include "models/analytical.hpp"
#include "moea/borg.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/master_policies.hpp"
#include "parallel/tcp_executor.hpp"
#include "parallel/thread_executor.hpp"
#include "problems/problem.hpp"
#include "stats/summary.hpp"
#include "traced_policy.hpp"

namespace {

using namespace borg;
using stats::quantile;
using Clock = std::chrono::steady_clock;

double median(const std::vector<double>& values) {
    return values.empty() ? 0.0 : quantile(values, 0.5);
}

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ workloads

enum class Transport { tcp, thread };
enum class Regime { saturated, underloaded, master_bound };

struct Workload {
    const char* name;
    Transport transport;
    Regime regime;
    double epsilon;
    std::uint64_t warmup; ///< serial evaluations before the timed run
    double tf_s;          ///< fleet hold per task (0: thread, no hold)
    std::size_t connections; ///< tcp: fleet connections; thread: workers
    std::size_t depth;       ///< tasks in flight per connection
    std::uint64_t evaluations; ///< results served per run
    double wake_quantum_s;     ///< fleet wake-up spacing (fleet.hpp)

    std::size_t window() const { return connections * depth; }
};

constexpr const char* kProblem = "dtlz2_5";

constexpr Workload kWorkloads[] = {
    {"tcp_pop100_saturated", Transport::tcp, Regime::saturated, 0.25, 0,
     1e-3, 4, 256, 200000, 100e-6},
    {"tcp_archive10k_saturated", Transport::tcp, Regime::saturated, 0.06,
     20000, 10e-3, 4, 128, 20000, 50e-6},
    {"tcp_pop100_underloaded", Transport::tcp, Regime::underloaded, 0.25, 0,
     10e-3, 2, 32, 12800, 0.0},
    {"thread_pop100", Transport::thread, Regime::master_bound, 0.25, 0, 0.0,
     3, 1, 400000, 0.0},
};

// ------------------------------------------------------------ archives

/// FNV-1a over every archive member's bits: variables, objectives,
/// constraints and operator tag, in archive order.
std::uint64_t archive_digest(const moea::BorgMoea& algorithm) {
    std::uint64_t hash = 1469598103934665603ull;
    const auto mix = [&hash](const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ull;
        }
    };
    for (const moea::Solution& s : algorithm.archive().solutions()) {
        mix(s.variables.data(), s.variables.size() * sizeof(double));
        mix(s.objectives.data(), s.objectives.size() * sizeof(double));
        mix(s.constraints.data(), s.constraints.size() * sizeof(double));
        mix(&s.operator_index, sizeof(s.operator_index));
    }
    return hash;
}

moea::BorgParams params_for(const Workload& w,
                            const problems::Problem& problem) {
    return moea::BorgParams::for_problem(problem, w.epsilon);
}

/// The dispatch-order window protocol, serially: W offspring claimed up
/// front, then result k ingested and offspring W + k claimed, strictly in
/// sequence order. Under IngestOrder::dispatch the archive of every
/// transport is a pure function of (seed, warm-up, W, N), so this is the
/// thread executor's dispatch-mode archive without its threads.
std::uint64_t reference_digest(const Workload& w,
                               const problems::Problem& problem,
                               std::uint64_t seed) {
    moea::BorgMoea algorithm(problem, params_for(w, problem), seed);
    if (w.warmup > 0) moea::run_serial(algorithm, problem, w.warmup);
    std::deque<moea::SolutionHandle> inflight;
    std::uint64_t issued = 0;
    for (; issued < w.window() && issued < w.evaluations; ++issued)
        inflight.push_back(algorithm.next_offspring_handle());
    for (std::uint64_t k = 0; k < w.evaluations; ++k) {
        const moea::SolutionHandle handle = inflight.front();
        inflight.pop_front();
        moea::evaluate(problem, algorithm.pool(), handle);
        algorithm.receive_handle(handle);
        if (issued < w.evaluations) {
            inflight.push_back(algorithm.next_offspring_handle());
            ++issued;
        }
    }
    return archive_digest(algorithm);
}

// ------------------------------------------------------------- clocks

struct Cpu {
    double total = 0.0;
    double sys = 0.0;
};

Cpu cpu_of(int who) {
    rusage usage{};
    ::getrusage(who, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
            seconds(usage.ru_stime)};
}

// -------------------------------------------------- thread-side stamps

/// Forwards to the real problem and, on each worker thread, records the
/// gap between the end of one evaluation and the start of the next: the
/// thread transport's turnaround (result sent -> refill task received).
class TurnaroundProblem final : public problems::Problem {
public:
    explicit TurnaroundProblem(const problems::Problem& inner)
        : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    std::size_t num_variables() const override {
        return inner_.num_variables();
    }
    std::size_t num_objectives() const override {
        return inner_.num_objectives();
    }
    std::size_t num_constraints() const override {
        return inner_.num_constraints();
    }
    double lower_bound(std::size_t i) const override {
        return inner_.lower_bound(i);
    }
    double upper_bound(std::size_t i) const override {
        return inner_.upper_bound(i);
    }
    void evaluate(std::span<const double> x,
                  std::span<double> f) const override {
        std::vector<double> none;
        evaluate(x, f, none);
    }
    void evaluate(std::span<const double> x, std::span<double> f,
                  std::span<double> c) const override {
        const auto start = Clock::now();
        Lane& lane = my_lane();
        if (lane.evaluations > 0)
            lane.gaps.push_back(
                std::chrono::duration<double>(start - lane.last_end).count());
        inner_.evaluate(x, f, c);
        lane.last_end = Clock::now();
        lane.eval_s +=
            std::chrono::duration<double>(lane.last_end - start).count();
        ++lane.evaluations;
    }

    /// Read after the run (its threads are joined).
    std::vector<double> gaps() const {
        std::vector<double> all;
        for (const auto& lane : lanes_)
            all.insert(all.end(), lane->gaps.begin(), lane->gaps.end());
        return all;
    }
    double mean_eval_s() const {
        double sum = 0.0;
        std::uint64_t count = 0;
        for (const auto& lane : lanes_) {
            sum += lane->eval_s;
            count += lane->evaluations;
        }
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    double eval_s() const {
        double sum = 0.0;
        for (const auto& lane : lanes_) sum += lane->eval_s;
        return sum;
    }

private:
    struct Lane {
        std::vector<double> gaps;
        double eval_s = 0.0;
        std::uint64_t evaluations = 0;
        Clock::time_point last_end;
    };

    Lane& my_lane() const {
        // Worker threads are created per run, so a thread meets at most
        // one TurnaroundProblem; the owner check keeps that explicit.
        thread_local const TurnaroundProblem* owner = nullptr;
        thread_local Lane* lane = nullptr;
        if (owner != this) {
            const std::lock_guard lock(mutex_);
            lanes_.push_back(std::make_unique<Lane>());
            lane = lanes_.back().get();
            owner = this;
        }
        return *lane;
    }

    const problems::Problem& inner_;
    mutable std::mutex mutex_;
    mutable std::vector<std::unique_ptr<Lane>> lanes_;
};

// ---------------------------------------------------------------- runs

/// Everything one run measured.
struct Run {
    bool ok = false;    ///< completed, and its archive matched the reference
    bool timed = false; ///< ok, and the load generator kept up
    std::string failure;
    std::uint64_t digest = 0;
    double setup_s = 0.0;
    double wall_s = 0.0;
    Cpu master;
    std::uint64_t results = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    parallel::TcpRunStats net;
    satbench::FleetReport fleet;
    // traced spans
    double ingest_mean_s = 0.0;
    double ingest_p99_s = 0.0;
    double variation_s = 0.0;
    double serve_s = 0.0;
    // thread transport
    double ta_p50_s = 0.0;
    double ta_p99_s = 0.0;
    double tc_p50_s = 0.0;
    double tf_mean_s = 0.0;
    // algorithm state
    std::size_t archive_size = 0;
    std::size_t population_size = 0;
    std::uint64_t restarts = 0;

    double per_eval(double seconds) const {
        return results > 0 ? seconds / static_cast<double>(results) : 0.0;
    }
    double evals_per_s() const {
        return wall_s > 0.0 ? static_cast<double>(results) / wall_s : 0.0;
    }
};

void finish_algorithm_state(Run& run, const moea::BorgMoea& algorithm) {
    run.archive_size = algorithm.archive().size();
    run.population_size = algorithm.population().size();
    run.restarts = algorithm.restarts();
    run.digest = archive_digest(algorithm);
}

/// Everything a TCP run builds before run(): the algorithm (warmed when
/// the workload asks), the bound master, and the forked fleet.
struct TcpSetup {
    moea::BorgMoea algorithm;
    std::optional<parallel::TcpMasterSlaveExecutor> executor;
    std::optional<parallel::TcpRunManager> manager;
    std::optional<satbench::FleetProcess> fleet; ///< last: killed first

    TcpSetup(const Workload& w, const problems::Problem& problem,
             std::uint64_t seed, bool traced, int fleet_cpu)
        : algorithm(problem, params_for(w, problem), seed) {
        if (w.warmup > 0) moea::run_serial(algorithm, problem, w.warmup);
        parallel::TcpRunConfig config;
        config.workers_expected = w.window();
        config.pipeline_depth = w.depth;
        config.run_timeout_s = 120.0; // harness safety net only
        // The public executor refuses a warmed algorithm; warmed and
        // traced runs drive the manager with the policy it would build.
        std::uint16_t port = 0;
        if (w.warmup == 0 && !traced) {
            executor.emplace(algorithm, problem, config);
            port = executor->port();
        } else {
            manager.emplace(config);
            port = manager->port();
        }
        fleet.emplace(satbench::FleetSpec{port, w.connections, w.depth,
                                          w.tf_s, w.wake_quantum_s,
                                          fleet_cpu},
                      problem);
    }
};

/// Builds \p Setup `trials` times (tearing down all but the last, untimed)
/// and records the median build time: set-up is reported like any other
/// timing, as a median of several.
template <typename Setup, typename... Args>
std::unique_ptr<Setup> timed_setup(const Workload& w, double& median_s,
                                   Args&&... args) {
    const int trials = w.warmup > 0 ? 1 : 15;
    std::vector<double> samples;
    std::unique_ptr<Setup> setup;
    for (int t = 0; t < trials; ++t) {
        setup.reset();
        const auto start = Clock::now();
        setup = std::make_unique<Setup>(w, args...);
        samples.push_back(since(start));
    }
    median_s = median(samples);
    return setup;
}

Run run_tcp(const Workload& w, const problems::Problem& problem,
            std::uint64_t seed, bool traced, int fleet_cpu) {
    Run run;
    const std::unique_ptr<TcpSetup> setup = timed_setup<TcpSetup>(
        w, run.setup_s, problem, seed, traced, fleet_cpu);
    moea::BorgMoea& algorithm = setup->algorithm;

    parallel::AsyncBorgPolicy plain_policy(algorithm, problem);
    satbench::TracedAsyncPolicy traced_policy(algorithm, problem);
    if (traced) traced_policy.reserve(w.evaluations);
    parallel::TcpRunResult result;
    const Cpu cpu0 = cpu_of(RUSAGE_THREAD);
    const auto wall_start = Clock::now();
    try {
        if (setup->executor)
            result = setup->executor->run(w.evaluations);
        else if (traced)
            result = setup->manager->run(traced_policy, problem, w.evaluations);
        else
            result = setup->manager->run(plain_policy, problem, w.evaluations);
    } catch (const std::exception& error) {
        run.failure = std::string("run threw: ") + error.what();
        run.attempted = run.failed = std::max<std::uint64_t>(1, w.evaluations);
        return run;
    }
    run.wall_s = since(wall_start);
    const Cpu cpu1 = cpu_of(RUSAGE_THREAD);
    run.master = {cpu1.total - cpu0.total, cpu1.sys - cpu0.sys};
    run.fleet = setup->fleet->finish(10.0);
    run.net = result.net;
    run.results = result.net.results_received;
    run.attempted = result.net.tasks_sent;
    run.failed = result.net.reassignments + result.net.heartbeat_timeouts +
                 result.net.stale_results;
    if (traced) {
        const std::vector<double>& ingest = traced_policy.ingest_s();
        double sum = 0.0;
        for (const double s : ingest) sum += s;
        run.ingest_mean_s =
            ingest.empty() ? 0.0 : sum / static_cast<double>(ingest.size());
        run.ingest_p99_s = quantile(ingest, 0.99);
        run.variation_s = traced_policy.variation_s();
        run.serve_s = traced_policy.serve_s();
    }
    finish_algorithm_state(run, algorithm);
    run.ok = true;
    return run;
}

Run run_thread(const Workload& w, const problems::Problem& problem,
               std::uint64_t seed, bool traced) {
    Run run;
    struct ThreadSetup {
        TurnaroundProblem stamped;
        moea::BorgMoea algorithm;
        parallel::ThreadMasterSlaveExecutor executor;
        ThreadSetup(const Workload& w, const problems::Problem& problem,
                    std::uint64_t seed)
            : stamped(problem),
              algorithm(problem, params_for(w, problem), seed),
              executor(w.connections, parallel::IngestOrder::dispatch) {}
    };
    const std::unique_ptr<ThreadSetup> setup =
        timed_setup<ThreadSetup>(w, run.setup_s, problem, seed);
    moea::BorgMoea& algorithm = setup->algorithm;
    const TurnaroundProblem& stamped = setup->stamped;
    obs::MetricsRegistry registry;
    parallel::RunContext ctx;
    if (traced) ctx.metrics = &registry;

    parallel::ThreadRunResult result;
    const Cpu proc0 = cpu_of(RUSAGE_SELF);
    const Cpu cpu0 = cpu_of(RUSAGE_THREAD);
    const auto wall_start = Clock::now();
    try {
        result = setup->executor.run(algorithm, stamped, w.evaluations, ctx);
    } catch (const std::exception& error) {
        run.failure = std::string("run threw: ") + error.what();
        run.attempted = run.failed = std::max<std::uint64_t>(1, w.evaluations);
        return run;
    }
    run.wall_s = since(wall_start);
    const Cpu cpu1 = cpu_of(RUSAGE_THREAD);
    const Cpu proc1 = cpu_of(RUSAGE_SELF);
    run.master = {cpu1.total - cpu0.total, cpu1.sys - cpu0.sys};
    run.results = result.evaluations;
    run.attempted = w.evaluations;
    run.failed = w.evaluations - std::min(w.evaluations, result.evaluations);
    run.ta_p50_s = quantile(result.ta_samples, 0.50);
    run.ta_p99_s = quantile(result.ta_samples, 0.99);
    run.tc_p50_s = quantile(result.tc_samples, 0.50);
    double ta_sum = 0.0;
    for (const double s : result.ta_samples) ta_sum += s;
    run.serve_s = ta_sum;
    run.tf_mean_s = stamped.mean_eval_s();
    const std::vector<double> gaps = stamped.gaps();
    run.fleet.ok = 1;
    for (const double gap : gaps) run.fleet.turnaround.add(gap);
    // The worker threads stand in for the fleet.
    run.fleet.cpu_s = (proc1.total - proc0.total) - run.master.total;
    run.fleet.wall_s = run.wall_s;
    run.fleet.busy_s = stamped.eval_s() / static_cast<double>(w.connections);
    finish_algorithm_state(run, algorithm);
    run.ok = true;
    return run;
}

// ------------------------------------------------------------- metrics

double tf_of(const Workload& w, const Run& run) {
    return w.transport == Transport::tcp ? w.tf_s : run.tf_mean_s;
}

double efficiency_of(const Workload& w, const Run& run) {
    return run.evals_per_s() * tf_of(w, run) /
           static_cast<double>(w.window());
}

/// Eq. 3 with this run's T_A (the serve span when traced, else the
/// master's whole CPU per result) and T_C: the thread transport measures
/// it directly; over TCP it is what the turnaround leaves after T_A.
double p_ub_of(const Workload& w, const Run& run, double* tc_out = nullptr,
               double* ta_out = nullptr) {
    const double ta = run.per_eval(run.serve_s > 0.0 ? run.serve_s
                                                     : run.master.total);
    double tc = run.tc_p50_s;
    if (w.transport == Transport::tcp)
        tc = std::max(0.0, 0.5 * (run.fleet.turnaround.quantile(0.5) - ta));
    if (tc_out) *tc_out = tc;
    if (ta_out) *ta_out = ta;
    const double denominator = 2.0 * tc + ta;
    return denominator > 0.0 ? tf_of(w, run) / denominator : 0.0;
}

/// Eq. 3 counting only what occupies the master: its CPU per result is
/// the measured T_A + 2 T_C (communication costs the master syscalls,
/// while wire latency overlaps other work).
double p_ub_cpu_of(const Workload& w, const Run& run) {
    const double busy = run.per_eval(run.master.total);
    return busy > 0.0 ? tf_of(w, run) / busy : 0.0;
}

/// Actual T_P over max(Eq. 2, N x master CPU per result).
double tp_ratio_of(const Workload& w, const Run& run) {
    double tc = 0.0;
    double ta = 0.0;
    p_ub_of(w, run, &tc, &ta);
    const double eq2 = models::async_parallel_time(
        run.results, w.window() + 1, {tf_of(w, run), tc, ta});
    const double bound = std::max(eq2, run.master.total);
    return bound > 0.0 ? run.wall_s / bound : 0.0;
}

/// A fleet that runs late or burns CPU like the master would be measuring
/// itself; such a run is discarded, not timed. Empty when the fleet kept up.
std::string fleet_invalid(const Workload& w, const Run& run) {
    if (w.transport != Transport::tcp) return {};
    const satbench::FleetReport& f = run.fleet;
    if (f.ok == 0) return "fleet exited abnormally";
    if (f.lateness_p99_s > 0.5 * w.tf_s) return "fleet lateness p99 > T_F/2";
    if (f.wall_s > 0.0 && f.busy_s / f.wall_s > 0.5)
        return "fleet busy more than half its wall time";
    if (w.regime == Regime::saturated && f.cpu_s > 0.75 * run.master.total)
        return "fleet CPU per result above 3/4 of the master's";
    return {};
}

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

std::vector<double> collect(const std::vector<Run>& runs,
                            double (*fn)(const Workload&, const Run&),
                            const Workload& w) {
    std::vector<double> out;
    for (const Run& run : runs)
        if (run.timed) out.push_back(fn(w, run));
    return out;
}

#define BENCH_FIELD(expr) [](const Workload& w, const Run& r) -> double { \
    (void)w;                                                            \
    return expr;                                                        \
}

/// Peak RSS of this program's own image. ru_maxrss would not do: exec
/// carries the launcher's high-water mark into it, so a master smaller
/// than the launching interpreter would read as the interpreter's size.
double peak_rss_mb() {
    if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kib = -1;
        while (kib < 0 && std::fgets(line, sizeof line, status))
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
        std::fclose(status);
        if (kib >= 0) return static_cast<double>(kib) / 1024.0;
    }
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Every timed run's turnaround samples in one histogram.
satbench::LogHistogram pooled_turnaround(const std::vector<Run>& runs) {
    satbench::LogHistogram pooled;
    for (const Run& r : runs)
        if (r.timed) pooled.merge(r.fleet.turnaround);
    return pooled;
}

std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<Run>& runs) {
    const auto m = [&](double (*fn)(const Workload&, const Run&)) {
        return median(collect(runs, fn, w));
    };
    return {
        {"evals_per_s", "1/s", m(BENCH_FIELD(r.evals_per_s()))},
        {"efficiency", "ratio", m(BENCH_FIELD(efficiency_of(w, r)))},
        {"master_cpu_us_per_eval", "us",
         m(BENCH_FIELD(r.per_eval(r.master.total) * 1e6))},
        {"setup_s", "s", m(BENCH_FIELD(r.setup_s))},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<Run>& plain,
                              const std::vector<Run>& traced,
                              std::uint64_t attempted, std::uint64_t failed,
                              bool regime_ok) {
    const auto m = [&](double (*fn)(const Workload&, const Run&)) {
        return median(collect(traced, fn, w));
    };
    const bool tcp = w.transport == Transport::tcp;
    const bool thread = !tcp;
    // Layers a transport does not have report 0 (METRICS.md).
    const auto only = [](bool present, double value) {
        return present ? value : 0.0;
    };
    std::uint64_t reassignments = 0, stale = 0, timeouts = 0, invalid_runs = 0;
    for (const auto* runs : {&plain, &traced})
        for (const Run& r : *runs) {
            invalid_runs += r.ok && !r.failure.empty() ? 1 : 0;
            reassignments += r.net.reassignments;
            stale += r.net.stale_results;
            timeouts += r.net.heartbeat_timeouts;
        }
    const double plain_rate = median(collect(plain, BENCH_FIELD(r.evals_per_s()), w));
    const double traced_rate = m(BENCH_FIELD(r.evals_per_s()));
    const double idle = m(BENCH_FIELD(1.0 - r.master.total / r.wall_s));
    return {
        {"moea.ingest_us_per_eval", "us",
         only(tcp, m(BENCH_FIELD(r.ingest_mean_s * 1e6)))},
        {"moea.ingest_us_p99", "us",
         only(tcp, m(BENCH_FIELD(r.ingest_p99_s * 1e6)))},
        {"moea.variation_us_per_eval", "us",
         only(tcp, m(BENCH_FIELD(r.per_eval(r.variation_s) * 1e6)))},
        {"moea.archive_size", "count",
         m(BENCH_FIELD(static_cast<double>(r.archive_size)))},
        {"moea.population_size", "count",
         m(BENCH_FIELD(static_cast<double>(r.population_size)))},
        {"moea.restarts", "count",
         m(BENCH_FIELD(static_cast<double>(r.restarts)))},
        {"parallel.serve_us_per_eval", "us",
         m(BENCH_FIELD(r.per_eval(r.serve_s) * 1e6))},
        {"net.self_us_per_eval", "us",
         only(tcp, m(BENCH_FIELD(r.per_eval(r.master.total - r.serve_s) * 1e6)))},
        {"net.sys_us_per_eval", "us",
         only(tcp, m(BENCH_FIELD(r.per_eval(r.master.sys) * 1e6)))},
        {"net.syscalls_per_eval", "count",
         only(tcp, m(BENCH_FIELD(r.per_eval(static_cast<double>(r.net.io_syscalls())))))},
        {"net.wait_calls_per_eval", "count",
         only(tcp, m(BENCH_FIELD(r.per_eval(static_cast<double>(r.net.syscalls_wait)))))},
        {"net.send_calls_per_eval", "count",
         only(tcp, m(BENCH_FIELD(r.per_eval(static_cast<double>(r.net.syscalls_send)))))},
        {"net.recv_calls_per_eval", "count",
         only(tcp, m(BENCH_FIELD(r.per_eval(static_cast<double>(r.net.syscalls_recv)))))},
        {"net.wakeups_per_eval", "count",
         only(tcp, m(BENCH_FIELD(r.per_eval(static_cast<double>(r.net.wakeups)))))},
        {"net.frames_per_send", "count",
         only(tcp, m(BENCH_FIELD(r.net.syscalls_send > 0
                                     ? static_cast<double>(r.net.frames_sent) /
                                           static_cast<double>(r.net.syscalls_send)
                                     : 0.0)))},
        {"net.bytes_per_eval", "B",
         only(tcp, m(BENCH_FIELD(r.per_eval(static_cast<double>(
                         r.net.bytes_sent + r.net.bytes_received)))))},
        {"net.latency_ms_mean", "ms",
         only(tcp, m(BENCH_FIELD(r.per_eval(r.net.latency_sum_s) * 1e3)))},
        {"net.reassignments", "count", static_cast<double>(reassignments)},
        {"net.stale_results", "count", static_cast<double>(stale)},
        {"net.heartbeat_timeouts", "count", static_cast<double>(timeouts)},
        {"master.idle_frac", "ratio", idle},
        {"thread.ta_us_p50", "us", only(thread, m(BENCH_FIELD(r.ta_p50_s * 1e6)))},
        {"thread.ta_us_p99", "us", only(thread, m(BENCH_FIELD(r.ta_p99_s * 1e6)))},
        {"thread.tc_us_p50", "us", only(thread, m(BENCH_FIELD(r.tc_p50_s * 1e6)))},
        {"thread.master_idle_frac", "ratio", only(thread, idle)},
        {"fleet.lateness_us_p99", "us",
         only(tcp, m(BENCH_FIELD(r.fleet.lateness_p99_s * 1e6)))},
        {"fleet.cpu_us_per_eval", "us",
         m(BENCH_FIELD(r.per_eval(r.fleet.cpu_s) * 1e6))},
        {"fleet.busy_frac", "ratio",
         m(BENCH_FIELD(r.fleet.wall_s > 0.0 ? r.fleet.busy_s / r.fleet.wall_s
                                            : 0.0))},
        {"fleet.invalid_runs", "count", static_cast<double>(invalid_runs)},
        {"fleet.turnaround_ms_p50", "ms",
         pooled_turnaround(plain).quantile(0.50) * 1e3},
        {"fleet.turnaround_ms_p99", "ms",
         pooled_turnaround(plain).quantile(0.99) * 1e3},
        {"fleet.turnaround_samples", "count",
         m(BENCH_FIELD(static_cast<double>(r.fleet.turnaround.count())))},
        {"model.p_ub", "count", m(BENCH_FIELD(p_ub_of(w, r)))},
        {"model.p_ub_cpu", "count", m(BENCH_FIELD(p_ub_cpu_of(w, r)))},
        {"model.tp_ratio", "ratio", m(BENCH_FIELD(tp_ratio_of(w, r)))},
        {"trace.overhead_frac", "ratio",
         plain_rate > 0.0 ? 1.0 - traced_rate / plain_rate : 0.0},
        {"failed_frac", "ratio",
         attempted > 0 ? static_cast<double>(failed) /
                             static_cast<double>(attempted)
                       : 0.0},
        {"regime.ok", "count", regime_ok ? 1.0 : 0.0},
    };
}

/// ingest + variation <= serve <= master CPU <= wall, with slack for the
/// clocks' granularity and for preemption inside a span.
std::string ledger_violation(const Run& run) {
    const double ingest = run.ingest_mean_s * static_cast<double>(run.results);
    const double slack = 1.05;
    if (ingest + run.variation_s > run.serve_s * slack)
        return "ingest + variation > serve";
    if (run.serve_s > run.master.total * slack + 0.01)
        return "serve > master CPU";
    if (run.master.total > run.wall_s * slack + 0.01)
        return "master CPU > wall";
    return {};
}

/// Whether the workload still sits in the regime it was chosen for.
std::string regime_drift(const Workload& w, const std::vector<Run>& runs) {
    const double idle =
        median(collect(runs, BENCH_FIELD(1.0 - r.master.total / r.wall_s), w));
    const double p_ub =
        median(collect(runs, BENCH_FIELD(p_ub_cpu_of(w, r)), w));
    const double efficiency =
        median(collect(runs, BENCH_FIELD(efficiency_of(w, r)), w));
    const auto p = static_cast<double>(w.window());
    char buf[160];
    switch (w.regime) {
    case Regime::saturated:
        if (idle > 0.1 || p_ub >= p) {
            std::snprintf(buf, sizeof(buf),
                          "not saturated: master idle %.3f (want < 0.1), "
                          "P_UB %.1f (want < P = %.0f)",
                          idle, p_ub, p);
            return buf;
        }
        return {};
    case Regime::underloaded:
        if (efficiency < 0.9 || p_ub < 2.0 * p) {
            std::snprintf(buf, sizeof(buf),
                          "not underloaded: efficiency %.3f (want > 0.9), "
                          "P_UB %.1f (want > 2P = %.0f)",
                          efficiency, p_ub, 2.0 * p);
            return buf;
        }
        return {};
    case Regime::master_bound:
        if (idle > 0.5) {
            std::snprintf(buf, sizeof(buf),
                          "master not the bottleneck: idle %.3f (want < 0.5)",
                          idle);
            return buf;
        }
        return {};
    }
    return {};
}

#undef BENCH_FIELD

// ---------------------------------------------------------------- main

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") args.workload = value;
            else if (key == "--seed") args.seed = std::stoull(value);
            else if (key == "--seconds") args.seconds = std::stod(value);
            else if (key == "--trace") args.trace = std::stoi(value) != 0;
            else return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: saturation_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads)
        if (args.workload == w.name) workload = &w;
    if (workload == nullptr) {
        std::fprintf(stderr, "saturation_bench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const Workload& w = *workload;
    const auto problem = problems::make_problem(kProblem);
    // A fixed mmap threshold: glibc's adaptive one lets a run's large
    // task table land in the heap after an earlier one was freed, and the
    // fragmentation that follows makes peak RSS vary from run to run.
    ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);

    // Over TCP the master and the fleet each get a CPU of their own, so
    // neither migrates onto the other's. The thread transport's workers
    // inherit the master's mask, so it stays unpinned.
    int fleet_cpu = -1;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (w.transport == Transport::tcp &&
        ::sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
        CPU_COUNT(&allowed) >= 2) {
        std::vector<int> cpus;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
        cpu_set_t master;
        CPU_ZERO(&master);
        CPU_SET(cpus[cpus.size() - 2], &master);
        ::sched_setaffinity(0, sizeof(master), &master);
        fleet_cpu = cpus.back();
    }

    // Runs cycle through kSubSeeds algorithm seeds drawn from --seed, so
    // one median spans several trajectories: on archive10k the master's
    // cost per result differs by up to ±20 % from one seed to the next.
    constexpr std::uint64_t kSubSeeds = 3;
    std::vector<std::uint64_t> seeds;
    std::vector<std::uint64_t> references;
    for (std::uint64_t k = 0; k < kSubSeeds; ++k) {
        const auto ref_start = Clock::now();
        seeds.push_back(args.seed * kSubSeeds + k);
        references.push_back(reference_digest(w, *problem, seeds.back()));
        std::fprintf(stderr,
                     "%s seed %llu: reference archive %016llx (%.2f s)\n",
                     w.name, static_cast<unsigned long long>(seeds.back()),
                     static_cast<unsigned long long>(references.back()),
                     since(ref_start));
    }

    const auto run_once = [&](bool traced, std::size_t index) {
        const std::uint64_t seed = seeds[index % kSubSeeds];
        Run run = w.transport == Transport::tcp
                      ? run_tcp(w, *problem, seed, traced, fleet_cpu)
                      : run_thread(w, *problem, seed, traced);
        if (run.ok && run.digest != references[index % kSubSeeds]) {
            run.ok = false;
            run.failure = "archive differs from the reference";
        }
        if (run.ok) {
            // The generator, not the program, failed: discard the run
            // without charging its tasks to the program's failed count.
            run.failure = fleet_invalid(w, run);
            run.timed = run.failure.empty();
        } else {
            run.failed = run.attempted;
        }
        std::fprintf(stderr,
                     "  %s run: setup %.3f s, %llu results in %.3f s "
                     "(%.0f/s), master cpu %.2f us/result, turnaround "
                     "p50 %.3f ms p99 %.3f ms (%llu samples), peak rss %.1f MB%s%s\n",
                     traced ? "traced" : "plain ", run.setup_s,
                     static_cast<unsigned long long>(run.results), run.wall_s,
                     run.evals_per_s(), run.per_eval(run.master.total) * 1e6,
                     run.fleet.turnaround.quantile(0.50) * 1e3,
                     run.fleet.turnaround.quantile(0.99) * 1e3,
                     static_cast<unsigned long long>(
                         run.fleet.turnaround.count()),
                     peak_rss_mb(),
                     run.ok ? (run.timed ? "" : " DISCARDED: ") : " FAILED: ",
                     run.failure.c_str());
        return run;
    };

    std::vector<Run> plain;
    std::vector<Run> traced;
    // Discarded runs extend the measurement by up to a quarter of its
    // length, to reach kMinRuns timed runs of each kind; a wrong archive
    // ends it.
    constexpr long kMinRuns = 3;
    const double extended_s = 1.25 * args.seconds;
    const auto timed_count = [](const std::vector<Run>& runs) {
        return std::count_if(runs.begin(), runs.end(),
                             [](const Run& r) { return r.timed; });
    };
    const auto measure_start = Clock::now();
    bool all_ok = true;
    do {
        const std::size_t index = plain.size();
        plain.push_back(run_once(false, index));
        all_ok &= plain.back().ok;
        if (args.trace) {
            traced.push_back(run_once(true, index));
            all_ok &= traced.back().ok;
        }
    } while (all_ok && (since(measure_start) < args.seconds ||
                        (since(measure_start) < extended_s &&
                         (timed_count(plain) < kMinRuns ||
                          (args.trace && timed_count(traced) < kMinRuns)))));
    // A host stalling the generator through the whole window still gets a
    // number: the completed runs are used, and fleet.invalid_runs says so.
    for (auto* runs : {&plain, &traced})
        if (timed_count(*runs) == 0)
            for (Run& run : *runs) run.timed = run.ok;

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto* runs : {&plain, &traced})
        for (const Run& run : *runs) {
            attempted += run.attempted;
            failed += run.failed;
            if (!run.ok) correct = false;
        }
    for (const Run& run : traced) {
        if (!run.timed || w.transport != Transport::tcp) continue;
        const std::string violation = ledger_violation(run);
        if (!violation.empty()) {
            std::fprintf(stderr, "LEDGER: %s\n", violation.c_str());
            correct = false;
        }
    }
    const std::string drift = regime_drift(w, args.trace ? traced : plain);
    if (!drift.empty())
        std::fprintf(stderr, "REGIME: %s is %s; re-size the workload\n",
                     w.name, drift.c_str());
    if (attempted == 0) attempted = 1;

    const std::vector<Metric> metrics =
        args.trace ? per_layer(w, plain, traced, attempted, failed,
                               drift.empty())
                   : end_to_end(w, plain);
    for (const Metric& m : metrics)
        std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    print_json(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
