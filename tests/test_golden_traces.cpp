/// Golden-trace schedule-equivalence suite.
///
/// Each scenario runs a virtual-time executor (or the statistics-only
/// simulation model) under a fixed seed with *configured* T_A — never the
/// measured mode, whose host-clock samples are nondeterministic — and
/// renders two artifacts: the full JSONL event trace and a fixed-format
/// dump of the reported result fields at 17 significant digits. Both are
/// compared byte-for-byte against fixtures under tests/golden/, which were
/// captured from the pre-ClusterEngine executors. Any change to RNG draw
/// order, event emission order, or result arithmetic in the engine or a
/// master policy fails these tests before it can silently shift a paper
/// figure.
///
/// To re-capture fixtures after an *intentional* schedule change, run the
/// suite once with BORG_GOLDEN_CAPTURE=1 in the environment and commit the
/// rewritten files together with the change that justifies them.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "moea/borg.hpp"
#include "moea/checkpoint.hpp"
#include "moea/nsga2.hpp"
#include "models/simulation_model.hpp"
#include "obs/event_trace.hpp"
#include "parallel/async_executor.hpp"
#include "parallel/multi_master.hpp"
#include "parallel/sync_executor.hpp"
#include "parallel/virtual_cluster.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using namespace borg::parallel;
using borg::stats::Distribution;
using borg::stats::make_delay;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- formatting

std::string num(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

void kv(std::string& out, const char* key, double value) {
    out += key;
    out += '=';
    out += num(value);
    out += '\n';
}

void kv(std::string& out, const char* key, std::uint64_t value) {
    out += key;
    out += '=';
    out += std::to_string(value);
    out += '\n';
}

void kv(std::string& out, const char* key, bool value) {
    out += key;
    out += value ? "=true\n" : "=false\n";
}

void dump_summary(std::string& out, const char* name,
                  const stats::Summary& s) {
    std::string prefix = name;
    kv(out, (prefix + ".count").c_str(),
       static_cast<std::uint64_t>(s.count));
    kv(out, (prefix + ".mean").c_str(), s.mean);
    kv(out, (prefix + ".stddev").c_str(), s.stddev);
    kv(out, (prefix + ".min").c_str(), s.min);
    kv(out, (prefix + ".max").c_str(), s.max);
}

std::string dump_result(const VirtualRunResult& r) {
    std::string out;
    kv(out, "elapsed", r.elapsed);
    kv(out, "evaluations", r.evaluations);
    kv(out, "completed_target", r.completed_target);
    kv(out, "failed_workers", static_cast<std::uint64_t>(r.failed_workers));
    kv(out, "master_busy_fraction", r.master_busy_fraction);
    kv(out, "mean_queue_wait", r.mean_queue_wait);
    kv(out, "contention_rate", r.contention_rate);
    dump_summary(out, "ta_applied", r.ta_applied);
    dump_summary(out, "tf_applied", r.tf_applied);
    return out;
}

/// Every member of a final archive, in archive order: variables,
/// objectives and constraints at 17 significant digits, plus the
/// producing operator.
std::string dump_archive(const std::vector<moea::Solution>& archive) {
    std::string out;
    kv(out, "size", static_cast<std::uint64_t>(archive.size()));
    const auto row = [&out](const char* key, const std::vector<double>& v) {
        out += key;
        for (const double x : v) {
            out += ' ';
            out += num(x);
        }
        out += '\n';
    };
    for (const moea::Solution& s : archive) {
        out += "member operator=" + std::to_string(s.operator_index) + '\n';
        row("x", s.variables);
        row("f", s.objectives);
        row("g", s.constraints);
    }
    return out;
}

// ------------------------------------------------------- fixture plumbing

std::string fixture_path(const std::string& name) {
    return std::string(BORG_GOLDEN_DIR) + "/" + name;
}

bool capture_mode() {
    const char* env = std::getenv("BORG_GOLDEN_CAPTURE");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Compares \p actual against the named fixture (or rewrites the fixture
/// in capture mode). On mismatch, reports the first differing line with a
/// little context instead of dumping two multi-hundred-KB strings.
void check_golden(const std::string& name, const std::string& actual) {
    const std::string path = fixture_path(name);
    if (capture_mode()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing fixture " << path
        << " (run once with BORG_GOLDEN_CAPTURE=1 to create it)";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();
    if (actual == expected) return;

    std::istringstream a(actual);
    std::istringstream e(expected);
    std::string la;
    std::string le;
    std::size_t line = 0;
    while (true) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool ge = static_cast<bool>(std::getline(e, le));
        if (!ga && !ge) break;
        if (!ga || !ge || la != le) {
            FAIL() << name << ": first divergence at line " << line
                   << "\n  expected: " << (ge ? le : "<eof>")
                   << "\n  actual:   " << (ga ? la : "<eof>");
        }
    }
    FAIL() << name << ": sizes differ (actual " << actual.size()
           << " vs fixture " << expected.size() << " bytes)";
}

// ------------------------------------------------------------- scenarios

struct Streams {
    std::unique_ptr<Distribution> tf = make_delay(0.01, 0.1);
    std::unique_ptr<Distribution> tc = make_delay(0.000006, 0.0);
    std::unique_ptr<Distribution> ta = make_delay(0.000029, 0.2);
};

TEST(GoldenTraces, AsyncP9) {
    const auto problem = problems::make_problem("zdt1");
    Streams s;
    moea::BorgMoea algo(*problem,
                        moea::BorgParams::for_problem(*problem, 0.01), 21);
    VirtualClusterConfig cfg{9, s.tf.get(), s.tc.get(), s.ta.get(), 22};
    AsyncMasterSlaveExecutor exec(algo, *problem, cfg);
    obs::EventTrace trace;
    const auto result = exec.run(600, {.trace = &trace});
    check_golden("async_p9.trace.jsonl", trace.to_jsonl());
    check_golden("async_p9.result.txt", dump_result(result));
}

TEST(GoldenTraces, AsyncHeterogeneousWithFailures) {
    const auto problem = problems::make_problem("zdt1");
    Streams s;
    moea::BorgMoea algo(*problem,
                        moea::BorgParams::for_problem(*problem, 0.01), 41);
    VirtualClusterConfig cfg{6, s.tf.get(), s.tc.get(), s.ta.get(), 42};
    cfg.worker_speed = {1.0, 2.0, 0.5, 1.0, 1.5};
    cfg.worker_failure_at = {kInf, 0.2, kInf, kInf, 0.25};
    AsyncMasterSlaveExecutor exec(algo, *problem, cfg);
    obs::EventTrace trace;
    const auto result = exec.run(500, {.trace = &trace});
    EXPECT_EQ(result.failed_workers, 2u);
    EXPECT_TRUE(result.completed_target);
    check_golden("async_hetero_fail.trace.jsonl", trace.to_jsonl());
    check_golden("async_hetero_fail.result.txt", dump_result(result));
}

TEST(GoldenTraces, SyncP9) {
    const auto problem = problems::make_problem("zdt1");
    Streams s;
    moea::Nsga2 algo(*problem, 20, 31);
    VirtualClusterConfig cfg{9, s.tf.get(), s.tc.get(), s.ta.get(), 32};
    cfg.worker_speed = {1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 1.5, 1.0};
    SyncMasterSlaveExecutor exec(algo, *problem, cfg);
    obs::EventTrace trace;
    const auto result = exec.run(400, {.trace = &trace});
    check_golden("sync_p9.trace.jsonl", trace.to_jsonl());
    check_golden("sync_p9.result.txt", dump_result(result));
}

TEST(GoldenTraces, MultiMasterP12Islands3) {
    const auto problem = problems::make_problem("zdt1");
    Streams s;
    MultiMasterConfig mm;
    mm.cluster = VirtualClusterConfig{12, s.tf.get(), s.tc.get(),
                                      s.ta.get(), 52};
    mm.islands = 3;
    mm.migration_interval = 40;
    MultiMasterExecutor exec(
        *problem, moea::BorgParams::for_problem(*problem, 0.01), mm);
    obs::EventTrace trace;
    const auto result = exec.run(450, {.trace = &trace});

    // Only the pre-engine MultiMasterResult fields: the dump must not
    // change when the struct later grows.
    std::string out;
    kv(out, "elapsed", result.elapsed);
    kv(out, "evaluations", result.evaluations);
    kv(out, "completed_target", result.completed_target);
    kv(out, "migrations", result.migrations);
    for (std::size_t i = 0; i < result.island_evaluations.size(); ++i)
        kv(out, ("island_evaluations." + std::to_string(i)).c_str(),
           result.island_evaluations[i]);
    for (std::size_t i = 0; i < result.island_busy_fraction.size(); ++i)
        kv(out, ("island_busy_fraction." + std::to_string(i)).c_str(),
           result.island_busy_fraction[i]);
    kv(out, "combined_archive_size",
       static_cast<std::uint64_t>(result.combined_archive.size()));

    check_golden("mm_p12_i3.trace.jsonl", trace.to_jsonl());
    check_golden("mm_p12_i3.result.txt", out);
    check_golden("mm_p12_i3.archive.txt",
                 dump_archive(result.combined_archive));
}

// Islands whose workers die mid-run: each lost offspring's row returns to
// its island's pool and its claim to the run's evaluation budget.
TEST(GoldenTraces, MultiMasterIslandsWithFailures) {
    const auto problem = problems::make_problem("zdt1");
    Streams s;
    MultiMasterConfig mm;
    mm.cluster = VirtualClusterConfig{12, s.tf.get(), s.tc.get(),
                                      s.ta.get(), 71};
    mm.cluster.worker_failure_at = {kInf, 0.15, kInf, kInf, kInf,
                                    0.3,  kInf, 0.2,  kInf};
    mm.islands = 3;
    mm.migration_interval = 40;
    MultiMasterExecutor exec(
        *problem, moea::BorgParams::for_problem(*problem, 0.01), mm);
    const auto result = exec.run(450);
    EXPECT_EQ(result.failed_workers, 3u);
    EXPECT_TRUE(result.completed_target);
    check_golden("mm_p12_i3_fail.result.txt", dump_result(result));
    check_golden("mm_p12_i3_fail.archive.txt",
                 dump_archive(result.combined_archive));
}

TEST(GoldenTraces, SimulationModelCells) {
    Streams s;
    std::string out;
    const auto dump_sim = [&out](const char* name,
                                 const models::SimulationResult& r) {
        std::string prefix = name;
        kv(out, (prefix + ".elapsed").c_str(), r.elapsed);
        kv(out, (prefix + ".evaluations").c_str(), r.evaluations);
        kv(out, (prefix + ".master_busy_fraction").c_str(),
           r.master_busy_fraction);
        kv(out, (prefix + ".mean_queue_wait").c_str(), r.mean_queue_wait);
        kv(out, (prefix + ".contention_rate").c_str(), r.contention_rate);
    };

    models::SimulationConfig cfg;
    cfg.tf = s.tf.get();
    cfg.tc = s.tc.get();
    cfg.ta = s.ta.get();

    cfg.evaluations = 4000;
    cfg.processors = 32;
    cfg.seed = 7;
    dump_sim("async_p32", models::simulate_async(cfg));
    cfg.evaluations = 500;
    cfg.processors = 2;
    cfg.seed = 9;
    dump_sim("async_p2", models::simulate_async(cfg));

    cfg.evaluations = 4000;
    cfg.processors = 32;
    cfg.seed = 11;
    dump_sim("sync_p32", models::simulate_sync(cfg));
    cfg.evaluations = 500;
    cfg.processors = 2;
    cfg.seed = 13;
    dump_sim("sync_p2", models::simulate_sync(cfg));

    check_golden("simulation_model.result.txt", out);
}

// ----------------------------------- heap-vs-calendar schedule equality
//
// The fixtures above were captured from the pre-rebuild binary-heap
// engine, so passing them under the default calendar queue already proves
// old-core/new-core equivalence for the committed seeds. This test states
// the property directly — both pending-event stores must produce
// byte-identical traces and result dumps — across all five master
// policies, without going through files, so it also holds whenever the
// fixtures are legitimately re-captured.

TEST(GoldenTraces, HeapAndCalendarSchedulesAreByteIdentical) {
    using des::QueuePolicy;
    struct Artifacts {
        std::string trace;
        std::string result;
    };

    const auto run_all = [](QueuePolicy queue) {
        std::vector<Artifacts> out;
        const auto problem = problems::make_problem("zdt1");
        Streams s;

        { // AsyncBorgPolicy (homogeneous)
            moea::BorgMoea algo(
                *problem, moea::BorgParams::for_problem(*problem, 0.01), 21);
            VirtualClusterConfig cfg{9, s.tf.get(), s.tc.get(), s.ta.get(),
                                     22};
            cfg.queue = queue;
            AsyncMasterSlaveExecutor exec(algo, *problem, cfg);
            obs::EventTrace trace;
            const auto r = exec.run(300, {.trace = &trace});
            out.push_back({trace.to_jsonl(), dump_result(r)});
        }
        { // AsyncBorgPolicy under heterogeneity + failures
            moea::BorgMoea algo(
                *problem, moea::BorgParams::for_problem(*problem, 0.01), 41);
            VirtualClusterConfig cfg{6, s.tf.get(), s.tc.get(), s.ta.get(),
                                     42};
            cfg.worker_speed = {1.0, 2.0, 0.5, 1.0, 1.5};
            cfg.worker_failure_at = {kInf, 0.2, kInf, kInf, 0.25};
            cfg.queue = queue;
            AsyncMasterSlaveExecutor exec(algo, *problem, cfg);
            obs::EventTrace trace;
            const auto r = exec.run(250, {.trace = &trace});
            out.push_back({trace.to_jsonl(), dump_result(r)});
        }
        { // SyncBorgPolicy
            moea::Nsga2 algo(*problem, 20, 31);
            VirtualClusterConfig cfg{9, s.tf.get(), s.tc.get(), s.ta.get(),
                                     32};
            cfg.queue = queue;
            SyncMasterSlaveExecutor exec(algo, *problem, cfg);
            obs::EventTrace trace;
            const auto r = exec.run(200, {.trace = &trace});
            out.push_back({trace.to_jsonl(), dump_result(r)});
        }
        { // IslandRingPolicy
            MultiMasterConfig mm;
            mm.cluster = VirtualClusterConfig{12, s.tf.get(), s.tc.get(),
                                              s.ta.get(), 52};
            mm.cluster.queue = queue;
            mm.islands = 3;
            mm.migration_interval = 40;
            MultiMasterExecutor exec(
                *problem, moea::BorgParams::for_problem(*problem, 0.01), mm);
            obs::EventTrace trace;
            const auto r = exec.run(240, {.trace = &trace});
            std::string dump;
            kv(dump, "elapsed", r.elapsed);
            kv(dump, "evaluations", r.evaluations);
            kv(dump, "migrations", r.migrations);
            out.push_back({trace.to_jsonl(), dump});
        }
        { // SimAsyncPolicy and SimSyncPolicy
            models::SimulationConfig cfg;
            cfg.tf = s.tf.get();
            cfg.tc = s.tc.get();
            cfg.ta = s.ta.get();
            cfg.evaluations = 2000;
            cfg.processors = 32;
            cfg.seed = 7;
            cfg.queue = queue;
            obs::EventTrace trace;
            const auto ra = models::simulate_async(cfg, {.trace = &trace});
            std::string dump;
            kv(dump, "async.elapsed", ra.elapsed);
            kv(dump, "async.evaluations", ra.evaluations);
            kv(dump, "async.mean_queue_wait", ra.mean_queue_wait);
            const auto rs = models::simulate_sync(cfg);
            kv(dump, "sync.elapsed", rs.elapsed);
            kv(dump, "sync.evaluations", rs.evaluations);
            out.push_back({trace.to_jsonl(), dump});
        }
        return out;
    };

    const auto heap = run_all(QueuePolicy::heap);
    const auto calendar = run_all(QueuePolicy::calendar);
    ASSERT_EQ(heap.size(), calendar.size());
    const char* names[] = {"async", "async_hetero_fail", "sync",
                           "multi_master", "simulation_model"};
    for (std::size_t i = 0; i < heap.size(); ++i) {
        EXPECT_EQ(heap[i].trace, calendar[i].trace) << names[i];
        EXPECT_EQ(heap[i].result, calendar[i].result) << names[i];
    }
}

TEST(GoldenTraces, SerialVirtualBaseline) {
    const auto problem = problems::make_problem("zdt1");
    Streams s;
    moea::BorgMoea algo(*problem,
                        moea::BorgParams::for_problem(*problem, 0.01), 61);
    VirtualClusterConfig cfg{2, s.tf.get(), s.tc.get(), s.ta.get(), 62};
    const auto result =
        run_serial_virtual(algo, *problem, cfg, 300);
    check_golden("serial_virtual.result.txt", dump_result(result));
    check_golden("serial_virtual.archive.txt",
                 dump_archive(algo.archive().solutions()));
}

/// The archive10k operating point at scale: DTLZ2_5, ε = 0.06, seed 3, a
/// 20 000-evaluation serial warm-up, then the dispatch-order window
/// protocol (W = 512 offspring claimed up front, then result k ingested
/// and offspring W + k claimed) for 2 000 results. This is the only
/// fixture that reaches a restart-grown population (thousands of
/// members) and pool-row recycling at scale, so it pins the population
/// mirror, the archive's eviction release order and the tournament's
/// draws where the smaller scenarios above cannot. The dump holds the
/// archive objectives in archive order, every population member's pool
/// row and objectives in member order, and the RNG state.
TEST(GoldenTraces, Archive10kWindowProtocol) {
    const auto problem = problems::make_problem("dtlz2_5");
    moea::BorgMoea algo(*problem,
                        moea::BorgParams::for_problem(*problem, 0.06), 3);
    moea::run_serial(algo, *problem, 20000);
    constexpr std::size_t kWindow = 512;
    constexpr std::uint64_t kResults = 2000;
    std::deque<moea::SolutionHandle> inflight;
    for (std::size_t i = 0; i < kWindow; ++i)
        inflight.push_back(algo.next_offspring_handle());
    for (std::uint64_t k = 0; k < kResults; ++k) {
        const moea::SolutionHandle handle = inflight.front();
        inflight.pop_front();
        moea::evaluate(*problem, algo.pool(), handle);
        algo.receive_handle(handle);
        if (k + kWindow < kResults)
            inflight.push_back(algo.next_offspring_handle());
    }

    std::string out;
    kv(out, "evaluations", algo.evaluations());
    kv(out, "restarts", algo.restarts());
    const auto row = [&out](const char* key, std::uint64_t tag,
                            std::span<const double> v) {
        out += key;
        out += ' ';
        out += std::to_string(tag);
        for (const double x : v) {
            out += ' ';
            out += num(x);
        }
        out += '\n';
    };
    const moea::ArchiveEngine& archive = algo.archive();
    kv(out, "archive.size", static_cast<std::uint64_t>(archive.size()));
    for (std::size_t i = 0; i < archive.size(); ++i)
        row("a", archive.member_row(i), archive[i].objectives);
    const moea::Population& population = algo.population();
    kv(out, "population.size",
       static_cast<std::uint64_t>(population.size()));
    kv(out, "population.target",
       static_cast<std::uint64_t>(population.target_size()));
    for (std::size_t i = 0; i < population.size(); ++i)
        row("p", population.member_row(i), population[i].objectives);
    std::ostringstream checkpoint;
    moea::save_checkpoint(algo, checkpoint);
    std::istringstream lines(checkpoint.str());
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("rng ", 0) == 0) out += line + '\n';
    check_golden("archive10k_window.txt", out);
}

} // namespace
