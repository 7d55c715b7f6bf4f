/// Loopback integration tests for the TCP run manager (DESIGN.md §14):
/// the real asynchronous Borg MOEA served over 127.0.0.1 to real
/// borg_worker subprocesses, with the process supervisor injecting the
/// faults the transport must absorb — kill -9 mid-evaluation, a silent
/// stall after handshake, graceful leaves, and late joins.
///
/// The load-bearing assertion everywhere: under the window protocol
/// (IngestOrder::dispatch) the final archive is byte-identical to a
/// thread-executor dispatch run with the same (seed, window, evaluations),
/// no matter what the fleet did. Faults may change *timing*; they must
/// never change *the archive*.
///
/// Every run sets run_timeout_s well under the 30 s ctest cap, so a
/// wedged transport fails as a TcpError with the net stats visible, not
/// as a suite timeout.

#include "parallel/tcp_executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <variant>

#include "moea/borg.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "net_test_support.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using testnet::archives_identical;
using testnet::reference_archive;
using testnet::spawn_worker;
using testnet::WorkerProc;

constexpr const char* kProblem = "zdt1";
constexpr double kEpsilon = 0.01;
constexpr std::uint64_t kSeed = 20260809;
constexpr std::size_t kWindow = 4;
constexpr std::uint64_t kEvals = 300;

parallel::TcpRunConfig test_config() {
    parallel::TcpRunConfig config;
    config.workers_expected = kWindow;
    config.heartbeat_interval_ms = 50;
    config.heartbeat_timeout_ms = 1000;
    config.run_timeout_s = 20.0;
    return config;
}

struct TcpRun {
    parallel::TcpRunResult result;
    std::vector<moea::Solution> archive;
    obs::EventTrace trace;
    obs::MetricsRegistry metrics;
};

/// Runs the TCP master in-process with the given worker fleet already
/// launched (or launched by \p while_running once the port is known).
template <typename Fleet>
TcpRun run_tcp(const parallel::TcpRunConfig& config, Fleet&& fleet) {
    TcpRun out;
    const auto problem = problems::make_problem(kProblem);
    moea::BorgParams params =
        moea::BorgParams::for_problem(*problem, kEpsilon);
    moea::BorgMoea algorithm(*problem, params, kSeed);
    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);
    auto workers = fleet(executor.port());
    out.result = executor.run(
        kEvals, {.trace = &out.trace, .metrics = &out.metrics});
    out.archive = algorithm.archive().solutions();
    // Bounded reap: a deliberately hung worker ignores Shutdown forever,
    // so waiting unboundedly here would hang the *harness* even though
    // the run itself completed. Healthy workers exit within milliseconds.
    for (auto& w : workers) w.wait_exit_or_kill(2000);
    return out;
}

std::uint64_t counter_value(const obs::MetricsRegistry& metrics,
                            const std::string& name) {
    const obs::Counter* c = metrics.find_counter(name);
    return c != nullptr ? c->value() : 0;
}

/// A fleet that forms only after a misbehaving first peer is done: the
/// master's run starts with \p first as its sole peer, and four good
/// workers (launched with \p worker_args) are spawned from a helper
/// thread only once \p first has returned — so whatever the first peer
/// provokes has happened before the run can complete, however the host
/// schedules the processes. The good workers sleep 1 ms per evaluation,
/// so the run outlasts the last one's handshake and all four connect
/// even on a loaded host (a worker otherwise could finish the run alone
/// before the others start).
struct GatedRun {
    TcpRun tcp;
    int first_result = -1; ///< what \p first returned
};

template <typename FirstPeer>
GatedRun run_gated(const parallel::TcpRunConfig& config, FirstPeer first,
                   const std::vector<std::string>& worker_args = {}) {
    GatedRun out;
    std::thread starter;
    std::vector<WorkerProc> fleet;
    std::vector<std::string> args = worker_args;
    args.insert(args.end(), {"--eval-delay-ms", "1"});
    const auto launch = [&](std::uint16_t port) {
        starter = std::thread([&, port] {
            out.first_result = first(port);
            for (int i = 0; i < 4; ++i)
                fleet.push_back(spawn_worker(port, kProblem, args));
        });
        return std::vector<WorkerProc>{};
    };
    try {
        out.tcp = run_tcp(config, launch);
    } catch (...) {
        if (starter.joinable()) starter.join();
        throw;
    }
    starter.join();
    for (auto& w : fleet) w.wait_exit_or_kill(2000);
    return out;
}

/// First peer for run_gated: a borg_worker that must be turned away.
/// Returns its exit code (the reject code is 2).
auto rejected_worker(std::string problem, std::vector<std::string> args) {
    return [problem = std::move(problem),
            args = std::move(args)](std::uint16_t port) {
        return spawn_worker(port, problem, args).wait_exit_or_kill(10000);
    };
}

// ----------------------------------------------------------- happy path

TEST(TcpExecutor, ByteIdenticalToThreadExecutorAtSameSeedAndWindow) {
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    const TcpRun tcp = run_tcp(test_config(), [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        for (int i = 0; i < 4; ++i)
            workers.push_back(spawn_worker(port, kProblem));
        return workers;
    });

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.run.evaluations, kEvals);
    EXPECT_EQ(tcp.result.net.connects, 4u);
    EXPECT_EQ(tcp.result.net.results_received, kEvals);
    EXPECT_EQ(tcp.result.run.failed_workers, 0u);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(archives_identical(reference, tcp.archive))
        << "TCP dispatch-mode archive diverged from the thread executor";

    // The engine's uniform event stream is present alongside net.* events.
    EXPECT_EQ(tcp.trace.count(obs::EventKind::run_start), 1u);
    EXPECT_EQ(tcp.trace.count(obs::EventKind::run_end), 1u);
    EXPECT_EQ(tcp.trace.count(obs::EventKind::result), kEvals);
    EXPECT_EQ(tcp.trace.count(obs::EventKind::net_connect), 4u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.results_received"), kEvals);
    EXPECT_EQ(counter_value(tcp.metrics, "net.tasks_sent"), kEvals);
}

TEST(TcpExecutor, LateJoinAndGracefulLeaveConverge) {
    // Two founding workers leave gracefully after 20 evaluations each;
    // two more join late. The run must converge on the same archive.
    // The late joiners evaluate with a 2 ms delay, so the ~260 remaining
    // evaluations outlast the second joiner's handshake and both connect.
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    std::thread late_joiner;
    std::vector<WorkerProc> late;
    const TcpRun tcp = run_tcp(test_config(), [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        workers.push_back(
            spawn_worker(port, kProblem, {"--leave-after-evals", "20"}));
        workers.push_back(
            spawn_worker(port, kProblem, {"--leave-after-evals", "20"}));
        late_joiner = std::thread([port, &late] {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            late.push_back(
                spawn_worker(port, kProblem, {"--eval-delay-ms", "2"}));
            late.push_back(
                spawn_worker(port, kProblem, {"--eval-delay-ms", "2"}));
        });
        return workers;
    });
    late_joiner.join();
    for (auto& w : late) w.wait_exit();

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.net.connects, 4u);
    EXPECT_EQ(tcp.result.net.graceful_leaves, 2u);
    // Goodbyes are not failures: the policy's claim accounting was never
    // disturbed.
    EXPECT_EQ(tcp.result.run.failed_workers, 0u);
    EXPECT_TRUE(archives_identical(reference, tcp.archive))
        << "worker churn changed the dispatch-mode archive";
}

// -------------------------------------------------------- fault injection

TEST(TcpExecutor, Kill9MidEvaluationReassignsAndCompletesIdentically) {
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    std::thread killer;
    const TcpRun tcp = run_tcp(test_config(), [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        // The victim's every evaluation blocks 10 s — far beyond the
        // kill point, so SIGKILL provably lands mid-evaluation with a
        // task outstanding.
        workers.push_back(
            spawn_worker(port, kProblem, {"--eval-delay-ms", "10000"}));
        for (int i = 0; i < 3; ++i)
            workers.push_back(spawn_worker(port, kProblem));
        const pid_t victim = workers[0].pid();
        killer = std::thread([victim] {
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
            ::kill(victim, SIGKILL);
        });
        return workers;
    });
    killer.join();

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.run.evaluations, kEvals);
    // The death was seen, counted, and the orphaned evaluation re-queued.
    EXPECT_EQ(tcp.result.run.failed_workers, 1u);
    EXPECT_EQ(tcp.result.net.disconnects, 1u);
    EXPECT_GE(tcp.result.net.reassignments, 1u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.reassignments"),
              tcp.result.net.reassignments);
    EXPECT_GE(tcp.trace.count(obs::EventKind::net_reassign), 1u);
    EXPECT_EQ(tcp.trace.count(obs::EventKind::worker_failure), 1u);
    // More Task frames than results: the lost dispatch was re-sent.
    EXPECT_GT(tcp.result.net.tasks_sent, tcp.result.net.results_received);

    EXPECT_TRUE(archives_identical(reference, tcp.archive))
        << "kill -9 + reassignment changed the dispatch-mode archive";
}

TEST(TcpExecutor, Kill9AfterHandshakeBeforeFirstResultReassigns) {
    // The victim completes the handshake (and is handed a task — the
    // window is pre-claimed) but stalls before evaluating anything, then
    // is SIGKILLed. Covers the joined-but-never-produced fault window.
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    std::thread killer;
    const TcpRun tcp = run_tcp(test_config(), [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        workers.push_back(
            spawn_worker(port, kProblem, {"--stall-after-handshake"}));
        for (int i = 0; i < 3; ++i)
            workers.push_back(spawn_worker(port, kProblem));
        const pid_t victim = workers[0].pid();
        killer = std::thread([victim] {
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
            ::kill(victim, SIGKILL);
        });
        return workers;
    });
    killer.join();

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.run.failed_workers, 1u);
    EXPECT_GE(tcp.result.net.reassignments, 1u);
    EXPECT_TRUE(archives_identical(reference, tcp.archive));
}

TEST(TcpExecutor, HungWorkerIsReapedByHeartbeatTimeout) {
    // No kill at all: the worker simply goes silent after the handshake.
    // Socket EOF never comes, so only the heartbeat timeout can save the
    // run.
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    auto config = test_config();
    config.heartbeat_timeout_ms = 500;
    const TcpRun tcp = run_tcp(config, [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        workers.push_back(
            spawn_worker(port, kProblem, {"--stall-after-handshake"}));
        for (int i = 0; i < 3; ++i)
            workers.push_back(spawn_worker(port, kProblem));
        return workers;
    });

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_GE(tcp.result.net.heartbeat_timeouts, 1u);
    EXPECT_EQ(tcp.result.run.failed_workers, 1u);
    EXPECT_GE(tcp.result.net.reassignments, 1u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.heartbeat_timeouts"),
              tcp.result.net.heartbeat_timeouts);
    EXPECT_TRUE(archives_identical(reference, tcp.archive));
}

// ----------------------------------------------------- handshake policing

TEST(TcpExecutor, MismatchedProblemSignatureIsRejected) {
    // A worker built for the wrong problem must be turned away with a
    // reason (exit code 2) and never dispatched to; the run completes on
    // the correctly-configured fleet.
    const GatedRun run =
        run_gated(test_config(), rejected_worker("dtlz2_3", {}));
    const TcpRun& tcp = run.tcp;

    EXPECT_EQ(run.first_result, 2);
    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.net.handshake_rejects, 1u);
    EXPECT_EQ(tcp.result.net.connects, 4u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.handshake_rejects"), 1u);
}

// ------------------------------------------------- fleet-scale I/O (§16)

TEST(TcpExecutor, EpollBackendByteIdenticalIncludingKill9Churn) {
    // The build's poller (epoll on Linux) serves the dispatch/ingest state
    // machine, so even with a worker SIGKILLed mid-evaluation the archive
    // must match the thread executor byte for byte.
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    auto config = test_config();
    std::thread killer;
    const TcpRun tcp = run_tcp(config, [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        workers.push_back(
            spawn_worker(port, kProblem, {"--eval-delay-ms", "10000"}));
        for (int i = 0; i < 3; ++i)
            workers.push_back(spawn_worker(port, kProblem));
        const pid_t victim = workers[0].pid();
        killer = std::thread([victim] {
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
            ::kill(victim, SIGKILL);
        });
        return workers;
    });
    killer.join();

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.run.failed_workers, 1u);
    EXPECT_GE(tcp.result.net.reassignments, 1u);
    EXPECT_TRUE(archives_identical(reference, tcp.archive))
        << "kill -9 changed the dispatch-mode archive";
    // Persistent registration actually ran: epoll_ctl syscalls happened,
    // and every wait/recv/send was counted.
#ifdef __linux__
    EXPECT_GE(tcp.result.net.syscalls_ctl, 4u);
#endif
    EXPECT_GT(tcp.result.net.syscalls_wait, 0u);
    EXPECT_GE(tcp.result.net.frames_sent, tcp.result.net.tasks_sent);
    EXPECT_EQ(counter_value(tcp.metrics, "net.syscalls_ctl"),
              tcp.result.net.syscalls_ctl);
}

TEST(TcpExecutor, PipelineDepthDoesNotChangeArchive) {
    // Two workers at depth 2 fill the same W=4 window one worker-FIFO at
    // a time: results still ingest in dispatch order, so the archive is
    // the same function of (seed, W, evals) as depth 1 with four workers.
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    auto config = test_config();
    config.pipeline_depth = 2;
    const TcpRun tcp = run_tcp(config, [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        for (int i = 0; i < 2; ++i)
            workers.push_back(spawn_worker(port, kProblem));
        return workers;
    });

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.net.results_received, kEvals);
    EXPECT_TRUE(archives_identical(reference, tcp.archive))
        << "pipelining depth changed the dispatch-mode archive";
    // Gathered writes: a handshake's HelloAck and the worker's first two
    // tasks leave in one sendmsg, so frames outnumber send calls (one
    // send per frame would make them equal).
    EXPECT_GT(tcp.result.net.frames_sent, tcp.result.net.syscalls_send);
}

TEST(TcpExecutor, SlowReaderBackpressureDrainsWithoutCorruption) {
    // One worker, a 96-deep dispatch burst, and deliberately tiny socket
    // buffers on both sides: the first gathered write cannot complete, so
    // the master must take the partial-write path, arm POLLOUT, and
    // resume draining the outbox ring across wakeups. The archive must
    // come out identical to a thread run at the same window — flow
    // control may stall frames, never corrupt or reorder them.
    constexpr std::size_t kBurst = 96;
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kBurst, kEvals);

    auto config = test_config();
    config.workers_expected = kBurst;
    config.pipeline_depth = kBurst;
    config.send_buffer_bytes = 1; // kernel clamps to its floor (~4 KiB)
    const TcpRun tcp = run_tcp(config, [&](std::uint16_t port) {
        std::vector<WorkerProc> workers;
        // --recv-buffer 1 shrinks the advertised TCP window to the
        // kernel floor (~2 KiB) *before* connecting; --eval-delay-ms
        // keeps the worker from draining the burst instantly.
        workers.push_back(spawn_worker(
            port, kProblem,
            {"--recv-buffer", "1", "--eval-delay-ms", "2"}));
        return workers;
    });

    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.net.results_received, kEvals);
    EXPECT_GE(tcp.result.net.send_blocked, 1u)
        << "burst never hit EWOULDBLOCK: the backpressure path was not "
           "exercised (socket buffers too large?)";
    // ~96 tasks x ~264 bytes queued against a ~7 KiB pipe: the outbox
    // must have held multiple frames at its peak.
    EXPECT_GE(tcp.result.net.outbox_peak_bytes, 2048u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.send_blocked"),
              tcp.result.net.send_blocked);
    EXPECT_TRUE(archives_identical(reference, tcp.archive))
        << "partial writes corrupted or reordered the frame stream";
}

TEST(TcpExecutor, OutboxOverflowReapsRunawayConnection) {
    // A worker that handshakes and then never reads: with a 4 KiB outbox
    // cap and a 64-deep dispatch burst queued before the first flush, the
    // cap trips at queue time and the connection is reaped — the bounded
    // outbox turns one wedged reader into a worker_failure instead of
    // unbounded master memory. No other worker exists, so the run times
    // out; the failure path must still publish net.* metrics.
    auto config = test_config();
    config.workers_expected = 64;
    config.pipeline_depth = 64;
    config.max_outbox_bytes = 4096;
    config.run_timeout_s = 1.0;

    const auto problem = problems::make_problem(kProblem);
    moea::BorgParams params =
        moea::BorgParams::for_problem(*problem, kEpsilon);
    moea::BorgMoea algorithm(*problem, params, kSeed);
    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);
    WorkerProc wedged = spawn_worker(executor.port(), kProblem,
                                     {"--stall-after-handshake"});

    obs::MetricsRegistry metrics;
    EXPECT_THROW(executor.run(kEvals, {.metrics = &metrics}),
                 parallel::TcpError);

    EXPECT_GE(counter_value(metrics, "net.outbox_overflow"), 1u);
    EXPECT_EQ(counter_value(metrics, "net.connects"), 1u);
    EXPECT_GE(counter_value(metrics, "net.reassignments"), 1u);
    // The reaped worker sees EOF. Its HelloAck was still queued behind
    // the burst when the cap tripped, so it dies un-handshaken (exit 1).
    EXPECT_EQ(wedged.wait_exit_or_kill(2000), 1);
}

// ----------------------------------------------------- run authentication

TEST(TcpExecutor, RunTokenMismatchIsRejectedWithoutDisturbingTheRun) {
    // Top-of-u64-range token: also proves the CLI round-trips the full
    // width. The imposter presents a different token and must be turned
    // away (exit 2, auth_rejects) while the matching fleet completes.
    const std::uint64_t token = 18446744073709551557ull;
    auto config = test_config();
    config.run_token = token;

    const GatedRun run =
        run_gated(config, rejected_worker(kProblem, {"--token", "12345"}),
                  {"--token", std::to_string(token)});
    const TcpRun& tcp = run.tcp;

    EXPECT_EQ(run.first_result, 2);
    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.net.auth_rejects, 1u);
    EXPECT_EQ(tcp.result.net.connects, 4u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.auth_rejects"), 1u);
}

TEST(TcpExecutor, WireVersionSkewIsRejectedPolitely) {
    // A worker speaking wire version 2 against a v1 master: the master
    // must answer with a v1 HelloAck carrying the reason (not just slam
    // the socket), so the skewed worker exits with the reject code and a
    // diagnosable message instead of a bare transport failure.
    const GatedRun run = run_gated(
        test_config(),
        rejected_worker(kProblem, {"--send-wire-version", "2"}));
    const TcpRun& tcp = run.tcp;

    EXPECT_EQ(run.first_result, 2);
    EXPECT_TRUE(tcp.result.run.completed_target);
    EXPECT_EQ(tcp.result.net.version_skew_rejects, 1u);
    EXPECT_EQ(counter_value(tcp.metrics, "net.version_skew_rejects"), 1u);
    EXPECT_TRUE(tcp.result.run.completed_target);
}

// ------------------------------------------------- result validation

/// First peer for run_gated, speaking the wire codec itself: it
/// handshakes as a kProblem worker, answers its first Task with a Result
/// that \p corrupt spoils, and then waits for the master to hang up.
/// Returns 1 when the master closed the connection after that Result,
/// 0 when the exchange went off script.
template <typename Corrupt>
auto scripted_peer(Corrupt corrupt) {
    return [corrupt](std::uint16_t port) {
        net::Socket socket = net::Socket::connect_to("127.0.0.1", port);
        if (!socket.valid()) return 0;
        const auto problem = problems::make_problem(kProblem);
        net::Hello hello;
        hello.num_variables =
            static_cast<std::uint32_t>(problem->num_variables());
        hello.num_objectives =
            static_cast<std::uint32_t>(problem->num_objectives());
        hello.num_constraints =
            static_cast<std::uint32_t>(problem->num_constraints());
        hello.problem = problem->name();
        if (!socket.send_all(net::encode_frame(hello))) return 0;

        net::FrameReader reader;
        std::vector<std::uint8_t> buffer(4096);
        const auto next = [&]() -> std::optional<net::Message> {
            for (;;) {
                if (std::optional<net::Message> m = reader.next()) return m;
                const net::Socket::IoResult io = socket.recv_some(buffer);
                if (io.closed) return std::nullopt;
                reader.feed({buffer.data(), io.bytes});
            }
        };
        const std::optional<net::Message> ack = next();
        const auto* accepted =
            ack ? std::get_if<net::HelloAck>(&*ack) : nullptr;
        if (accepted == nullptr || !accepted->accepted) return 0;
        const std::optional<net::Message> task = next();
        const auto* assigned = task ? std::get_if<net::Task>(&*task) : nullptr;
        if (assigned == nullptr) return 0;

        const net::Task& work = *assigned;
        net::Result result;
        result.seq = work.seq;
        result.eval_seconds = 0.001;
        result.objectives.resize(problem->num_objectives());
        result.constraints.resize(problem->num_constraints());
        problem->evaluate(work.variables, result.objectives);
        corrupt(result);
        if (!socket.send_all(net::encode_frame(result))) return 0;
        while (next()) {
        }
        return 1;
    };
}

TEST(TcpExecutor, InvalidResultsAreRejectedAndReassigned) {
    // A worker-reported T_F that is NaN or negative must not reach the
    // engine's T_F statistics, and a payload of the wrong arity or with a
    // non-finite objective must not reach a pool row: each such Result is
    // refused, its connection reaped, and the task reassigned — the
    // archive stays the reference archive. (zdt1 has no constraints, so
    // there is no constraint case.)
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    struct Case {
        const char* name;
        void (*corrupt)(net::Result&);
    };
    const Case cases[] = {
        {"NaN eval_seconds",
         [](net::Result& r) {
             r.eval_seconds = std::numeric_limits<double>::quiet_NaN();
         }},
        {"negative eval_seconds",
         [](net::Result& r) { r.eval_seconds = -1.0; }},
        {"extra objective",
         [](net::Result& r) { r.objectives.push_back(0.0); }},
        {"NaN objective",
         [](net::Result& r) {
             r.objectives[0] = std::numeric_limits<double>::quiet_NaN();
         }},
        {"+inf objective",
         [](net::Result& r) {
             r.objectives.back() = std::numeric_limits<double>::infinity();
         }},
        {"-inf objective",
         [](net::Result& r) {
             r.objectives[0] = -std::numeric_limits<double>::infinity();
         }},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const GatedRun run =
            run_gated(test_config(), scripted_peer(c.corrupt));
        const TcpRun& tcp = run.tcp;

        EXPECT_EQ(run.first_result, 1) << "the scripted peer went off script";
        EXPECT_TRUE(tcp.result.run.completed_target);
        EXPECT_EQ(tcp.result.net.invalid_results, 1u);
        EXPECT_EQ(counter_value(tcp.metrics, "net.invalid_results"), 1u);
        EXPECT_GE(tcp.result.net.reassignments, 1u);
        EXPECT_EQ(tcp.result.net.connects, 5u);
        EXPECT_EQ(tcp.result.run.failed_workers, 1u);
        EXPECT_EQ(tcp.result.run.tf_applied.count, kEvals);
        EXPECT_TRUE(std::isfinite(tcp.result.run.tf_applied.mean));
        EXPECT_GE(tcp.result.run.tf_applied.min, 0.0);
        EXPECT_TRUE(archives_identical(reference, tcp.archive))
            << "a refused result changed the dispatch-mode archive";
    }
}

// -------------------------------------------------------------- guardrails

TEST(TcpExecutor, RunTimeoutSurfacesAsTcpErrorWhenNoWorkersEverJoin) {
    auto config = test_config();
    config.run_timeout_s = 0.3;
    const auto problem = problems::make_problem(kProblem);
    moea::BorgParams params =
        moea::BorgParams::for_problem(*problem, kEpsilon);
    moea::BorgMoea algorithm(*problem, params, kSeed);
    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);
    EXPECT_THROW(executor.run(kEvals), parallel::TcpError);
}

TEST(TcpExecutor, RejectsZeroWorkerWindowAndZeroEvaluations) {
    EXPECT_THROW(
        {
            parallel::TcpRunConfig config;
            config.workers_expected = 0;
            parallel::TcpRunManager manager(config);
        },
        std::invalid_argument);

    const auto problem = problems::make_problem(kProblem);
    moea::BorgParams params =
        moea::BorgParams::for_problem(*problem, kEpsilon);
    moea::BorgMoea algorithm(*problem, params, kSeed);
    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem,
                                              test_config());
    EXPECT_THROW(executor.run(0), std::invalid_argument);
}

} // namespace
