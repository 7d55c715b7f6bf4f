/// Fleet soak benchmark and archive agreement gate for the TCP run
/// manager (DESIGN.md §16).
///
/// The scalability claims of the asynchronous master live or die on the
/// master's per-result overhead: once hundreds of workers stream results
/// at it, the readiness mechanism, the send batching, and the heartbeat
/// bookkeeping are the master's whole CPU budget. This driver forks real
/// borg_worker fleets (sleep-dominated evaluations, so on a small
/// container the workers park in nanosleep and the master's event loop is
/// the only busy party) at F in {64, 128, 256, 512} and reports, per cell:
///
///   * master CPU per result (getrusage RUSAGE_SELF around run(): the
///     workers are separate processes, so this isolates engine + loop);
///   * io syscalls per result (send + recv + wait + ctl) — the number the
///     serve loop's gathered writes and single-shot reads exist to shrink.
///     The readiness backend is the build's (net::Poller: epoll on Linux,
///     poll elsewhere);
///   * epoll_ctl calls (poll: none);
///   * mean dispatch -> ingest latency;
///   * an archive byte-identity check against the thread executor at the
///     same (seed, window, evals) — a wrong archive voids the timing.
///
/// Gates (exit non-zero on failure). Every gate is an archive or a count:
/// structural numbers that do not move with host timing noise.
///   * agreement: a pipelined F = 16 cell must produce an archive
///     byte-identical to the thread reference;
///   * every timed cell's archive must match its thread reference;
///   * at the F = 256 cell, the master must spend <= half the io
///     syscalls per result that the retired loop shape (one send per
///     frame, read-until-EAGAIN probes, a 20 ms tick, an O(conns)
///     heartbeat scan) was recorded at in the default cell shape
///     (kRetiredLoopSyscallsPerResult). Other cell shapes skip this gate;
///   * at the F = 256 cell, epoll must keep what persistent registration
///     promises: epoll_ctl calls <= 2 per connection + 2 (one add and one
///     remove per worker socket and for the listener), however many
///     results flow. Write-interest churn or per-wait re-registration
///     would scale with results and fail it. (Under poll the count is 0.)
/// `--quick` (the ci.sh smoke gate) runs only the agreement cell and the
/// F = 256 cell, at 12 evaluations per worker.
///
/// The checked-in BENCH_net.json is regenerated from a Release build with
/// `micro_net --json BENCH_net.json`.
///
/// The default cell shape (depth 8, no eval delay) is the firehose case:
/// every worker answers instantly and always has work queued, so results
/// arrive in per-connection bursts and the master's read/write batching
/// is fully exposed — the serve loop coalesces both directions.
/// `--delay-ms 2 --depth 2` reproduces the sleep-dominated soak shape
/// instead (one result per wakeup, batching mostly idle).
///
/// Flags: --fleets 64,128,256,512  --depth 8  --evals-per-worker 24
///        --delay-ms 0  --seed 20260809  --json FILE  --quick

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "moea/borg.hpp"
#include "net/event_poller.hpp"
#include "net_test_support.hpp"
#include "parallel/tcp_executor.hpp"
#include "problems/problem.hpp"
#include "util/cli.hpp"

namespace {

using namespace borg;
using testnet::archives_identical;
using testnet::reference_archive;
using testnet::spawn_worker;
using testnet::WorkerProc;

constexpr const char* kProblem = "zdt1";
constexpr double kEpsilon = 0.01;

/// io syscalls per result of the retired serve-loop shape at F = 256 in
/// the default cell shape (depth 8, no eval delay, 24 evals per worker),
/// as BENCH_net.json recorded it for the poll backend before that shape
/// was deleted. Every F in {64..512} recorded the same 1.42.
constexpr double kRetiredLoopSyscallsPerResult = 1.42;
constexpr std::size_t kRetiredLoopDepth = 8;
constexpr int kRetiredLoopDelayMs = 0;

double cpu_seconds_self() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

struct CellResult {
    std::size_t fleet = 0;
    std::size_t window = 0;
    std::uint64_t evals = 0;
    double cpu_us_per_result = 0.0;
    double wall_s = 0.0;
    double syscalls_per_result = 0.0;
    std::uint64_t syscalls_ctl = 0;
    double latency_ms_mean = 0.0;
    double frames_per_send = 0.0;
    bool archive_match = false;
};

struct CellSpec {
    std::size_t fleet;
    std::size_t depth;
    std::uint64_t evals;
    std::uint64_t seed;
    int delay_ms;
};

/// One full master run against a freshly forked fleet. The reference
/// archive for (window, evals) is supplied by the caller.
CellResult run_cell(const CellSpec& spec,
                    const std::vector<moea::Solution>& reference) {
    const auto problem = problems::make_problem(kProblem);
    moea::BorgParams params =
        moea::BorgParams::for_problem(*problem, kEpsilon);
    moea::BorgMoea algorithm(*problem, params, spec.seed);

    parallel::TcpRunConfig config;
    config.workers_expected = spec.fleet * spec.depth;
    config.pipeline_depth = spec.depth;
    config.heartbeat_interval_ms = 250;
    // Fork storms on a loaded single-core machine can stall a worker for
    // seconds before its first byte; reaping it would change the fleet
    // under test.
    config.heartbeat_timeout_ms = 20000;
    config.run_timeout_s = 300.0;

    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);
    std::vector<WorkerProc> fleet;
    fleet.reserve(spec.fleet);
    for (std::size_t i = 0; i < spec.fleet; ++i)
        fleet.push_back(spawn_worker(
            executor.port(), kProblem,
            {"--eval-delay-ms", std::to_string(spec.delay_ms)}));

    const double cpu0 = cpu_seconds_self();
    const auto wall0 = std::chrono::steady_clock::now();
    const parallel::TcpRunResult result = executor.run(spec.evals);
    const double cpu1 = cpu_seconds_self();
    const auto wall1 = std::chrono::steady_clock::now();
    for (auto& w : fleet) w.wait_exit_or_kill(5000);

    CellResult cell;
    cell.fleet = spec.fleet;
    cell.window = config.workers_expected;
    cell.evals = spec.evals;
    const double results =
        static_cast<double>(result.net.results_received);
    cell.cpu_us_per_result = (cpu1 - cpu0) * 1e6 / results;
    cell.wall_s =
        std::chrono::duration<double>(wall1 - wall0).count();
    cell.syscalls_per_result =
        static_cast<double>(result.net.io_syscalls()) / results;
    cell.syscalls_ctl = result.net.syscalls_ctl;
    cell.latency_ms_mean = result.net.latency_sum_s * 1e3 / results;
    cell.frames_per_send =
        result.net.syscalls_send > 0
            ? static_cast<double>(result.net.frames_sent) /
                  static_cast<double>(result.net.syscalls_send)
            : 0.0;
    cell.archive_match =
        archives_identical(reference, algorithm.archive().solutions());
    return cell;
}

std::vector<std::size_t> parse_fleets(const std::string& csv) {
    std::vector<std::size_t> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) out.push_back(std::stoul(item));
    return out;
}

} // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    args.check_known({"fleets", "depth", "evals-per-worker", "delay-ms",
                      "seed", "json", "quick"});

    const bool quick = args.get_bool("quick");
    std::vector<std::size_t> fleets =
        parse_fleets(args.get("fleets", quick ? "256" : "64,128,256,512"));
    const auto depth =
        static_cast<std::size_t>(args.get_uint("depth", 8));
    const auto evals_per_worker = static_cast<std::uint64_t>(
        args.get_uint("evals-per-worker", quick ? 12 : 24));
    const int delay_ms = static_cast<int>(args.get_int("delay-ms", 0));
    const auto seed =
        static_cast<std::uint64_t>(args.get_uint("seed", 20260809));
    const std::string json_path = args.get("json", "");

    std::cout << "poller: " << net::Poller::kName << "\n";

    const auto problem = problems::make_problem(kProblem);
    int rc = 0;

    // ------------------------------------------------ agreement gate
    // Small pipelined fleet against the thread-executor reference: the
    // archives must be byte-identical or every number below is worthless.
    {
        const std::size_t fleet = 16;
        const std::uint64_t evals = 800;
        const std::vector<moea::Solution> reference = reference_archive(
            *problem, kEpsilon, seed, fleet * depth, evals);
        const CellResult cell =
            run_cell({fleet, depth, evals, seed, delay_ms}, reference);
        std::cout << "agreement F=16"
                  << (cell.archive_match ? ": archives identical\n"
                                         : ": MISMATCH\n");
        if (!cell.archive_match) {
            std::cerr << "FAIL: the TCP archive diverged from the thread "
                         "executor\n";
            return 1;
        }
    }

    // ------------------------------------------------------ timed grid
    std::vector<CellResult> cells;
    for (const std::size_t fleet : fleets) {
        const std::uint64_t evals = evals_per_worker * fleet;
        const std::vector<moea::Solution> reference = reference_archive(
            *problem, kEpsilon, seed, fleet * depth, evals);
        const CellResult cell =
            run_cell({fleet, depth, evals, seed, delay_ms}, reference);
        std::printf(
            "F=%-4zu cpu/result %8.1f us  syscalls/result %6.2f  "
            "latency %6.2f ms  frames/send %5.2f  wall %5.2f s  %s\n",
            cell.fleet, cell.cpu_us_per_result, cell.syscalls_per_result,
            cell.latency_ms_mean, cell.frames_per_send, cell.wall_s,
            cell.archive_match ? "archive ok" : "ARCHIVE MISMATCH");
        if (!cell.archive_match) rc = 1;
        cells.push_back(cell);
    }

    // ---------------------------------------------------- syscall gates
    const CellResult* cell256 = nullptr;
    for (const CellResult& c : cells)
        if (c.fleet == 256) cell256 = &c;
    if (cell256 != nullptr) {
        const std::uint64_t max_ctl = 2 * cell256->fleet + 2;
        std::printf("gate: F=256 io syscalls/result %.2f (retired loop: "
                    "%.2f); epoll_ctl %llu (limit %llu)\n",
                    cell256->syscalls_per_result,
                    kRetiredLoopSyscallsPerResult,
                    static_cast<unsigned long long>(cell256->syscalls_ctl),
                    static_cast<unsigned long long>(max_ctl));
        if (depth == kRetiredLoopDepth && delay_ms == kRetiredLoopDelayMs) {
            if (cell256->syscalls_per_result >
                0.5 * kRetiredLoopSyscallsPerResult) {
                std::cerr << "FAIL: the master must halve the retired "
                             "loop's io syscalls per result at F=256 (got "
                          << cell256->syscalls_per_result << ")\n";
                rc = 1;
            }
        } else {
            std::cout << "note: cell shape differs from the recorded "
                         "baseline's; syscall gate skipped\n";
        }
        if (cell256->syscalls_ctl > max_ctl) {
            std::cerr << "FAIL: " << cell256->syscalls_ctl
                      << " epoll_ctl calls at F=256; persistent "
                         "registration allows "
                      << max_ctl << "\n";
            rc = 1;
        }
    } else if (!fleets.empty()) {
        std::cout << "note: no F=256 cell in the grid; syscall gates "
                     "skipped\n";
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write " << json_path << "\n";
            return 2;
        }
        out << "{\n  \"benchmark\": \"micro_net\",\n"
            << "  \"problem\": \"" << kProblem << "\",\n"
            << "  \"pipeline_depth\": " << depth << ",\n"
            << "  \"evals_per_worker\": " << evals_per_worker << ",\n"
            << "  \"eval_delay_ms\": " << delay_ms << ",\n"
            << "  \"poller\": \"" << net::Poller::kName << "\",\n"
            << "  \"agreement\": true,\n"
            << "  \"retired_loop_io_syscalls_per_result\": "
            << kRetiredLoopSyscallsPerResult << ",\n"
            << "  \"cells\": [\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellResult& c = cells[i];
            char buf[384];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"fleet\": %zu, \"window\": %zu, \"evals\": %llu, "
                "\"cpu_us_per_result\": %.2f, "
                "\"io_syscalls_per_result\": %.2f, "
                "\"epoll_ctl_calls\": %llu, "
                "\"latency_ms_mean\": %.3f, \"frames_per_send\": %.2f, "
                "\"wall_s\": %.2f, \"archive_match\": %s}%s\n",
                c.fleet, c.window,
                static_cast<unsigned long long>(c.evals),
                c.cpu_us_per_result, c.syscalls_per_result,
                static_cast<unsigned long long>(c.syscalls_ctl),
                c.latency_ms_mean, c.frames_per_send, c.wall_s,
                c.archive_match ? "true" : "false",
                i + 1 < cells.size() ? "," : "");
            out << buf;
        }
        out << "  ]\n}\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}
