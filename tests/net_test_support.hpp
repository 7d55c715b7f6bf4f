#ifndef BORG_TESTS_NET_TEST_SUPPORT_HPP
#define BORG_TESTS_NET_TEST_SUPPORT_HPP

/// Process supervisor for the TCP run-manager tests: spawns real
/// borg_worker processes (fork + exec of BORG_WORKER_BIN, injected by
/// CMake into the tiers that fork workers), waits for them, and can
/// kill -9 one mid-evaluation — the fault the net tier exists to prove
/// survivable. Also provides the byte-identity helpers and reference
/// archives shared by the loopback and thread-executor tests; those need
/// no worker binary.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "moea/borg.hpp"
#include "moea/solution.hpp"
#include "moea/solution_pool.hpp"
#include "parallel/message.hpp"
#include "parallel/thread_executor.hpp"
#include "problems/problem.hpp"

namespace borg::testnet {

#ifdef BORG_WORKER_BIN

/// One spawned borg_worker. Reap (wait/kill9) before destruction; the
/// destructor force-kills leaked processes so a failed ASSERT cannot
/// strand children.
class WorkerProc {
public:
    explicit WorkerProc(pid_t pid) : pid_(pid) {}
    WorkerProc(WorkerProc&& other) noexcept : pid_(other.pid_) {
        other.pid_ = -1;
    }
    WorkerProc& operator=(WorkerProc&& other) noexcept {
        if (this != &other) {
            reap_if_running();
            pid_ = other.pid_;
            other.pid_ = -1;
        }
        return *this;
    }
    WorkerProc(const WorkerProc&) = delete;
    WorkerProc& operator=(const WorkerProc&) = delete;
    ~WorkerProc() { reap_if_running(); }

    pid_t pid() const noexcept { return pid_; }

    /// SIGKILL — the un-catchable death the reassignment path must absorb.
    void kill9() {
        if (pid_ < 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    /// Blocks until the worker exits; returns its exit code (-1 if it was
    /// killed by a signal).
    int wait_exit() {
        if (pid_ < 0) return -1;
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /// Waits up to \p timeout_ms for a voluntary exit, then SIGKILLs.
    /// The right cleanup for fleets that may contain deliberately hung
    /// workers (a stalled worker ignores Shutdown forever, by design).
    int wait_exit_or_kill(int timeout_ms) {
        if (pid_ < 0) return -1;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        int status = 0;
        while (std::chrono::steady_clock::now() < deadline) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        kill9();
        return -1;
    }

private:
    void reap_if_running() {
        if (pid_ < 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    pid_t pid_ = -1;
};

/// Spawns `borg_worker --connect 127.0.0.1:<port> --problem <problem>
/// <extra...>`. The worker retries the connect with backoff, so spawning
/// before the master polls (or even binds) is safe.
inline WorkerProc spawn_worker(std::uint16_t port,
                               const std::string& problem,
                               std::vector<std::string> extra = {}) {
    std::vector<std::string> args;
    args.emplace_back(BORG_WORKER_BIN);
    args.emplace_back("--connect");
    args.emplace_back("127.0.0.1:" + std::to_string(port));
    args.emplace_back("--problem");
    args.emplace_back(problem);
    for (auto& a : extra) args.push_back(std::move(a));

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(BORG_WORKER_BIN, argv.data());
        _exit(127); // exec failed
    }
    return WorkerProc(pid);
}

#endif // BORG_WORKER_BIN

/// Exact (bitwise, via ==) equality of two archives, member by member —
/// the determinism gate: a TCP run's archive must match the thread
/// executor's dispatch-mode archive byte for byte.
inline bool archives_identical(const std::vector<moea::Solution>& a,
                               const std::vector<moea::Solution>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].variables != b[i].variables) return false;
        if (a[i].objectives != b[i].objectives) return false;
        if (a[i].constraints != b[i].constraints) return false;
        if (a[i].operator_index != b[i].operator_index) return false;
    }
    return true;
}

/// The reference archive every transport must reproduce: the thread
/// executor under the window protocol with the same (seed, window,
/// evaluations).
inline std::vector<moea::Solution>
reference_archive(const problems::Problem& problem, double epsilon,
                  std::uint64_t seed, std::size_t window,
                  std::uint64_t evaluations) {
    moea::BorgParams params = moea::BorgParams::for_problem(problem, epsilon);
    moea::BorgMoea algorithm(problem, params, seed);
    parallel::ThreadMasterSlaveExecutor executor(
        window, parallel::IngestOrder::dispatch);
    executor.run(algorithm, problem, evaluations);
    return algorithm.archive().solutions();
}

/// The window protocol replayed on one thread, with no transport and no
/// master core: claim W offspring, then for each i in 0..N-1 evaluate
/// offspring i, ingest it, and claim one more while fewer than N were
/// claimed. Under IngestOrder::dispatch every transport's archive is a
/// pure function of (seed, W, N), so this is the independent oracle for
/// it.
inline std::vector<moea::Solution>
window_serial_archive(const problems::Problem& problem, double epsilon,
                      std::uint64_t seed, std::size_t window,
                      std::uint64_t evaluations) {
    moea::BorgParams params = moea::BorgParams::for_problem(problem, epsilon);
    moea::BorgMoea algorithm(problem, params, seed);
    std::deque<moea::SolutionHandle> inflight;
    std::uint64_t issued = 0;
    for (; issued < window && issued < evaluations; ++issued)
        inflight.push_back(algorithm.next_offspring_handle());
    for (std::uint64_t i = 0; i < evaluations; ++i) {
        const moea::SolutionHandle handle = inflight.front();
        inflight.pop_front();
        moea::evaluate(problem, algorithm.pool(), handle);
        algorithm.receive_handle(handle);
        if (issued < evaluations) {
            inflight.push_back(algorithm.next_offspring_handle());
            ++issued;
        }
    }
    return algorithm.archive().solutions();
}

} // namespace borg::testnet

#endif
