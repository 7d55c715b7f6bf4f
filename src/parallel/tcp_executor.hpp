#ifndef BORG_PARALLEL_TCP_EXECUTOR_HPP
#define BORG_PARALLEL_TCP_EXECUTOR_HPP

/// \file tcp_executor.hpp
/// The real-transport run manager: the asynchronous master-slave protocol
/// over TCP sockets (DESIGN.md §14).
///
/// The master binds a listening socket; `borg_worker` processes connect,
/// self-describe (handshake), evaluate tasks, and heartbeat. The manager
/// owns only the wire — sockets, frames, handshakes, heartbeats, outboxes,
/// and the reassignment of a lost worker's tasks. Everything above the
/// wire (window seeding, the task table, ingest order, the engine's
/// trace and metrics) is the WindowProtocol core the thread executor
/// drives too (window_protocol.hpp), serving the same EventMasterPolicy
/// objects the virtual-time executors use through ClusterEngine's
/// external (real-time) mode.
///
/// Determinism: under IngestOrder::dispatch (the default) results are
/// ingested strictly in task-sequence order, and the master retains every
/// dispatched offspring as a pool row (the wire round-trip only carries
/// variables out and objectives back). The final archive is then a pure
/// function of (seed, window = workers_expected, evaluations) —
/// byte-identical to ThreadMasterSlaveExecutor in dispatch mode with the
/// same window and to a single-threaded replay of the window protocol,
/// and invariant under worker churn, late joins, kill -9, and reassignment
/// (tests/test_tcp_executor.cpp holds the gates).
///
/// Fault model: a dead socket (kill -9 → EOF/reset) or a Result that fails
/// validation reassigns the worker's outstanding tasks immediately; a hung
/// worker is reaped by heartbeat timeout (the backstop — workers evaluate
/// single-threaded, so the timeout must exceed the worst-case single
/// evaluation). A Goodbye frame
/// is a graceful leave: the worker departs without being counted as a
/// failure, and any outstanding task is reassigned. Workers may join at
/// any point during the run.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "moea/borg.hpp"
#include "parallel/cluster_engine.hpp"
#include "parallel/message.hpp"
#include "parallel/run_context.hpp"
#include "parallel/virtual_cluster.hpp"
#include "problems/problem.hpp"

namespace borg::parallel {

/// Transport-level failure that prevents the run from completing (cannot
/// bind, run timeout with no live workers, ...). Peer-level failures never
/// throw — they are reassignment events.
class TcpError : public std::runtime_error {
public:
    explicit TcpError(const std::string& what) : std::runtime_error(what) {}
};

struct TcpRunConfig {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; TcpRunManager::port() reports it.
    std::uint16_t port = 0;
    /// The window W of the dispatch protocol: W tasks are claimed from the
    /// policy up front and the pipeline is kept W deep. Also the processor
    /// count reported to the engine (workers_expected + 1). Live workers
    /// may be fewer (stragglers, deaths) or more (late joins) at any time.
    std::size_t workers_expected = 4;
    /// dispatch = schedule-invariant window protocol (deterministic
    /// archive); arrival = ingest in arrival order (classic MPI_ANY_SOURCE
    /// semantics, nondeterministic under real concurrency).
    IngestOrder ingest = IngestOrder::dispatch;
    /// Cadence the master asks workers to heartbeat at (sent in HelloAck).
    std::uint32_t heartbeat_interval_ms = 250;
    /// Silence longer than this marks a worker dead and reassigns its
    /// task. Must exceed the worst-case single evaluation time.
    std::uint32_t heartbeat_timeout_ms = 2000;
    /// Abort the run (TcpError) after this many wall-clock seconds.
    /// 0 disables — but tests should always set it (harness safety net).
    double run_timeout_s = 0.0;
    /// Tasks kept in flight per connection. 1 reproduces the classic
    /// one-task-per-worker protocol; d > 1 hides the master round-trip by
    /// letting each worker hold a backlog (its results still return in
    /// per-connection FIFO order, so determinism is untouched — the
    /// archive stays a pure function of (seed, workers_expected, evals)).
    /// To keep F processes busy at depth d, set workers_expected = F * d.
    std::size_t pipeline_depth = 1;
    /// Cap on bytes queued toward one connection. A worker that stops
    /// reading (stalled process, wedged NIC queue) would otherwise grow
    /// its outbox without bound; at the cap the connection is reaped
    /// (net.outbox_overflow) and its tasks reassigned.
    std::size_t max_outbox_bytes = std::size_t{4} << 20;
    /// Per-run authentication token carried in Hello. 0 disables the
    /// check; any other value rejects workers whose token differs, so two
    /// runs sharing a cluster cannot cross-connect. See
    /// generate_run_token().
    std::uint64_t run_token = 0;
    /// Requested SO_SNDBUF for accepted sockets (0 = kernel default).
    /// Tests shrink it to force partial writes / POLLOUT re-arming.
    int send_buffer_bytes = 0;
};

/// A fresh, unguessable-enough token for TcpRunConfig::run_token (this is
/// cross-connect *hygiene* between cooperating runs, not a security
/// boundary — the wire is cleartext).
std::uint64_t generate_run_token();

/// Transport counters for one run, also published as net.* metrics.
struct TcpRunStats {
    std::uint64_t connects = 0;          ///< handshakes accepted
    std::uint64_t disconnects = 0;       ///< sockets that left (any reason)
    std::uint64_t graceful_leaves = 0;   ///< Goodbye-frame departures
    std::uint64_t handshake_rejects = 0; ///< signature/version mismatches
    std::uint64_t reassignments = 0;     ///< tasks re-queued after a loss
    std::uint64_t heartbeat_timeouts = 0;
    std::uint64_t stale_results = 0;     ///< results for already-done tasks
    /// Results refused at the trust boundary (non-finite or negative
    /// eval_seconds, wrong objective/constraint arity); each reaps its
    /// connection and reassigns the task.
    std::uint64_t invalid_results = 0;
    std::uint64_t connect_retries = 0;   ///< summed worker connect backoffs
    std::uint64_t tasks_sent = 0;        ///< Task frames (incl. redispatch)
    std::uint64_t results_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    // --- fleet-scale instrumentation (DESIGN.md §16) ---
    std::uint64_t frames_sent = 0;       ///< frames queued toward workers
    std::uint64_t syscalls_send = 0;     ///< send/sendmsg calls
    std::uint64_t syscalls_recv = 0;     ///< recv calls (incl. EAGAIN probes)
    std::uint64_t syscalls_wait = 0;     ///< poll/epoll_wait calls
    std::uint64_t syscalls_ctl = 0;      ///< epoll_ctl calls (poll: 0)
    std::uint64_t wakeups = 0;           ///< waits returning >= 1 event
    std::uint64_t send_blocked = 0;      ///< flushes stopped by EWOULDBLOCK
    std::uint64_t outbox_overflows = 0;  ///< conns reaped at max_outbox_bytes
    std::uint64_t outbox_peak_bytes = 0; ///< deepest outbox seen
    std::uint64_t auth_rejects = 0;      ///< run-token mismatches
    std::uint64_t version_skew_rejects = 0; ///< politely rejected handshakes
    double latency_sum_s = 0.0; ///< summed dispatch->ingest wall latency

    /// Kernel crossings attributable to transport I/O — the numerator of
    /// the bench's syscalls/result figure.
    std::uint64_t io_syscalls() const noexcept {
        return syscalls_send + syscalls_recv + syscalls_wait + syscalls_ctl;
    }
};

struct TcpRunResult {
    VirtualRunResult run; ///< elapsed here is wall-clock seconds
    TcpRunStats net;
};

/// The master side. Construction binds + listens (so workers can already
/// connect while the caller finishes setup); run() serves one run to
/// completion and is not reusable.
class TcpRunManager {
public:
    explicit TcpRunManager(const TcpRunConfig& config);
    ~TcpRunManager();
    TcpRunManager(const TcpRunManager&) = delete;
    TcpRunManager& operator=(const TcpRunManager&) = delete;

    /// The actually-bound port (resolves port 0).
    std::uint16_t port() const noexcept;

    /// Serves \p evaluations results through \p policy over the socket
    /// fleet. \p problem supplies the handshake signature workers are
    /// validated against (the master never evaluates). ctx.trace receives
    /// the full event stream plus net_connect / net_disconnect /
    /// net_reassign; ctx.metrics the engine's "async.*" instruments and
    /// the transport's "net.*" counters; ctx.recorder per-result
    /// checkpoints, exactly as in the virtual executors.
    TcpRunResult run(EventMasterPolicy& policy,
                     const problems::Problem& problem,
                     std::uint64_t evaluations, const RunContext& ctx = {});

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper mirroring AsyncMasterSlaveExecutor: the real Borg
/// algorithm over TCP. Binds on construction; port() tells the harness
/// where to point the workers.
class TcpMasterSlaveExecutor {
public:
    TcpMasterSlaveExecutor(moea::BorgMoea& algorithm,
                           const problems::Problem& problem,
                           const TcpRunConfig& config);

    std::uint16_t port() const noexcept { return manager_.port(); }

    TcpRunResult run(std::uint64_t evaluations, const RunContext& ctx = {});

private:
    moea::BorgMoea& algorithm_;
    const problems::Problem& problem_;
    TcpRunManager manager_;
};

} // namespace borg::parallel

#endif
