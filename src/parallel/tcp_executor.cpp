#include "parallel/tcp_executor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <optional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_poller.hpp"
#include "net/outbox.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/master_policies.hpp"
#include "parallel/window_protocol.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now().time_since_epoch())
            .count());
}

} // namespace

std::uint64_t generate_run_token() {
    std::random_device rd;
    std::uint64_t token = (std::uint64_t{rd()} << 32) ^ rd();
    token ^= steady_ns();
    if (token == 0) token = 1; // 0 means "check disabled"
    return token;
}

struct TcpRunManager::Impl {
    /// A task sent to a worker: its seq (what the wire carries) and its
    /// row in the window's task table.
    struct Inflight {
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };

    // One connected socket in some lifecycle state. `handshaking` sockets
    // have no worker identity yet; `closing` ones carry a handshake
    // rejection that still needs to drain before the close (any bytes the
    // peer keeps sending meanwhile are discarded unparsed).
    struct Conn {
        net::Socket socket;
        net::FrameReader reader;
        net::Outbox outbox;
        enum class State { handshaking, active, closing } state =
            State::handshaking;
        std::uint32_t worker_id = 0; ///< valid once active
        /// Outstanding tasks, oldest first. The worker evaluates its
        /// queue FIFO, so results must come back in exactly this order —
        /// depth > 1 (pipelining) changes latency, never ingest order.
        std::vector<Inflight> inflight;
        std::uint64_t last_heard_ms = 0;
        bool want_write = false; ///< write interest as the poller knows it
        bool registered = false; ///< fd currently known to the poller
        bool dirty = false;      ///< queued bytes awaiting the batched flush
        bool dead = false;
    };

    TcpRunConfig config;
    net::Listener listener;
    bool ran = false;

    // Per-run state (valid during run()). The window owns the task table,
    // the dispatch queue and credits, and ingest order; this driver owns
    // the wire.
    WindowProtocol* window = nullptr;
    const problems::Problem* problem = nullptr;
    obs::TraceSink* trace = nullptr;
    TcpRunStats stats;
    /// Readiness backend (DESIGN.md §16): epoll on Linux, poll elsewhere.
    std::optional<net::Poller> poller;
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<Conn*> active_by_id; ///< O(1) worker-id -> conn
    std::uint32_t next_worker_id = 0;
    bool any_dead = false; ///< gates the dead-conn erase
    std::uint64_t next_sweep_ms = 0; ///< due time of the heartbeat sweep
    /// Decode target reused across every Result frame: its vectors keep
    /// their capacity, so the steady-state receive path never allocates.
    net::Result scratch_result;
    std::vector<std::uint8_t> frame_scratch; ///< staging for one frame
    std::vector<std::uint8_t> recv_buf;      ///< 64 KiB single-shot reads
    std::vector<Conn*> dirty_conns;          ///< batched-flush worklist

    explicit Impl(const TcpRunConfig& cfg)
        : config(cfg), listener(cfg.host, cfg.port) {
        recv_buf.resize(std::size_t{64} * 1024);
        frame_scratch.reserve(512);
    }

    static std::uint64_t now_ms() { return steady_ns() / 1'000'000u; }

    /// Heartbeat sweep period: multi-second timeouts need no finer reap.
    static constexpr std::uint64_t kSweepMs = 64;

    Conn* find_active(std::uint32_t worker_id) {
        if (worker_id >= active_by_id.size()) return nullptr;
        Conn* conn = active_by_id[worker_id];
        return (conn != nullptr && !conn->dead) ? conn : nullptr;
    }

    // ------------------------------------------------------- send path

    /// Appends the frame staged in frame_scratch to \p conn's outbox —
    /// unless that would cross max_outbox_bytes, in which case the peer
    /// is a stalled reader and gets reaped instead of growing the buffer
    /// without bound. Returns false when the conn was reaped.
    bool queue_scratch(Conn& conn) {
        if (conn.outbox.size() + frame_scratch.size() >
            config.max_outbox_bytes) {
            ++stats.outbox_overflows;
            conn_lost(conn, /*graceful=*/false);
            return false;
        }
        conn.outbox.append(frame_scratch);
        ++stats.frames_sent;
        if (conn.outbox.size() > stats.outbox_peak_bytes)
            stats.outbox_peak_bytes = conn.outbox.size();
        return true;
    }

    bool queue_frame(Conn& conn, const net::Message& message) {
        frame_scratch.clear();
        net::encode_frame_into(message, frame_scratch);
        return queue_scratch(conn);
    }

    /// Marks the conn dirty; dirty conns drain once per loop turn, so a
    /// burst of frames to one worker leaves in one send.
    void after_queue(Conn& conn) {
        if (conn.dead) return;
        if (!conn.dirty) {
            conn.dirty = true;
            dirty_conns.push_back(&conn);
        }
    }

    void flush_dirty() {
        for (Conn* conn : dirty_conns) {
            conn->dirty = false;
            if (!conn->dead) flush(*conn);
        }
        dirty_conns.clear();
    }

    /// Drains as much outbox as the socket accepts right now — the unsent
    /// bytes are contiguous, so a whole backlog of frames costs one send.
    /// A hard send failure is a peer loss; a fully drained `closing` conn
    /// is closed.
    void flush(Conn& conn) {
        while (!conn.dead && !conn.outbox.empty()) {
            ++stats.syscalls_send;
            const net::Socket::IoResult io =
                conn.socket.send_some(conn.outbox.unsent());
            if (io.closed) {
                conn_lost(conn, /*graceful=*/false);
                return;
            }
            if (io.bytes == 0) {
                ++stats.send_blocked; // POLLOUT re-arms and resumes us
                break;
            }
            conn.outbox.consume(io.bytes);
            stats.bytes_sent += io.bytes;
        }
        if (conn.outbox.empty() && conn.state == Conn::State::closing) {
            close_quietly(conn);
            return;
        }
        update_write_interest(conn);
    }

    /// Only told to the poller on an actual transition, so a steady state
    /// whose outboxes drain in one write performs zero epoll_ctl calls.
    void update_write_interest(Conn& conn) {
        const bool want = !conn.outbox.empty();
        if (!conn.registered || want == conn.want_write) return;
        poller->set_write_interest(conn.socket.fd(), &conn, want);
        conn.want_write = want;
    }

    // -------------------------------------------------------- lifecycle

    /// Tears a socket down without any worker-level bookkeeping (none
    /// existed, or the caller already did it). Deregisters before close.
    void close_quietly(Conn& conn) {
        if (conn.dead) return;
        if (conn.registered) {
            poller->remove(conn.socket.fd());
            conn.registered = false;
        }
        conn.socket.close();
        conn.dead = true;
        any_dead = true;
    }

    /// A peer left: by Goodbye frame (graceful), or by EOF / reset /
    /// heartbeat timeout / outbox overflow (a failure). Outstanding work
    /// is reassigned either way; only failures count as worker_failure —
    /// the transport retains the dispatched pool row, so unlike the
    /// virtual cluster the policy is never told (no claim is lost).
    void conn_lost(Conn& conn, bool graceful) {
        if (conn.dead) return;
        if (conn.state != Conn::State::active) {
            close_quietly(conn);
            return;
        }
        ++stats.disconnects;
        if (graceful) ++stats.graceful_leaves;
        if (trace)
            trace->record({obs::EventKind::net_disconnect, window->now(),
                           static_cast<std::int64_t>(conn.worker_id), 0.0,
                           graceful ? 1u : 0u});
        if (!graceful) window->worker_failed(conn.worker_id);
        // Newest-first, so push_front leaves the lowest seq at the queue
        // head (it gates dispatch-order ingest).
        for (auto it = conn.inflight.rbegin(); it != conn.inflight.rend();
             ++it)
            reassign(*it, conn.worker_id);
        conn.inflight.clear();
        active_by_id[conn.worker_id] = nullptr;
        close_quietly(conn);
    }

    /// Returns a lost task to the window's queue head (unless its result
    /// already landed).
    void reassign(const Inflight& lost, std::uint32_t worker_id) {
        const WindowProtocol::Task* task =
            window->outstanding(lost.slot, lost.seq);
        if (task == nullptr) return;
        window->requeue(lost.slot);
        ++stats.reassignments;
        if (trace)
            trace->record({obs::EventKind::net_reassign, window->now(),
                           static_cast<std::int64_t>(worker_id),
                           static_cast<double>(lost.seq),
                           task->dispatch_count});
    }

    /// Sends queued tasks to workers with credit; a credit whose conn
    /// died or is already full is stale.
    void dispatch_pending() {
        window->dispatch(
            [this](std::uint32_t worker_id) {
                const Conn* conn = find_active(worker_id);
                return conn != nullptr &&
                       conn->inflight.size() < config.pipeline_depth;
            },
            [this](std::uint32_t worker_id, std::uint32_t slot,
                   WindowProtocol::Task& task) {
                Conn& conn = *find_active(worker_id);
                ++stats.tasks_sent;
                task.dispatched_at_ns = steady_ns();
                // Before queueing: an overflow reap must reassign it.
                conn.inflight.push_back({task.seq, slot});
                frame_scratch.clear();
                net::encode_task_frame_into(
                    task.seq, task.work.pool->variables(task.work.handle),
                    frame_scratch);
                if (queue_scratch(conn)) after_queue(conn);
            });
    }

    // ------------------------------------------------------- handshakes

    void handle_hello(Conn& conn, net::Hello&& hello) {
        if (conn.state != Conn::State::handshaking) {
            conn_lost(conn, /*graceful=*/false);
            return;
        }
        std::string reason;
        if (config.run_token != 0 && hello.run_token != config.run_token) {
            ++stats.auth_rejects;
            reason = "run token mismatch: this worker was launched for a "
                     "different run";
        } else if (hello.problem != problem->name()) {
            reason = "problem mismatch: master runs '" + problem->name() +
                     "', worker built '" + hello.problem + "'";
        } else if (hello.num_variables != problem->num_variables() ||
                   hello.num_objectives != problem->num_objectives() ||
                   hello.num_constraints != problem->num_constraints()) {
            reason = "problem dimensions differ from the master's";
        }
        if (!reason.empty()) {
            ++stats.handshake_rejects;
            conn.state = Conn::State::closing;
            if (queue_frame(conn, net::HelloAck{false, 0, 0, reason}))
                after_queue(conn);
            return;
        }
        const std::uint32_t id = next_worker_id++;
        conn.state = Conn::State::active;
        conn.worker_id = id;
        conn.inflight.reserve(config.pipeline_depth);
        if (active_by_id.size() <= id) active_by_id.resize(id + 1, nullptr);
        active_by_id[id] = &conn;
        ++stats.connects;
        if (hello.connect_attempts > 1)
            stats.connect_retries += hello.connect_attempts - 1;
        window->spawn(id);
        if (trace)
            trace->record({obs::EventKind::net_connect, window->now(),
                           static_cast<std::int64_t>(id),
                           static_cast<double>(hello.connect_attempts), 0});
        if (!queue_frame(conn, net::HelloAck{true, id,
                                             config.heartbeat_interval_ms,
                                             ""}))
            return;
        after_queue(conn);
        for (std::size_t d = 0; d < config.pipeline_depth; ++d)
            window->add_credit(id);
    }

    void handle_result(Conn& conn, net::Result& result) {
        // Workers evaluate FIFO, so a Result must answer the connection's
        // oldest in-flight task; one before the handshake finished or
        // with any other seq is a protocol violation like a bad payload.
        if (conn.state != Conn::State::active || conn.inflight.empty() ||
            conn.inflight.front().seq != result.seq) {
            ++stats.invalid_results;
            conn_lost(conn, /*graceful=*/false);
            return;
        }
        // eval_seconds feeds the engine's T_F, and the payload is copied
        // into a row of fixed width that the ε-box cast and the dominance
        // mirror read: a reply with a bad T_F, the wrong arity or a
        // non-finite objective or constraint is a protocol violation. The
        // task is still in conn.inflight, so conn_lost reassigns it.
        const auto finite = [](const std::vector<double>& values) {
            return std::ranges::all_of(
                values, [](double v) { return std::isfinite(v); });
        };
        if (!std::isfinite(result.eval_seconds) || result.eval_seconds < 0.0 ||
            result.objectives.size() != problem->num_objectives() ||
            result.constraints.size() != problem->num_constraints() ||
            !finite(result.objectives) || !finite(result.constraints)) {
            ++stats.invalid_results;
            conn_lost(conn, /*graceful=*/false);
            return;
        }
        const std::uint32_t slot = conn.inflight.front().slot;
        conn.inflight.erase(conn.inflight.begin());
        window->add_credit(conn.worker_id);
        WindowProtocol::Task* task = window->outstanding(slot, result.seq);
        if (task == nullptr) {
            // Another incarnation of this task already landed (it was
            // reassigned and both copies finished); drop the duplicate.
            ++stats.stale_results;
            return;
        }
        // Patch the wire payload straight into the arena row.
        WorkItem& work = task->work;
        std::ranges::copy(result.objectives,
                          work.pool->objectives_mut(work.handle).begin());
        std::ranges::copy(result.constraints,
                          work.pool->constraints_mut(work.handle).begin());
        ++stats.results_received;

        const std::uint64_t now_ns = steady_ns();
        const double measured_tc =
            now_ns > result.sent_at_ns
                ? static_cast<double>(now_ns - result.sent_at_ns) * 1e-9
                : 0.0;
        window->complete(slot,
                         {conn.worker_id, result.eval_seconds, measured_tc});
    }

    /// Non-Result frames only; Results take the allocation-free
    /// decode_result_frame path in read_from().
    void handle_message(Conn& conn, net::Message&& message) {
        if (auto* hello = std::get_if<net::Hello>(&message)) {
            handle_hello(conn, std::move(*hello));
        } else if (std::get_if<net::Heartbeat>(&message) != nullptr) {
            // Liveness only; last_heard was already refreshed by the read.
        } else if (std::get_if<net::Goodbye>(&message) != nullptr) {
            conn_lost(conn, /*graceful=*/true);
        } else {
            // HelloAck / Task / Shutdown are master->worker only; Result
            // cannot reach here (read_from intercepts those frames).
            conn_lost(conn, /*graceful=*/false);
        }
    }

    // -------------------------------------------------------- read path

    /// A closing conn (queued handshake reject) may keep pouring bytes at
    /// us; discard them unparsed, so level-triggered readiness cannot
    /// spin and a second protocol error cannot tear the conn down before
    /// its queued reject drains.
    void drain_and_discard(Conn& conn) {
        for (;;) {
            ++stats.syscalls_recv;
            const net::Socket::IoResult io = conn.socket.recv_some(recv_buf);
            stats.bytes_received += io.bytes;
            if (io.closed) {
                close_quietly(conn);
                return;
            }
            if (io.bytes < recv_buf.size()) return;
        }
    }

    void read_from(Conn& conn) {
        if (conn.state == Conn::State::closing) {
            drain_and_discard(conn);
            return;
        }
        // One 64 KiB read per readiness event: level triggering re-reports
        // any remainder on the next wait, so no read-until-EAGAIN probe is
        // paid — and one read routinely carries several pipelined results.
        ++stats.syscalls_recv;
        const net::Socket::IoResult io = conn.socket.recv_some(recv_buf);
        if (io.bytes > 0) {
            stats.bytes_received += io.bytes;
            conn.last_heard_ms = now_ms();
            conn.reader.feed({recv_buf.data(), io.bytes});
        }
        try {
            std::optional<std::span<const std::uint8_t>> frame;
            while (!conn.dead && !window->finished() &&
                   conn.state != Conn::State::closing &&
                   (frame = conn.reader.next_frame())) {
                if (net::decode_result_frame(*frame, scratch_result))
                    handle_result(conn, scratch_result);
                else
                    handle_message(conn, net::decode_frame(*frame));
            }
        } catch (const net::ProtocolError& error) {
            if (error.code() == net::WireError::version_skew &&
                conn.state == Conn::State::handshaking) {
                // A peer speaking another protocol version gets a
                // *polite* reject: the header layout is frozen across
                // versions, so any peer can decode the HelloAck far
                // enough to learn why it was refused and exit with the
                // reject code instead of dying on a torn socket.
                ++stats.version_skew_rejects;
                ++stats.handshake_rejects;
                conn.state = Conn::State::closing;
                if (queue_frame(conn,
                                net::HelloAck{false, 0, 0, error.what()}))
                    after_queue(conn);
            } else {
                // Malformed bytes: the stream is unrecoverable. Treated
                // as a peer loss — work is reassigned, the run continues.
                conn_lost(conn, /*graceful=*/false);
            }
        }
        if (io.closed && !conn.dead) conn_lost(conn, /*graceful=*/false);
    }

    void accept_all() {
        while (std::optional<net::Socket> socket = listener.accept_ready()) {
            auto conn = std::make_unique<Conn>();
            conn->socket = std::move(*socket);
            conn->socket.set_nonblocking(true);
            conn->socket.set_nodelay(true);
            if (config.send_buffer_bytes > 0)
                conn->socket.set_send_buffer(config.send_buffer_bytes);
            conn->last_heard_ms = now_ms();
            poller->add(conn->socket.fd(), conn.get(), false);
            conn->registered = true;
            conns.push_back(std::move(conn));
        }
    }

    // ------------------------------------------------------- heartbeats

    void expire(Conn& conn) {
        if (conn.state == Conn::State::active) {
            ++stats.heartbeat_timeouts;
            conn_lost(conn, /*graceful=*/false);
        } else {
            close_quietly(conn); // silent half-open handshake or a
                                 // closing drain nobody reads
        }
    }

    /// Reads only refresh last_heard_ms; once per kSweepMs the sweep
    /// expires every live conn silent for heartbeat_timeout_ms or longer,
    /// so a reap lands within one sweep of its deadline.
    void sweep_heartbeats() {
        const std::uint64_t now = now_ms();
        if (now < next_sweep_ms) return;
        next_sweep_ms = now + kSweepMs;
        for (auto& conn : conns)
            if (!conn->dead &&
                conn->last_heard_ms + config.heartbeat_timeout_ms <= now)
                expire(*conn);
    }

    // --------------------------------------------------------- teardown

    /// Best-effort: tell live workers the run is over, give their
    /// outboxes a moment to drain, then close everything.
    void broadcast_shutdown() {
        for (auto& conn : conns) {
            if (conn->dead || conn->state != Conn::State::active) continue;
            if (queue_frame(*conn, net::Shutdown{})) flush(*conn);
        }
        const auto deadline =
            SteadyClock::now() + std::chrono::milliseconds(200);
        for (;;) {
            bool outstanding = false;
            for (auto& conn : conns) {
                if (conn->dead) continue;
                if (!conn->outbox.empty()) flush(*conn);
                outstanding |= !conn->dead && !conn->outbox.empty();
            }
            if (!outstanding || SteadyClock::now() >= deadline) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        for (auto& conn : conns)
            if (!conn->dead) close_quietly(*conn);
    }

    void publish_metrics(obs::MetricsRegistry& metrics) const {
        metrics.counter("net.connects").inc(stats.connects);
        metrics.counter("net.disconnects").inc(stats.disconnects);
        metrics.counter("net.graceful_leaves").inc(stats.graceful_leaves);
        metrics.counter("net.handshake_rejects").inc(stats.handshake_rejects);
        metrics.counter("net.reassignments").inc(stats.reassignments);
        metrics.counter("net.heartbeat_timeouts")
            .inc(stats.heartbeat_timeouts);
        metrics.counter("net.stale_results").inc(stats.stale_results);
        metrics.counter("net.invalid_results").inc(stats.invalid_results);
        metrics.counter("net.connect_retries").inc(stats.connect_retries);
        metrics.counter("net.tasks_sent").inc(stats.tasks_sent);
        metrics.counter("net.results_received").inc(stats.results_received);
        metrics.counter("net.bytes_sent").inc(stats.bytes_sent);
        metrics.counter("net.bytes_received").inc(stats.bytes_received);
        metrics.counter("net.frames_sent").inc(stats.frames_sent);
        metrics.counter("net.syscalls_send").inc(stats.syscalls_send);
        metrics.counter("net.syscalls_recv").inc(stats.syscalls_recv);
        metrics.counter("net.syscalls_wait").inc(stats.syscalls_wait);
        metrics.counter("net.syscalls_ctl").inc(stats.syscalls_ctl);
        metrics.counter("net.wakeups").inc(stats.wakeups);
        metrics.counter("net.send_blocked").inc(stats.send_blocked);
        metrics.counter("net.outbox_overflow").inc(stats.outbox_overflows);
        metrics.counter("net.auth_rejects").inc(stats.auth_rejects);
        metrics.counter("net.version_skew_rejects")
            .inc(stats.version_skew_rejects);
        metrics.gauge("net.outbox_peak_bytes")
            .set(static_cast<double>(stats.outbox_peak_bytes));
        if (stats.results_received > 0) {
            const auto results =
                static_cast<double>(stats.results_received);
            metrics.gauge("net.syscalls_per_result")
                .set(static_cast<double>(stats.io_syscalls()) / results);
            metrics.gauge("net.latency_mean_s")
                .set(stats.latency_sum_s / results);
        }
        if (stats.syscalls_send > 0)
            metrics.gauge("net.frames_per_send")
                .set(static_cast<double>(stats.frames_sent) /
                     static_cast<double>(stats.syscalls_send));
    }

    TcpRunResult run(EventMasterPolicy& policy,
                     const problems::Problem& run_problem,
                     std::uint64_t evaluations, const RunContext& ctx) {
        if (ran) throw std::logic_error("tcp manager: run() already served");
        ran = true;
        if (evaluations == 0)
            throw std::invalid_argument("tcp manager: evaluations == 0");
        if (config.pipeline_depth == 0)
            throw std::invalid_argument("tcp manager: pipeline_depth == 0");

        try {
            poller.emplace();
        } catch (const net::SocketError& error) {
            throw TcpError(std::string("tcp manager: ") + error.what());
        }
        poller->add(listener.fd(), nullptr, false);

        problem = &run_problem;
        trace = ctx.trace;

        // The whole window is claimed up front, before any worker
        // connects, so the dispatch-order archive is a pure function of
        // (seed, W, N) rather than of connection timing.
        WindowProtocol run_window(config.workers_expected, config.ingest,
                                  ctx);
        window = &run_window;
        window->begin(policy, evaluations);

        const auto run_start = SteadyClock::now();
        try {
            serve_loop(run_start);
        } catch (...) {
            // The transport counters are often the diagnosis (e.g. an
            // outbox overflow reaping the only worker before the run
            // timeout fires) — publish them on the failure path too.
            fold_run_stats();
            if (ctx.metrics) publish_metrics(*ctx.metrics);
            for (auto& conn : conns)
                if (!conn->dead) close_quietly(*conn);
            window = nullptr;
            problem = nullptr;
            throw;
        }

        poller->remove(listener.fd());
        listener.close();
        broadcast_shutdown();

        fold_run_stats();

        TcpRunResult result;
        result.run = window->finish();
        result.net = stats;
        if (ctx.metrics) publish_metrics(*ctx.metrics);
        window = nullptr;
        problem = nullptr;
        return result;
    }

    void fold_run_stats() {
        stats.latency_sum_s = window->latency_sum_s();
        stats.syscalls_wait = poller->stats().wait_syscalls;
        stats.syscalls_ctl = poller->stats().ctl_syscalls;
        stats.wakeups = poller->stats().wakeups;
    }

    void serve_loop(SteadyClock::time_point run_start) {
        while (!window->finished()) {
            const double elapsed_s =
                std::chrono::duration<double>(SteadyClock::now() - run_start)
                    .count();
            if (config.run_timeout_s > 0.0 && elapsed_s > config.run_timeout_s)
                throw TcpError("tcp manager: run timeout exceeded");

            // Sleep until the next heartbeat sweep (no conns, no sweep),
            // capped so the run-timeout check stays live.
            std::uint64_t cap = 500;
            if (config.run_timeout_s > 0.0) {
                const double remaining_s = config.run_timeout_s - elapsed_s;
                const auto remaining_ms = static_cast<std::uint64_t>(
                    remaining_s > 0.0 ? remaining_s * 1000.0 + 1.0 : 1.0);
                cap = std::min(cap, remaining_ms);
            }
            if (!conns.empty()) {
                const std::uint64_t now = now_ms();
                cap = std::min(cap, next_sweep_ms > now ? next_sweep_ms - now
                                                        : std::uint64_t{0});
            }
            const auto timeout_ms = static_cast<int>(cap);

            std::span<const net::PollerEvent> events;
            try {
                events = poller->wait(timeout_ms);
            } catch (const net::SocketError& error) {
                throw TcpError(std::string("tcp manager: ") + error.what());
            }
            for (const net::PollerEvent& event : events) {
                if (window->finished()) break;
                if (event.data == nullptr) {
                    accept_all();
                    continue;
                }
                Conn& conn = *static_cast<Conn*>(event.data);
                if (conn.dead) continue;
                if (event.writable) flush(conn);
                if (!conn.dead && (event.readable || event.hangup))
                    read_from(conn);
            }
            if (window->finished()) break;
            sweep_heartbeats();
            dispatch_pending();
            flush_dirty();
            if (any_dead) {
                std::erase_if(conns, [](const std::unique_ptr<Conn>& c) {
                    return c->dead;
                });
                any_dead = false;
            }
        }
    }
};

TcpRunManager::TcpRunManager(const TcpRunConfig& config) {
    if (config.workers_expected == 0)
        throw std::invalid_argument("tcp manager: workers_expected == 0");
    try {
        impl_ = std::make_unique<Impl>(config);
    } catch (const net::SocketError& error) {
        throw TcpError(std::string("tcp manager: cannot listen on ") +
                       config.host + ": " + error.what());
    }
}

TcpRunManager::~TcpRunManager() = default;

std::uint16_t TcpRunManager::port() const noexcept {
    return impl_->listener.port();
}

TcpRunResult TcpRunManager::run(EventMasterPolicy& policy,
                                const problems::Problem& problem,
                                std::uint64_t evaluations,
                                const RunContext& ctx) {
    return impl_->run(policy, problem, evaluations, ctx);
}

TcpMasterSlaveExecutor::TcpMasterSlaveExecutor(
    moea::BorgMoea& algorithm, const problems::Problem& problem,
    const TcpRunConfig& config)
    : algorithm_(algorithm), problem_(problem), manager_(config) {}

TcpRunResult TcpMasterSlaveExecutor::run(std::uint64_t evaluations,
                                         const RunContext& ctx) {
    if (algorithm_.evaluations() != 0)
        throw std::logic_error("tcp executor: algorithm already used");
    AsyncBorgPolicy policy(algorithm_, problem_);
    return manager_.run(policy, problem_, evaluations, ctx);
}

} // namespace borg::parallel
