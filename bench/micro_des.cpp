/// Discrete-event core benchmark and calendar-vs-heap agreement gate.
///
/// The DES scheduler bounds what a Figure 5 sweep point costs to simulate:
/// a P = 16,384 cell dispatches millions of timeout/acquire events, so
/// ns/event is the budget everything else lives inside. This driver runs
/// one jittered-ticker hold workload at P in {64, 4096, 16384} (256 events
/// per process, so the t = 0 spawn transient — every process in one epoch
/// — amortizes into the steady-state rate being measured) three ways:
///
///   * on des::Environment (calendar queue, DESIGN.md §13): coroutine
///     processes, the engine's real dispatch cost (`calendar_ns`);
///   * as a queue-level hold loop on the CalendarQueue alone, and
///   * as the same hold loop on the pre-rebuild binary heap, kept verbatim
///     as the test-only oracle tests/heap_queue.hpp (`heap_ns`).
///
/// The environment's schedule depends only on the order its queue pops
/// events, so the hold loop replays it exactly: the same pushes in the
/// same order with the same sequence numbers, one parked coroutine frame
/// per process as the handle. Before any timing is believed, an
/// order-sensitive FNV hash over every (process, clock) wake must match
/// across all three runs (same events, same order, same clock readings).
/// `speedup` is heap over calendar on the hold loop, so the gate compares
/// the two queues and nothing else.
///
/// ci.sh runs `--quick` (the P = 4096 cell only) as a smoke gate: exit is
/// non-zero on any disagreement or if the calendar queue is slower than
/// the heap. The full grid additionally gates >= 3x on the P = 4096 cell —
/// the event-dispatch headline — and produces the checked-in
/// BENCH_des.json (regenerate from a Release build with
/// `micro_des --json BENCH_des.json`). `--saturation` appends a
/// P = 100,000 cell (one sample) for the EXPERIMENTS.md saturation study.
///
/// Flags: --procs 64,4096,16384  --events 256  --samples 5  --seed 7
///        --json FILE  --quick  --saturation

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "des/environment.hpp"
#include "des/event_queue.hpp"
#include "heap_queue.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;

/// Order-sensitive splitmix-style accumulator: two schedules hash equal
/// only if they resume the same processes at the same clock readings in
/// the same order. One multiply + two xors per value, so the agreement
/// check adds negligible per-event overhead to the timed region.
struct ScheduleHash {
    std::uint64_t state = 0x9e3779b97f4a7c15ull;

    void mix(std::uint64_t v) noexcept {
        state = (state ^ v) * 0xff51afd7ed558ccdull;
        state ^= state >> 29;
    }
};

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// The hold delay for a uniform draw \p u: 90% long holds in [0.7, 1.1),
/// 10% short holds of ~2-5% of that. The short fraction models the
/// near-immediate wakeups every real model produces (resource handoffs,
/// fast evaluations in the heterogeneous-worker sweeps); a uniform-only
/// mix would be the binary heap's best case, since every push would land
/// near the bottom of the sift.
double hold_delay(double u) noexcept {
    return u < 0.1 ? 0.02 + 0.2 * u : 0.7 + 0.4 * u;
}

/// One run of the workload: what the agreement check compares and what
/// the timing reports.
struct HoldRun {
    double ns_per_event = 0.0;
    std::uint64_t events = 0;
    std::uint64_t hash = 0;
    double final_time = 0.0;
};

// ------------------------------------------- jittered tickers on the DES

/// Hold-model process (Ronngren & Ayani's classic priority-queue
/// workload): each wakeup schedules one new delay from hold_delay(). The
/// rng is shared, so draw order — and therefore every delay — depends on
/// the wake schedule: any ordering divergence cascades into different
/// event times, which the hash (and even the final clock) catches.
/// kHashed compiles the agreement instrumentation in or out: the hash is
/// one shared accumulator written by every wakeup — what the agreement
/// check needs, and what a pure event-dispatch timing should not pay for.
/// The schedule is identical either way: the hash never feeds back into a
/// delay.
template <bool kHashed>
des::Process jittered_ticker(des::Environment& env, util::Rng& rng,
                             int events, std::uint64_t tag,
                             ScheduleHash& hash) {
    for (int i = 0; i < events; ++i) {
        co_await env.delay(hold_delay(rng.uniform()));
        if constexpr (kHashed)
            hash.mix(tag ^ std::bit_cast<std::uint64_t>(env.now()));
    }
}

HoldRun run_environment(std::uint64_t procs, int events, std::uint64_t seed,
                        bool hashed) {
    des::Environment env;
    util::Rng rng(seed);
    ScheduleHash hash;
    for (std::uint64_t p = 0; p < procs; ++p)
        env.spawn(hashed ? jittered_ticker<true>(env, rng, events, p, hash)
                         : jittered_ticker<false>(env, rng, events, p,
                                                  hash));
    const auto t0 = std::chrono::steady_clock::now();
    env.run();
    const auto t1 = std::chrono::steady_clock::now();
    HoldRun r;
    r.events = env.event_count();
    r.hash = hash.state;
    r.final_time = env.now();
    r.ns_per_event = elapsed_ns(t0, t1) / static_cast<double>(r.events);
    return r;
}

// ------------------------------------------- the same holds on a queue

/// Pops the earliest event, whichever queue is behind it; a null handle
/// means the queue is empty.
des::CalendarQueue::Popped pop(des::CalendarQueue& queue) {
    return queue.pop_ready(std::numeric_limits<double>::infinity());
}

des::CalendarQueue::Popped pop(des::HeapQueue& queue) {
    des::EventRecord out;
    if (!queue.pop_if(std::numeric_limits<double>::infinity(), out))
        return {0.0, nullptr};
    return {out.time, out.handle};
}

/// The tickers' schedule replayed on a bare queue: process p is parked
/// frame p, spawned at t = 0 with sequence number p (Environment::spawn
/// order); each pop of p hashes the wake (all but the first, which is the
/// spawn) and, while p has delays left, pushes its next wake with the
/// next sequence number — exactly the pushes Environment::delay makes.
/// The popped frame's promise is read for its index, touching the frame
/// as a resume would.
template <bool kHashed, typename Queue>
HoldRun run_hold_loop(const des::ParkedFrames& frames, int events,
                      std::uint64_t seed) {
    Queue queue;
    util::Rng rng(seed);
    ScheduleHash hash;
    std::vector<int> left(frames.size(), events);
    std::uint64_t seq = 0;
    for (std::size_t p = 0; p < frames.size(); ++p)
        queue.push(0.0, seq++, frames[p]);
    HoldRun r;
    const auto t0 = std::chrono::steady_clock::now();
    for (auto popped = pop(queue); popped.handle; popped = pop(queue)) {
        ++r.events;
        r.final_time = popped.time;
        const std::size_t p = des::ParkedFrames::index_of(popped.handle);
        if constexpr (kHashed) {
            if (left[p] < events)
                hash.mix(p ^ std::bit_cast<std::uint64_t>(popped.time));
        }
        if (left[p] > 0) {
            --left[p];
            queue.push(popped.time + hold_delay(rng.uniform()), seq++,
                       popped.handle);
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.hash = hash.state;
    r.ns_per_event = elapsed_ns(t0, t1) / static_cast<double>(r.events);
    return r;
}

double median(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/// One timed sample: \p reps unhashed runs of \p run, ns per dispatched
/// event. Only the dispatch loops are timed (each run brackets its own
/// loop): construction, spawning and teardown are setup, and counting
/// them would dilute every side by the same additive constant. Every rep
/// must reproduce the calibration pass's event count and bit-exact final
/// clock: the rng is shared across all processes, so any ordering
/// divergence changes which process draws which delay and the final clock
/// cascades away from the reference.
template <typename Run>
double timed_sample_ns(const char* side, std::uint64_t procs,
                       std::uint64_t reps, const HoldRun& reference,
                       Run run) {
    double ns = 0.0;
    std::uint64_t total = 0;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        const HoldRun r = run();
        ns += r.ns_per_event * static_cast<double>(r.events);
        total += r.events;
        if (r.events != reference.events ||
            std::bit_cast<std::uint64_t>(r.final_time) !=
                std::bit_cast<std::uint64_t>(reference.final_time)) {
            std::cerr << "FAIL: nondeterministic schedule across timed reps ("
                      << side << ", P=" << procs << ")\n";
            std::exit(2);
        }
    }
    return ns / static_cast<double>(total);
}

// --------------------------------------------------------------- report

std::string format_ns(double ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ns < 1e4 ? "%.1f" : "%.3g", ns);
    return buf;
}

struct CellReport {
    std::uint64_t procs = 0;
    double calendar_ns = 0.0;       ///< Environment, per dispatched event
    double calendar_queue_ns = 0.0; ///< hold loop on the calendar queue
    double heap_ns = 0.0;           ///< hold loop on the heap oracle
    double speedup = 0.0;           ///< heap over calendar, hold loop
    bool schedule_match = false;
    bool gated = true; ///< saturation cells report without gating
};

bool same_schedule(const HoldRun& a, const HoldRun& b) {
    return a.hash == b.hash && a.events == b.events &&
           std::bit_cast<std::uint64_t>(a.final_time) ==
               std::bit_cast<std::uint64_t>(b.final_time);
}

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known(
        {"procs", "events", "samples", "seed", "json", "quick",
         "saturation"});
    auto procs = args.get_ints("procs", {64, 4096, 16384});
    const int events = static_cast<int>(args.get_uint("events", 256));
    auto samples = static_cast<std::size_t>(args.get_uint("samples", 5));
    const auto seed = static_cast<std::uint64_t>(args.get_uint("seed", 7));
    const std::string json_path = args.get("json", "");
    const bool quick = args.get_bool("quick");
    const bool saturation = args.get_bool("saturation");
    if (quick) {
        procs = {4096};
        samples = std::min<std::size_t>(samples, 3);
    }

    std::cout << "DES event dispatch, jittered ticker, " << events
              << " events/process, median of " << samples
              << " samples: des::Environment, and the same holds on the "
                 "calendar queue vs the binary-heap oracle\n";

    util::Table table({"P", "events", "env ns/ev", "calendar ns/ev",
                       "heap ns/ev", "speedup", "schedule"});
    std::vector<CellReport> cells;
    const auto run_cell = [&](std::uint64_t p, std::size_t cell_samples,
                              bool gated) {
        const std::uint64_t cell_seed = seed + p;
        const des::ParkedFrames frames(p);
        const auto calendar_loop = [&] {
            return run_hold_loop<false, des::CalendarQueue>(frames, events,
                                                            cell_seed);
        };
        const auto heap_loop = [&] {
            return run_hold_loop<false, des::HeapQueue>(frames, events,
                                                        cell_seed);
        };
        const auto environment = [&] {
            return run_environment(p, events, cell_seed, false);
        };
        // Calibration pass per side: schedule hash for the agreement
        // check, wall time to size the rep count (>= 20 ms per sample so
        // clock quantization stays negligible).
        const HoldRun env = run_environment(p, events, cell_seed, true);
        const HoldRun cal =
            run_hold_loop<true, des::CalendarQueue>(frames, events,
                                                    cell_seed);
        const HoldRun heap =
            run_hold_loop<true, des::HeapQueue>(frames, events, cell_seed);
        constexpr double kMinSampleNs = 2e7;
        const double fastest_ns =
            std::max(1.0, std::min({env.ns_per_event, cal.ns_per_event,
                                    heap.ns_per_event}) *
                              static_cast<double>(env.events));
        const auto reps = static_cast<std::uint64_t>(
            std::max(1.0, std::ceil(kMinSampleNs / fastest_ns)));

        // Samples interleave the sides so slow drift (thermal, noisy
        // neighbors) hits all of them; the speedup is the median of
        // per-sample ratios.
        std::vector<double> env_ns;
        std::vector<double> cal_ns;
        std::vector<double> heap_ns;
        std::vector<double> ratio;
        for (std::size_t s = 0; s < cell_samples; ++s) {
            env_ns.push_back(
                timed_sample_ns("environment", p, reps, env, environment));
            cal_ns.push_back(timed_sample_ns("calendar queue", p, reps, cal,
                                             calendar_loop));
            heap_ns.push_back(
                timed_sample_ns("heap queue", p, reps, heap, heap_loop));
            ratio.push_back(heap_ns.back() / cal_ns.back());
        }
        CellReport cell;
        cell.procs = p;
        cell.calendar_ns = median(env_ns);
        cell.calendar_queue_ns = median(cal_ns);
        cell.heap_ns = median(heap_ns);
        cell.speedup = median(ratio);
        cell.schedule_match =
            same_schedule(env, cal) && same_schedule(env, heap);
        cell.gated = gated;
        cells.push_back(cell);

        char speedup_buf[32];
        std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                      cell.speedup);
        table.add_row({std::to_string(p), std::to_string(env.events),
                       format_ns(cell.calendar_ns),
                       format_ns(cell.calendar_queue_ns),
                       format_ns(cell.heap_ns), speedup_buf,
                       cell.schedule_match ? "match" : "MISMATCH"});
    };
    for (const std::int64_t p : procs)
        run_cell(static_cast<std::uint64_t>(p), samples, true);
    if (saturation) run_cell(100000, 1, false);
    table.print(std::cout);

    int rc = 0;
    for (const CellReport& cell : cells) {
        if (!cell.schedule_match) {
            std::cerr << "FAIL: the environment, the calendar queue and the "
                         "heap disagree on the P="
                      << cell.procs << " ticker schedule\n";
            rc = 2;
        }
    }
    if (rc != 0) return rc;

    // Speed gates, queue against queue. Quick (ci.sh): the calendar queue
    // must not lose to the heap on the P = 4096 cell. Full grid: >= 3x
    // there — the event-dispatch headline of the calendar rebuild.
    for (const CellReport& cell : cells) {
        if (!cell.gated || cell.procs != 4096) continue;
        const double required = quick ? 1.0 : 3.0;
        if (cell.speedup < required) {
            std::cerr << "FAIL: calendar speedup " << cell.speedup
                      << " < required " << required << " at P=4096\n";
            rc = 1;
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2fx", cell.speedup);
            std::cout << "gate: P=4096 calendar speedup " << buf << "\n";
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write " << json_path << "\n";
            return 2;
        }
        out << "{\n  \"benchmark\": \"micro_des\",\n"
            << "  \"workload\": \"jittered-ticker\",\n"
            << "  \"events_per_proc\": " << events << ",\n"
            << "  \"samples\": " << samples << ",\n"
            << "  \"cells\": [\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellReport& c = cells[i];
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"procs\": %llu, \"calendar_ns\": %.1f, "
                "\"calendar_queue_ns\": %.1f, \"heap_ns\": %.1f, "
                "\"speedup\": %.2f, \"schedule_match\": %s}%s\n",
                static_cast<unsigned long long>(c.procs), c.calendar_ns,
                c.calendar_queue_ns, c.heap_ns, c.speedup,
                c.schedule_match ? "true" : "false",
                i + 1 < cells.size() ? "," : "");
            out << buf;
        }
        out << "  ]\n}\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}
