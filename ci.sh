#!/usr/bin/env bash
# Tier-1 CI: warning-free Release build (-Werror) + full tests (fast,
# slow, threads, and
# the net tier's loopback TCP fault-injection suite) plus five repeats of
# the TCP loopback tests, a clang-tidy pass
# over the engine/parallel layer (skipped when clang-tidy is not
# installed), the arena-ownership lint, the trace_check observability
# gate, the hypervolume, ε-archive, and DES agreement+speedup smoke
# gates, the variation-operator agreement gate, a small Figure 3 grid at
# --jobs 1, 2 and 8 compared byte for byte with a checked-in fixture,
# a one-second run of every BENCHMARK.json workload through
# saturation_bench/run.py, the fast+threads+net
# tiers (including the SolutionPool and allocation-behavior tests) under
# AddressSanitizer + UBSan (float-cast-overflow included; the first
# report fails the test), and the concurrency surface (SPSC rings,
# sweep runner, host-thread executor) under ThreadSanitizer.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

echo "=== Release build (warnings are errors) + tests (all tiers) ==="
# The tree builds without a warning; -DBORG_WERROR=ON keeps it so.
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON -DBORG_WERROR=ON \
  >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== TCP loopback tests, repeated (schedule races fail here) ==="
# The loopback suite forks real worker fleets; a test that races its own
# fleet passes most runs, so one clean pass proves little. Five parallel
# repeats make such a race fail CI instead of a later change.
ctest --test-dir build -R '^TcpExecutor\.' --output-on-failure \
  --repeat until-fail:5 -j "$jobs"

echo "=== clang-tidy (static analysis; gate on new warnings) ==="
# The compile database is always generated (editors and other tooling
# consume it too); the tidy pass itself degrades to a skip when the
# binary is absent so the gate never depends on host packages.
if command -v clang-tidy >/dev/null 2>&1; then
  # Checks are configured in .clang-tidy; -warnings-as-errors there turns
  # any new finding into a CI failure.
  find src bench examples -name '*.cpp' -print0 |
    xargs -0 -P "$jobs" -n 8 clang-tidy -p build --quiet
else
  echo "clang-tidy not installed; skipping static-analysis gate"
fi

echo "=== arena ownership lint (Solution storage goes through the pool) ==="
# The SolutionPool arena (DESIGN.md §15) is the only legal allocator of
# per-offspring Solution storage; clang-tidy is not installed on every
# host, so a plain grep enforces the rule's sharp edge: heap-allocating
# individual Solutions is forbidden everywhere. Owning Solution values on
# the stack or in vectors remain legal at cold boundaries (checkpoint
# materialization, tests).
if grep -rnE 'new +(borg::)?(moea::)?Solution\b|make_unique< *(borg::)?(moea::)?Solution\b|make_shared< *(borg::)?(moea::)?Solution\b' \
    src bench examples tests; then
  echo "FAIL: raw Solution heap allocation outside the SolutionPool arena"
  exit 1
fi

echo "=== trace_check (observability cross-validation gate) ==="
./build/bench/trace_check

echo "=== hypervolume engine gate (agreement + speedup smoke) ==="
# Fails if the engine disagrees with the naive reference WFG (1e-9
# relative) or is not faster on the paper's 5-objective cell.
./build/bench/micro_hypervolume --quick --json build/BENCH_hypervolume.json

echo "=== archive engine gate (agreement + speedup smoke) ==="
# Fails if ArchiveEngine diverges from the NaiveArchive oracle (the
# test-only tests/naive_archive.hpp) on any verdict, member, or counter
# over the 20k-candidate prefill stream or the recorded archive10k
# replay stream, if Population::inject diverges
# from its scalar reference on that replay stream or on the 100-member
# one, if two dominance-kernel widths disagree (the reach forms
# included), or if the engine is not faster on the 1e3-member
# steady-state cell.
./build/bench/micro_archive --quick --json build/BENCH_archive.json

echo "=== DES engine gate (agreement + speedup smoke) ==="
# Fails if des::Environment, a hold loop on the CalendarQueue and the same
# hold loop on the binary-heap oracle (the test-only tests/heap_queue.hpp)
# disagree on the P = 4096 ticker schedule (wake-order hash, event count,
# final clock), or if the calendar queue is slower than the heap on that
# hold loop (queue against queue; the environment's ns/event is reported).
./build/bench/micro_des --quick --json build/BENCH_des.json

echo "=== operator gate (recorded-offspring agreement + timing smoke) ==="
# Fails if any operator's apply()/apply_into offspring diverge from the
# digests recorded in tests/operator_digests.hpp, or if produce_batch
# diverges from sequential apply_into calls. The full grid
# (BENCH_operators.json, not run here) additionally times the master hot
# loop — next_offspring_handle + receive_handle, the calls the parallel
# master serves — against seed baselines recorded on another host.
./build/bench/micro_operators --quick --json build/BENCH_operators.json

echo "=== evaluation-time-bias gate (bias + countermeasure smoke) ==="
# Runs the real algorithm under heterogeneous T_F models. Fails if the
# plain async master stops exhibiting the fast-solution selection bias
# on the heritable-cost cell, if frequency-based selection stops
# measurably reducing it at equal budget (or costs hypervolume), or if
# speculative duplication stops bounding the straggler staleness tail.
./build/bench/micro_bias --quick --json build/BENCH_bias.json

echo "=== net gate (agreement + syscall-count smoke) ==="
# Forks a real 256-process borg_worker fleet against the build's poller
# (epoll on Linux, poll elsewhere). Fails if the archive diverges from the
# thread executor, if the master does not at least halve the io syscalls
# per result recorded for the retired tick-and-send-per-frame loop, or if
# it makes more than 2 epoll_ctl calls per connection (+2 for the
# listener; poll makes none). All three are counts, not timings.
./build/bench/micro_net --quick --json build/BENCH_net.json

echo "=== Figure 3 smoke (stdout pinned, identical for any --jobs) ==="
# Runs a small fig3_hv_speedup_dtlz2 grid of 3 cells (under 1 s) on one,
# two and eight sweep threads; eight asks for more threads than there
# are cells, so the sweep's min(jobs, cells) edge runs too. Fails unless
# every stdout equals tests/fig3_hv_speedup_smoke.expected: the
# trajectory recorder, the simulated runs and the sweep's
# jobs-invariance (DESIGN.md §9) are then pinned end to end, not only in
# unit tests.
for fig3_jobs in 1 2 8; do
  if ! ./build/bench/fig3_hv_speedup_dtlz2 --tf 0.01 --procs 16,64 \
      --evals 5000 --csv --jobs "$fig3_jobs" 2>/dev/null |
      cmp -s - tests/fig3_hv_speedup_smoke.expected; then
    echo "FAIL: fig3_hv_speedup_dtlz2 --jobs $fig3_jobs differs from" \
      "tests/fig3_hv_speedup_smoke.expected"
    exit 1
  fi
done

echo "=== saturation benchmark smoke (builds, runs, archives match) ==="
# Builds saturation_bench the way the benchmark harness does (run.py, its
# own CMake tree, here under build/) and runs every BENCHMARK.json
# workload for one second. Fails if the build or a run exits non-zero, or
# if the last line is not a result with "correct": true (a run's archive
# differed from the serial reference). Nothing here is gated on timing.
for workload in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  if ! out=$(CARGO_TARGET_DIR=build/saturation_bench_smoke \
      python3 saturation_bench/run.py --workload "$workload" --seed 1 \
      --seconds 1); then
    echo "FAIL: saturation_bench $workload exited non-zero"
    exit 1
  fi
  last=$(printf '%s\n' "$out" | tail -n 1)
  if ! printf '%s\n' "$last" | python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)'; then
    echo "FAIL: saturation_bench $workload: $last"
    exit 1
  fi
  echo "saturation_bench $workload: correct"
done

echo "=== Sanitizer build (address,undefined) + fast/threads/net tiers ==="
# -LE slow deliberately includes the net tier: the wire-codec fuzz tests
# exist precisely to prove that truncated/corrupted frames produce typed
# errors and never UB, and ASan/UBSan is where that claim has teeth.
# GCC's `undefined` group leaves out float-cast-overflow (an out-of-range
# double -> integer cast), so it is named explicitly. UBSan recovers by
# default: a report is printed and the test still passes. halt_on_error
# makes the first report fail the test instead. Only the test binaries
# and the worker they fork are built: the benches and the other examples
# never run here. borg_slow_tests stays in the list although -LE slow
# skips its tests: an unbuilt test binary registers a label-less
# <name>_NOT_BUILT placeholder test, which -LE slow would select and fail.
# Like tier 1, the build prints no warning, and -DBORG_WERROR=ON keeps it
# so.
cmake -B build-san -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBORG_WERROR=ON \
  -DBORG_SANITIZE=address,undefined,float-cast-overflow >/dev/null
cmake --build build-san -j "$jobs" --target borg_tests borg_alloc_tests \
  borg_thread_tests borg_net_tests borg_net_soak_tests borg_slow_tests \
  borg_worker
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-san --output-on-failure -j "$jobs" -LE slow

echo "=== ThreadSanitizer build + threads tier ==="
# The net tier is excluded from TSan by construction: only
# borg_thread_tests is built here. Decision: the TCP master is a
# single-threaded poll loop (no shared-memory concurrency to race), the
# workers are separate processes TSan cannot see across, and TSan's
# interceptors add multi-second latency to socket syscalls that would
# blow the net tier's 30 s per-test caps for zero additional coverage.
# The concurrency the net tier does have (the test harness's fleet-starter
# and late-joiner threads) hands its worker handles back only through
# join().
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBORG_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" --target borg_thread_tests
ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L threads

echo "ci.sh: all gates passed"
