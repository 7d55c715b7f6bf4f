/// borg_master: the master side of the TCP run manager (DESIGN.md §14).
///
///   $ ./borg_master --listen 127.0.0.1:0 --workers-expected 4
///         --problem zdt1 --evals 2000 --seed 42 &
///   # the master prints "listening on 127.0.0.1:<port>"; point workers at it:
///   $ for i in 1 2 3 4; do
///         ./borg_worker --connect 127.0.0.1:<port> --problem zdt1 &
///     done
///
/// Runs the real asynchronous Borg MOEA with evaluations farmed out to
/// borg_worker processes. Under --ingest dispatch (the default) the final
/// archive is byte-identical to a thread-executor run with the same seed
/// and window, regardless of worker churn.

#include <cstdio>
#include <string>

#include "moea/borg.hpp"
#include "net/event_poller.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/message.hpp"
#include "parallel/tcp_executor.hpp"
#include "problems/problem.hpp"
#include "util/cli.hpp"

namespace {

bool parse_endpoint(const std::string& value, std::string& host,
                    std::uint16_t& port) {
    const std::size_t colon = value.rfind(':');
    if (colon == std::string::npos || colon + 1 >= value.size()) return false;
    host = value.substr(0, colon);
    const long parsed = std::stol(value.substr(colon + 1));
    if (parsed < 0 || parsed > 65535) return false;
    port = static_cast<std::uint16_t>(parsed);
    return !host.empty();
}

} // namespace

int main(int argc, char** argv) {
    using namespace borg;
    const util::CliArgs args(argc, argv);
    args.check_known({"listen", "workers-expected", "heartbeat-ms",
                      "heartbeat-timeout-ms", "problem", "evals", "seed",
                      "epsilon", "ingest", "timeout-s", "pipeline-depth",
                      "token"});

    parallel::TcpRunConfig config;
    std::string listen = args.get("listen", "127.0.0.1:0");
    if (!parse_endpoint(listen, config.host, config.port)) {
        std::fprintf(stderr, "borg_master: bad --listen (host:port)\n");
        return 1;
    }
    config.workers_expected =
        static_cast<std::size_t>(args.get_uint("workers-expected", 4));
    config.heartbeat_interval_ms =
        static_cast<std::uint32_t>(args.get_uint("heartbeat-ms", 250));
    config.heartbeat_timeout_ms = static_cast<std::uint32_t>(
        args.get_uint("heartbeat-timeout-ms", 2000));
    config.run_timeout_s = args.get_double("timeout-s", 0.0);
    const std::string ingest = args.get("ingest", "dispatch");
    if (ingest == "dispatch") {
        config.ingest = parallel::IngestOrder::dispatch;
    } else if (ingest == "arrival") {
        config.ingest = parallel::IngestOrder::arrival;
    } else {
        std::fprintf(stderr,
                     "borg_master: --ingest must be dispatch or arrival\n");
        return 1;
    }

    config.pipeline_depth =
        static_cast<std::size_t>(args.get_uint("pipeline-depth", 1));
    // --token N uses N (0 = auth disabled); omitting the flag generates a
    // fresh token. Either way it is printed so workers can be launched
    // with --token <value>.
    if (args.get("token", "").empty()) {
        config.run_token = parallel::generate_run_token();
    } else {
        try {
            config.run_token = std::stoull(args.get("token", "0"));
        } catch (const std::exception&) {
            std::fprintf(stderr, "borg_master: --token expects an integer\n");
            return 1;
        }
    }

    const std::string problem_name = args.get("problem", "zdt1");
    const auto evaluations =
        static_cast<std::uint64_t>(args.get_uint("evals", 2000));
    const auto seed = static_cast<std::uint64_t>(args.get_uint("seed", 42));
    const double epsilon = args.get_double("epsilon", 0.01);

    const auto problem = problems::make_problem(problem_name);
    moea::BorgParams params = moea::BorgParams::for_problem(*problem, epsilon);
    moea::BorgMoea algorithm(*problem, params, seed);

    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);
    std::printf("listening on %s:%u\n", config.host.c_str(),
                static_cast<unsigned>(executor.port()));
    std::printf("run token %llu\n",
                static_cast<unsigned long long>(config.run_token));
    std::fflush(stdout); // the harness reads the port from this line

    obs::MetricsRegistry metrics;
    parallel::TcpRunResult result;
    try {
        result = executor.run(evaluations, {.metrics = &metrics});
    } catch (const parallel::TcpError& error) {
        std::fprintf(stderr, "borg_master: %s\n", error.what());
        return 1;
    }

    std::printf("problem           : %s\n", problem->name().c_str());
    std::printf("evaluations       : %llu\n",
                static_cast<unsigned long long>(result.run.evaluations));
    std::printf("elapsed seconds   : %.3f\n", result.run.elapsed);
    std::printf("archive size      : %zu\n", algorithm.archive().size());
    std::printf("workers connected : %llu\n",
                static_cast<unsigned long long>(result.net.connects));
    std::printf("disconnects       : %llu (graceful %llu)\n",
                static_cast<unsigned long long>(result.net.disconnects),
                static_cast<unsigned long long>(result.net.graceful_leaves));
    std::printf("reassignments     : %llu\n",
                static_cast<unsigned long long>(result.net.reassignments));
    std::printf("heartbeat timeouts: %llu\n",
                static_cast<unsigned long long>(result.net.heartbeat_timeouts));
    std::printf("tasks sent        : %llu, results received: %llu\n",
                static_cast<unsigned long long>(result.net.tasks_sent),
                static_cast<unsigned long long>(result.net.results_received));
    std::printf("bytes sent/recv   : %llu / %llu\n",
                static_cast<unsigned long long>(result.net.bytes_sent),
                static_cast<unsigned long long>(result.net.bytes_received));
    std::printf("poller            : %s\n", net::Poller::kName);
    if (result.net.results_received > 0)
        std::printf("io syscalls       : %llu (%.2f per result)\n",
                    static_cast<unsigned long long>(result.net.io_syscalls()),
                    static_cast<double>(result.net.io_syscalls()) /
                        static_cast<double>(result.net.results_received));
    return 0;
}
