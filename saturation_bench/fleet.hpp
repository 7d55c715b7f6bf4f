#ifndef SATURATION_BENCH_FLEET_HPP
#define SATURATION_BENCH_FLEET_HPP

/// The simulated worker fleet: one forked, single-threaded process that
/// opens a few TCP connections to the master and makes each of them look
/// like `depth` workers. Every task is evaluated on the real problem and
/// held for a constant T_F from the moment it was read; because T_F is
/// constant, due times on one connection are non-decreasing, so results
/// leave in the per-connection FIFO order the master's pipeline protocol
/// requires. All results due at one wake-up leave in one write per
/// connection.
///
/// The fleet also measures, on its own clock, what the master cannot see:
/// the turnaround of each credit (result sent -> refill task read), how
/// late the generator ran against each due time, and its own CPU.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

#include "problems/problem.hpp"
#include "log_histogram.hpp"

namespace satbench {

struct FleetSpec {
    std::uint16_t port = 0;
    std::size_t connections = 1;
    std::size_t depth = 1;
    double tf_s = 0.0; ///< constant hold per task
    /// Minimum spacing between two wake-ups. 0 wakes on every readable
    /// byte (exact turnaround stamps); > 0 batches reads and writes when
    /// the master streams faster than the generator should wake.
    double wake_quantum_s = 0.0;
    int cpu = -1; ///< CPU the fleet pins itself to (-1: no pinning)
};

/// Plain data written back through a pipe when the fleet exits.
struct FleetReport {
    std::uint32_t ok = 0; ///< 1: every connection ended with Shutdown/EOF
    LogHistogram turnaround; ///< per credit: result sent -> refill read
    double lateness_p99_s = 0.0;
    double cpu_s = 0.0;  ///< process user + sys
    double wall_s = 0.0; ///< first handshake sent -> last connection closed
    double busy_s = 0.0; ///< wall minus time parked in sleep/ppoll
};

/// Owns one forked fleet process. The destructor kills and reaps a fleet
/// that is still running (a master run that threw), so no child outlives
/// its rep.
class FleetProcess {
public:
    FleetProcess(const FleetSpec& spec, const borg::problems::Problem& problem);
    ~FleetProcess();
    FleetProcess(const FleetProcess&) = delete;
    FleetProcess& operator=(const FleetProcess&) = delete;

    /// Waits (at most \p timeout_s) for the fleet to exit and returns its
    /// report; ok == 0 when it failed, timed out, or wrote nothing.
    FleetReport finish(double timeout_s);

private:
    pid_t pid_ = -1;
    int report_fd_ = -1;
};

} // namespace satbench

#endif
