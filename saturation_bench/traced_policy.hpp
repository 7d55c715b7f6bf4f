#ifndef SATURATION_BENCH_TRACED_POLICY_HPP
#define SATURATION_BENCH_TRACED_POLICY_HPP

/// The traced run's master policy: AsyncBorgPolicy::serve reproduced call
/// for call, with steady-clock spans around the two algorithm calls and
/// around the whole service. Every span is taken here, around public
/// functions, so the program under test is unchanged; the archive of a
/// traced run must be byte-identical to the untraced one.

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "parallel/master_policies.hpp"

namespace satbench {

class TracedAsyncPolicy final : public borg::parallel::AsyncBorgPolicy {
public:
    using AsyncBorgPolicy::AsyncBorgPolicy;

    void reserve(std::uint64_t results) { ingest_s_.reserve(results); }

    Service serve(borg::parallel::ClusterEngine& engine,
                  const borg::parallel::WorkerRef& worker,
                  borg::parallel::WorkItem work) override {
        const auto start = Clock::now();
        observe_result(engine, work);
        const auto ingest_start = Clock::now();
        algorithm_.receive_handle(work.handle);
        const auto ingest_end = Clock::now();
        ingest_s_.push_back(seconds(ingest_start, ingest_end));
        std::optional<borg::parallel::WorkItem> next;
        if (issued_ < engine.target()) {
            borg::parallel::WorkItem fresh;
            fresh.pool = &algorithm_.pool();
            const auto variation_start = Clock::now();
            fresh.handle = algorithm_.next_offspring_handle();
            variation_s_ += seconds(variation_start, Clock::now());
            next = fresh;
            ++issued_;
        }
        const double measured = seconds(start, Clock::now());
        const auto actor = static_cast<std::int64_t>(worker.global);
        const double ta = engine.sample_ta(worker.group, actor, measured);
        const double tc1 = engine.sample_tc(worker.group, actor);
        const double tc2 = engine.sample_tc(worker.group, actor);
        serve_s_ += seconds(start, Clock::now());
        return {tc1 + ta + tc2, std::move(next)};
    }

    /// Per-result receive_handle durations, in ingest order.
    const std::vector<double>& ingest_s() const noexcept { return ingest_s_; }
    double variation_s() const noexcept { return variation_s_; }
    double serve_s() const noexcept { return serve_s_; }

private:
    using Clock = std::chrono::steady_clock;
    static double seconds(Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    }

    std::vector<double> ingest_s_;
    double variation_s_ = 0.0;
    double serve_s_ = 0.0;
};

} // namespace satbench

#endif
