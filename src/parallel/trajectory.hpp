#ifndef BORG_PARALLEL_TRAJECTORY_HPP
#define BORG_PARALLEL_TRAJECTORY_HPP

/// \file trajectory.hpp
/// Records (time, evaluations, normalized hypervolume) checkpoints during a
/// run. The paper's Figures 3 and 4 need, for every configuration, the
/// first time each hypervolume threshold h was attained — for both the
/// serial baseline (T_S^h) and the parallel runs (T_P^h), giving the
/// hypervolume-based speedup S_P^h = T_S^h / T_P^h.

#include <cstdint>
#include <functional>
#include <vector>

#include "metrics/hypervolume.hpp"

namespace borg::parallel {

struct TrajectoryPoint {
    double time = 0.0; ///< virtual (or wall) seconds since run start
    std::uint64_t evaluations = 0;
    double hypervolume = 0.0; ///< normalized, 1 is ideal
};

class TrajectoryRecorder {
public:
    /// Computes a hypervolume checkpoint every \p interval evaluations
    /// (and on finalize). The normalizer must outlive the recorder.
    TrajectoryRecorder(const metrics::HypervolumeNormalizer& normalizer,
                       std::uint64_t interval);

    /// Called by executors after every ingested result. \p front is only
    /// invoked at checkpoints, so suppliers may be arbitrarily expensive.
    void on_result(double time, std::uint64_t evaluations,
                   const std::function<metrics::Front()>& front);

    /// Forces a final checkpoint at the run's end state.
    void finalize(double time, std::uint64_t evaluations,
                  const std::function<metrics::Front()>& front);

    const std::vector<TrajectoryPoint>& points() const noexcept {
        return points_;
    }

    /// First recorded time at which hypervolume reached \p threshold;
    /// +infinity when the run never got there.
    double time_to_threshold(double threshold) const;

    /// Best hypervolume seen across the whole run.
    double final_hypervolume() const;

private:
    void checkpoint(double time, std::uint64_t evaluations,
                    const std::function<metrics::Front()>& front);

    const metrics::HypervolumeNormalizer& normalizer_;
    std::uint64_t interval_;
    std::uint64_t next_checkpoint_;
    std::vector<TrajectoryPoint> points_;
    /// Most recently evaluated front and its value — consecutive
    /// checkpoints of an unchanged archive skip the recomputation.
    metrics::Front last_front_;
    double last_value_ = 0.0;
    bool last_valid_ = false;
};

/// Interpolation-free threshold lookup over an arbitrary trajectory:
/// first point with hypervolume >= threshold (+inf if none). Exposed for
/// post-hoc analysis of saved trajectories.
double time_to_threshold(const std::vector<TrajectoryPoint>& points,
                         double threshold);

} // namespace borg::parallel

#endif
