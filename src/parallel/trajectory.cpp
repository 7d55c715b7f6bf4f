#include "parallel/trajectory.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace borg::parallel {

TrajectoryRecorder::TrajectoryRecorder(
    const metrics::HypervolumeNormalizer& normalizer, std::uint64_t interval)
    : normalizer_(normalizer), interval_(interval),
      next_checkpoint_(interval) {
    if (interval == 0)
        throw std::invalid_argument("trajectory: interval must be >= 1");
}

void TrajectoryRecorder::checkpoint(
    double time, std::uint64_t evaluations,
    const std::function<metrics::Front()>& front) {
    TrajectoryPoint point;
    point.time = time;
    point.evaluations = evaluations;
    metrics::Front f = front();
    if (last_valid_ && f == last_front_) {
        point.hypervolume = last_value_; // archive unchanged
    } else {
        point.hypervolume = normalizer_.normalized(f);
        last_front_ = std::move(f);
        last_value_ = point.hypervolume;
        last_valid_ = true;
    }
    points_.push_back(point);
}

void TrajectoryRecorder::on_result(
    double time, std::uint64_t evaluations,
    const std::function<metrics::Front()>& front) {
    if (evaluations < next_checkpoint_) return;
    checkpoint(time, evaluations, front);
    while (next_checkpoint_ <= evaluations) next_checkpoint_ += interval_;
}

void TrajectoryRecorder::finalize(
    double time, std::uint64_t evaluations,
    const std::function<metrics::Front()>& front) {
    if (!points_.empty() && points_.back().evaluations == evaluations) return;
    checkpoint(time, evaluations, front);
}

double TrajectoryRecorder::time_to_threshold(double threshold) const {
    return parallel::time_to_threshold(points_, threshold);
}

double TrajectoryRecorder::final_hypervolume() const {
    double best = 0.0;
    for (const TrajectoryPoint& p : points_)
        best = std::max(best, p.hypervolume);
    return best;
}

double time_to_threshold(const std::vector<TrajectoryPoint>& points,
                         double threshold) {
    for (const TrajectoryPoint& p : points)
        if (p.hypervolume >= threshold) return p.time;
    return std::numeric_limits<double>::infinity();
}

} // namespace borg::parallel
