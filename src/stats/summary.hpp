#ifndef BORG_STATS_SUMMARY_HPP
#define BORG_STATS_SUMMARY_HPP

/// \file summary.hpp
/// Descriptive statistics over timing samples and replicate results.

#include <cstddef>
#include <span>
#include <vector>

namespace borg::stats {

/// Streaming mean/variance accumulator (Welford). Numerically stable for
/// the microsecond-scale timing samples collected by the executors.
class Accumulator {
public:
    void add(double x) noexcept;

    /// Absorbs another accumulator's samples using Chan et al.'s parallel
    /// mean/M2 combination. Exact up to floating-point rounding and — key
    /// for the replicate-parallel sweep engine — independent of how the
    /// samples were partitioned, so per-thread partials combine without
    /// ordering effects.
    void merge(const Accumulator& other) noexcept;

    std::size_t count() const noexcept { return n_; }
    double mean() const noexcept { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance; 0 with fewer than two samples.
    double variance() const noexcept;
    double stddev() const noexcept;
    double min() const noexcept { return min_; }
    double max() const noexcept { return max_; }
    double sum() const noexcept { return mean_ * static_cast<double>(n_); }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Batch summary of a sample.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;

    /// Combines this summary with \p other as if the two underlying
    /// samples were pooled. count/mean/stddev/min/max are exact (Chan
    /// merge on the recovered second moments). The pooled median is not
    /// recoverable from two summaries; it is set to the count-weighted
    /// mean of the inputs' medians, an approximation callers that need
    /// exact medians must avoid by merging raw samples instead.
    Summary& merge(const Summary& other) noexcept;
};

/// Pooled summary of two disjoint samples; see Summary::merge.
Summary merge(Summary a, const Summary& b) noexcept;

/// The accumulator's count/mean/stddev/min/max as a Summary. A streaming
/// accumulator keeps no samples, so the median stays 0.
Summary to_summary(const Accumulator& acc) noexcept;

/// Computes a full summary (copies and partially sorts for the median).
Summary summarize(std::span<const double> xs);

/// Linear-interpolation quantile (type-7, matching R's default). q in [0,1].
double quantile(std::vector<double> xs, double q);

} // namespace borg::stats

#endif
