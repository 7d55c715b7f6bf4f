#ifndef SATURATION_BENCH_LOG_HISTOGRAM_HPP
#define SATURATION_BENCH_LOG_HISTOGRAM_HPP

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace satbench {

/// Log-bucketed histogram of durations in seconds (1 ns .. ~150 s in 1 %
/// buckets): fixed size, mergeable across runs and processes, quantiles
/// interpolated within a bucket (relative error < 1 %).
class LogHistogram {
public:
    void add(double seconds) {
        ++counts_[bucket_of(seconds)];
        ++total_;
    }
    void merge(const LogHistogram& other) {
        for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
        total_ += other.total_;
    }
    std::uint64_t count() const noexcept { return total_; }

    double quantile(double q) const {
        if (total_ == 0) return 0.0;
        const double rank = q * static_cast<double>(total_);
        double below = 0.0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const auto in_bucket = static_cast<double>(counts_[b]);
            if (in_bucket > 0.0 && below + in_bucket >= rank) {
                const double frac = std::clamp((rank - below) / in_bucket, 0.0, 1.0);
                return kMin * std::pow(kGrowth, static_cast<double>(b) + frac);
            }
            below += in_bucket;
        }
        return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
    }

private:
    static constexpr double kMin = 1e-9;
    static constexpr double kGrowth = 1.01;
    static constexpr std::size_t kBuckets = 2600;

    static std::size_t bucket_of(double seconds) {
        if (!(seconds > kMin)) return 0;
        const double b = std::log(seconds / kMin) / std::log(kGrowth);
        return std::min(static_cast<std::size_t>(b), kBuckets - 1);
    }

    std::array<std::uint32_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
};

} // namespace satbench

#endif
