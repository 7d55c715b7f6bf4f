#ifndef BORG_METRICS_HYPERVOLUME_HPP
#define BORG_METRICS_HYPERVOLUME_HPP

/// \file hypervolume.hpp
/// Hypervolume (S-metric) computation.
///
/// The paper measures solution quality with normalized hypervolume: the
/// volume of objective space dominated by the approximation set, divided by
/// the volume dominated by the problem's known reference set, so that 1 is
/// ideal (Section VI-A). All objectives are minimized; the reference point
/// must be weakly worse than every point considered.
///
/// Every trajectory checkpoint of every replicate of every sweep cell needs
/// a 5-objective exact hypervolume, so this kernel dominates the wall-clock
/// of the Figure 3/4 sweeps. The fast path is the HypervolumeEngine: a
/// WFG-style slicing recursion (While, Bradstreet & Barone 2012) over flat
/// contiguous point storage with per-depth scratch arenas — zero heap
/// allocation in the hot loop once warmed — that bottoms out in dedicated
/// exact 2D/3D sweep and 4D-slicing base cases, so a 5-objective call
/// recurses only one level. Policies (HvAlgo):
///  * wfg:   the engine's exact path;
///  * mc:    seeded Monte Carlo sampling of the bounding box;
///  * auto:  exact while the estimated cost fits HvConfig::exact_budget,
///    Monte Carlo beyond it (see DESIGN.md §11).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace borg::util {
class CliArgs;
} // namespace borg::util

namespace borg::metrics {

using Front = std::vector<std::vector<double>>;

/// Hypervolume algorithm policy; see file comment.
enum class HvAlgo { kAuto, kWfg, kMonteCarlo };

/// Parses "auto" | "wfg" | "mc"; throws std::invalid_argument (naming the
/// --hv-algo flag) on anything else.
HvAlgo parse_hv_algo(const std::string& name);

/// The flag spelling of the policy ("auto", "wfg", "mc").
const char* to_string(HvAlgo algo) noexcept;

struct HvConfig {
    HvAlgo algo = HvAlgo::kAuto;
    /// Monte Carlo draw count (policy mc, or auto beyond the budget).
    std::uint64_t mc_samples = 100000;
    std::uint64_t mc_seed = 0x5eed;
    /// auto policy: stay exact while n^(1 + (m-2)/2) <= exact_budget —
    /// an empirical fit of the slicing recursion's growth (DESIGN.md §11).
    double exact_budget = 5e7;
};

/// Parses --hv-algo / --hv-mc-samples into an HvConfig with strict
/// validation (unknown algorithm names and a zero sample count throw
/// std::invalid_argument).
HvConfig hv_config_from_cli(const util::CliArgs& args);

/// Cache key for NormalizerCache entries that differ only by policy:
/// "<base>|<algo>|<mc_samples>".
std::string normalizer_cache_key(const std::string& base,
                                 const HvConfig& config);

/// Reusable exact/Monte-Carlo hypervolume kernel.
///
/// One engine owns the scratch arenas for the whole recursion (flat point
/// rows per depth, sort-index arrays, 3D staircase buffers), so repeated
/// compute() calls on similar-sized fronts allocate nothing. NOT
/// thread-safe: use one engine per thread (the free functions below keep a
/// thread_local instance).
class HypervolumeEngine {
public:
    explicit HypervolumeEngine(HvConfig config = {});

    /// Hypervolume of \p front against \p reference_point under the
    /// configured policy. Points not strictly better than the reference
    /// point everywhere contribute nothing; empty fronts yield 0.
    double compute(const Front& front,
                   const std::vector<double>& reference_point);

    const HvConfig& config() const noexcept { return config_; }
    void set_config(const HvConfig& config) noexcept { config_ = config; }

private:
    /// Per-depth scratch for the 2D/3D sweep base cases.
    struct Scratch3 {
        std::vector<std::uint32_t> idx; ///< sort order for the sweep
        std::vector<double> buf;        ///< z-sorted gather of the rows
        std::vector<double> sx, sy;     ///< 2D staircase (x asc, y desc)
    };
    /// One recursion depth: flat rows with stride = the depth's
    /// dimensionality, plus the buffers its base cases need.
    struct Level {
        std::vector<double> pts;
        std::size_t count = 0;
        std::vector<std::uint32_t> idx; ///< slicing sort order
        std::vector<double> tmp;        ///< gather buffer (sorted rows)
        std::vector<double> act;        ///< 4D base: 3D-nondominated set
        Scratch3 s3;
    };

    double exact(const Front& front, const std::vector<double>& ref);
    double hv_recursive(std::size_t depth, std::size_t m);
    double hv4(Level& lv);
    double hv3(Level& lv);
    double hv2(Level& lv);
    static double hv3_core(const double* pts, std::size_t n,
                           const double* ref, Scratch3& scratch,
                           bool z_sorted);
    /// In-place dominated/duplicate removal over a level's flat rows.
    static void filter_nondominated(Level& lv, std::size_t m);
    Level& level(std::size_t depth);

    HvConfig config_;
    std::vector<double> ref_; ///< column-permuted reference point
    std::vector<Level> levels_;
};

/// Exact hypervolume of \p front with respect to \p reference_point, via a
/// thread-local HypervolumeEngine pinned to the wfg policy. Points not
/// strictly better than the reference point in every objective contribute
/// nothing and are ignored. Empty fronts yield 0.
double hypervolume(const Front& front,
                   const std::vector<double>& reference_point);

/// The original recursive WFG implementation (allocating limit sets per
/// call). Kept verbatim as the reference the engine is validated against;
/// use hypervolume() for anything hot.
double hypervolume_naive(const Front& front,
                         const std::vector<double>& reference_point);

/// Monte Carlo estimate with \p samples draws (deterministic given seed).
/// Throws std::invalid_argument when \p samples is zero.
double hypervolume_monte_carlo(const Front& front,
                               const std::vector<double>& reference_point,
                               std::uint64_t samples = 100000,
                               std::uint64_t seed = 0x5eed);

/// The reference point used for normalized hypervolume: per objective, the
/// reference set's maximum plus \p margin times the objective's range
/// (falling back to +margin when the range is degenerate). The paper-style
/// choice for the DTLZ2 sphere (range [0,1]) with margin 0.1 is (1.1,...).
/// Throws std::invalid_argument on empty or ragged (mixed-arity) sets.
std::vector<double> reference_point_for(const Front& reference_set,
                                        double margin = 0.1);

/// Normalized hypervolume: hv(front) / hv(reference_set), both against
/// reference_point_for(reference_set, margin). Clamped to [0, 1]; an ideal
/// approximation scores 1.
double normalized_hypervolume(const Front& front, const Front& reference_set,
                              double margin = 0.1);

/// Helper reused across metrics: strips dominated and duplicate points.
/// Takes the front by value and moves kept points into the result, so
/// callers passing rvalues pay no per-point copies.
Front nondominated_subset(Front front);

/// Precomputes the reference point and reference-set hypervolume once so
/// repeated normalized evaluations (the trajectory recorder queries every
/// checkpoint) only pay for the approximation set. The configured policy
/// applies to both the reference set and every queried front.
class HypervolumeNormalizer {
public:
    explicit HypervolumeNormalizer(Front reference_set, double margin = 0.1,
                                   HvConfig config = {});

    /// hv(front) / hv(reference_set), clamped to [0, 1]. Const and safe to
    /// call concurrently (the engine state involved is thread-local).
    double normalized(const Front& front) const;

    const std::vector<double>& reference_point() const noexcept {
        return reference_point_;
    }
    double reference_hypervolume() const noexcept { return reference_hv_; }
    const HvConfig& config() const noexcept { return config_; }

private:
    HvConfig config_;
    std::vector<double> reference_point_;
    double reference_hv_;
};

/// Thread-safe memo of HypervolumeNormalizers keyed by problem name.
///
/// Building a normalizer computes the exact WFG hypervolume of the whole
/// reference set — by far the most expensive part of normalized-HV
/// evaluation, and identical for every replicate of a sweep. The cache
/// builds it once per key and hands every sweep cell the same immutable
/// instance (normalized() is const and lock-free, so concurrent cells
/// share it safely). Callers selecting a non-default HvConfig must fold it
/// into the key (normalizer_cache_key) so policies do not collide.
class NormalizerCache {
public:
    /// Returns the normalizer for \p key, invoking \p reference_set to
    /// build it on first use. The builder runs under the cache lock so
    /// concurrent first requests for one key build exactly once.
    std::shared_ptr<const HypervolumeNormalizer>
    get(const std::string& key,
        const std::function<Front()>& reference_set, double margin = 0.1,
        HvConfig config = {});

    std::size_t size() const;

    /// Process-wide memo shared by the experiment drivers.
    static NormalizerCache& global();

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const HypervolumeNormalizer>>
        cache_;
};

} // namespace borg::metrics

#endif
