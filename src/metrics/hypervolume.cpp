#include "metrics/hypervolume.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "moea/dominance.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace borg::metrics {

namespace {

/// Keeps only points strictly better than the reference point everywhere
/// (other points bound an empty box and contribute no volume).
Front clip_to_reference(const Front& front,
                        const std::vector<double>& ref) {
    Front out;
    out.reserve(front.size());
    for (const auto& p : front) {
        if (p.size() != ref.size())
            throw std::invalid_argument("hypervolume: dimension mismatch");
        bool inside = true;
        for (std::size_t j = 0; j < ref.size(); ++j) {
            if (!(p[j] < ref[j])) {
                inside = false;
                break;
            }
        }
        if (inside) out.push_back(p);
    }
    return out;
}

/// Exact 2-objective hypervolume by sweeping points sorted on f1.
double hv_2d(Front points, const std::vector<double>& ref) {
    std::sort(points.begin(), points.end());
    double volume = 0.0;
    double best_f2 = ref[1];
    for (const auto& p : points) {
        if (p[1] < best_f2) {
            volume += (ref[0] - p[0]) * (best_f2 - p[1]);
            best_f2 = p[1];
        }
    }
    return volume;
}

/// Inclusive hypervolume of a single point.
double inclhv(const std::vector<double>& p, const std::vector<double>& ref) {
    double volume = 1.0;
    for (std::size_t j = 0; j < ref.size(); ++j) volume *= ref[j] - p[j];
    return volume;
}

double wfg(Front points, const std::vector<double>& ref);

/// Exclusive hypervolume of points[i] relative to the points after it.
double exclhv(const Front& points, std::size_t i,
              const std::vector<double>& ref) {
    const std::vector<double>& p = points[i];
    double volume = inclhv(p, ref);
    if (i + 1 == points.size()) return volume;

    // Limit set: each later point is replaced by its componentwise max
    // with p (the part of its box that overlaps p's box).
    Front limited;
    limited.reserve(points.size() - i - 1);
    for (std::size_t k = i + 1; k < points.size(); ++k) {
        std::vector<double> q(p.size());
        for (std::size_t j = 0; j < p.size(); ++j)
            q[j] = std::max(p[j], points[k][j]);
        limited.push_back(std::move(q));
    }
    return volume - wfg(nondominated_subset(std::move(limited)), ref);
}

double wfg(Front points, const std::vector<double>& ref) {
    if (points.empty()) return 0.0;
    if (ref.size() == 2) return hv_2d(std::move(points), ref);

    // WFG heuristic: process points in worsening order of the last
    // objective so limit sets shrink quickly.
    std::sort(points.begin(), points.end(),
              [](const std::vector<double>& a, const std::vector<double>& b) {
                  return a.back() > b.back();
              });
    double volume = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i)
        volume += exclhv(points, i, ref);
    return volume;
}

/// Policy-bearing engine shared per thread by the free functions and the
/// normalizer (engine scratch is not thread-safe; one instance per thread
/// keeps normalized() const-callable from concurrent sweep cells).
double engine_compute(const Front& front, const std::vector<double>& ref,
                      const HvConfig& config) {
    thread_local HypervolumeEngine engine;
    engine.set_config(config);
    return engine.compute(front, ref);
}

} // namespace

Front nondominated_subset(Front front) {
    Front out;
    out.reserve(front.size());
    for (auto& candidate : front) {
        bool keep = true;
        for (std::size_t k = 0; k < out.size();) {
            switch (moea::compare_pareto(out[k], candidate)) {
            case moea::Dominance::kDominates:
            case moea::Dominance::kEqual:
                keep = false;
                break;
            case moea::Dominance::kDominatedBy:
                out[k] = std::move(out.back());
                out.pop_back();
                continue; // re-examine the swapped-in element
            case moea::Dominance::kNondominated:
                break;
            }
            if (!keep) break;
            ++k;
        }
        if (keep) out.push_back(std::move(candidate));
    }
    return out;
}

HvAlgo parse_hv_algo(const std::string& name) {
    if (name == "auto") return HvAlgo::kAuto;
    if (name == "wfg") return HvAlgo::kWfg;
    if (name == "mc") return HvAlgo::kMonteCarlo;
    throw std::invalid_argument("--hv-algo: unknown algorithm '" + name +
                                "' (expected auto|wfg|mc)");
}

const char* to_string(HvAlgo algo) noexcept {
    switch (algo) {
    case HvAlgo::kAuto: return "auto";
    case HvAlgo::kWfg: return "wfg";
    case HvAlgo::kMonteCarlo: return "mc";
    }
    return "auto";
}

HvConfig hv_config_from_cli(const util::CliArgs& args) {
    HvConfig config;
    config.algo = parse_hv_algo(args.get("hv-algo", to_string(config.algo)));
    const std::int64_t samples = args.get_uint(
        "hv-mc-samples", static_cast<std::int64_t>(config.mc_samples));
    if (samples == 0)
        throw std::invalid_argument("--hv-mc-samples must be >= 1");
    config.mc_samples = static_cast<std::uint64_t>(samples);
    return config;
}

std::string normalizer_cache_key(const std::string& base,
                                 const HvConfig& config) {
    return base + "|" + to_string(config.algo) + "|" +
           std::to_string(config.mc_samples);
}

// ---------------------------------------------------------------------------
// HypervolumeEngine
// ---------------------------------------------------------------------------

namespace {

/// Row-level Pareto comparison over flat storage. Writes "a dominates or
/// equals b" into ab and the converse into ba (both true means equal).
inline void compare_rows(const double* a, const double* b, std::size_t m,
                         bool& ab, bool& ba) {
    ab = true;
    ba = true;
    for (std::size_t j = 0; j < m; ++j) {
        if (a[j] > b[j]) ab = false;
        if (b[j] > a[j]) ba = false;
        if (!ab && !ba) return;
    }
}

} // namespace

HypervolumeEngine::HypervolumeEngine(HvConfig config) : config_(config) {}

HypervolumeEngine::Level& HypervolumeEngine::level(std::size_t depth) {
    if (levels_.size() <= depth) levels_.resize(depth + 1);
    return levels_[depth];
}

double HypervolumeEngine::compute(const Front& front,
                                  const std::vector<double>& ref) {
    if (ref.empty())
        throw std::invalid_argument("hypervolume: empty reference point");
    HvAlgo algo = config_.algo;
    if (algo == HvAlgo::kAuto) {
        // Exact while the estimated slicing cost n^(1 + (m-2)/2) fits the
        // budget; low dimensions are always cheap enough for exact.
        const auto n = static_cast<double>(front.size());
        const auto m = static_cast<double>(ref.size());
        const double estimate = std::pow(n, 1.0 + 0.5 * (m - 2.0));
        algo = (ref.size() <= 4 || estimate <= config_.exact_budget)
                   ? HvAlgo::kWfg
                   : HvAlgo::kMonteCarlo;
    }
    switch (algo) {
    case HvAlgo::kMonteCarlo:
        return hypervolume_monte_carlo(front, ref, config_.mc_samples,
                                       config_.mc_seed);
    default: return exact(front, ref);
    }
}

double HypervolumeEngine::exact(const Front& front,
                                const std::vector<double>& ref) {
    const std::size_t m = ref.size();
    // Pre-size the per-depth arena so nothing below ever reallocates
    // levels_ (Level references stay valid across recursive calls).
    // Slicing reduces the dimension by one per depth and bottoms out at
    // 4, so depth never exceeds m.
    level(m);
    Level& lv = levels_[0];
    if (lv.pts.size() < front.size() * m) lv.pts.resize(front.size() * m);

    // Clip: only points strictly inside the reference box contribute.
    lv.count = 0;
    for (const auto& p : front) {
        if (p.size() != m)
            throw std::invalid_argument("hypervolume: dimension mismatch");
        bool inside = true;
        for (std::size_t j = 0; j < m; ++j) {
            if (!(p[j] < ref[j])) {
                inside = false;
                break;
            }
        }
        if (!inside) continue;
        double* row = lv.pts.data() + lv.count * m;
        for (std::size_t j = 0; j < m; ++j) row[j] = p[j];
        ++lv.count;
    }
    if (lv.count == 0) return 0.0;
    if (m == 1) {
        double best = ref[0];
        for (std::size_t i = 0; i < lv.count; ++i)
            best = std::min(best, lv.pts[i]);
        return ref[0] - best;
    }

    filter_nondominated(lv, m);
    ref_.assign(ref.begin(), ref.end());

    // Objective reordering heuristic: slicing peels the last objective, so
    // put the highest-variance objective last — its slabs discriminate the
    // most, keeping limit sets small. Volume is invariant under any
    // column permutation applied to points and reference alike; the
    // stable sort keeps the permutation deterministic.
    if (m >= 3 && lv.count > 2) {
        std::vector<std::size_t> perm(m);
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::vector<double> variance(m, 0.0);
        for (std::size_t j = 0; j < m; ++j) {
            double sum = 0.0, sumsq = 0.0;
            for (std::size_t i = 0; i < lv.count; ++i) {
                const double v = lv.pts[i * m + j];
                sum += v;
                sumsq += v * v;
            }
            const double n = static_cast<double>(lv.count);
            variance[j] = sumsq / n - (sum / n) * (sum / n);
        }
        std::stable_sort(perm.begin(), perm.end(),
                         [&](std::size_t a, std::size_t b) {
                             return variance[a] < variance[b];
                         });
        bool identity = true;
        for (std::size_t j = 0; j < m; ++j) identity &= perm[j] == j;
        if (!identity) {
            std::vector<double> row(m);
            for (std::size_t i = 0; i < lv.count; ++i) {
                double* r = lv.pts.data() + i * m;
                for (std::size_t j = 0; j < m; ++j) row[j] = r[perm[j]];
                for (std::size_t j = 0; j < m; ++j) r[j] = row[j];
            }
            for (std::size_t j = 0; j < m; ++j) row[j] = ref[perm[j]];
            ref_ = row;
        }
    }
    return hv_recursive(0, m);
}

void HypervolumeEngine::filter_nondominated(Level& lv, std::size_t m) {
    double* pts = lv.pts.data();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lv.count; ++i) {
        const double* cand = pts + i * m;
        bool keep = true;
        for (std::size_t k = 0; k < kept;) {
            double* q = pts + k * m;
            bool q_le = false, c_le = false;
            compare_rows(q, cand, m, q_le, c_le);
            if (q_le) { // kept row dominates (or equals) the candidate
                keep = false;
                break;
            }
            if (c_le) { // candidate dominates the kept row: drop it
                const double* last = pts + (kept - 1) * m;
                for (std::size_t j = 0; j < m; ++j) q[j] = last[j];
                --kept;
                continue; // re-examine the swapped-in row
            }
            ++k;
        }
        if (!keep) continue;
        if (i != kept) {
            double* dst = pts + kept * m;
            for (std::size_t j = 0; j < m; ++j) dst[j] = cand[j];
        }
        ++kept;
    }
    lv.count = kept;
}

double HypervolumeEngine::hv_recursive(std::size_t depth, std::size_t m) {
    Level& lv = levels_[depth];
    if (lv.count == 0) return 0.0;
    if (lv.count == 1) {
        double volume = 1.0;
        for (std::size_t j = 0; j < m; ++j) volume *= ref_[j] - lv.pts[j];
        return volume;
    }
    if (m == 2) return hv2(lv);
    if (m == 3) return hv3(lv);
    if (m == 4) return hv4(lv);

    // WFG slicing: with points sorted by worsening last objective, each
    // point contributes (ref - its last objective) times the (m-1)-volume
    // it covers exclusively of every point with a better last objective
    // (inclusive volume minus the volume of the nondominated limit set).
    {
        const double* pts = lv.pts.data();
        lv.idx.resize(lv.count);
        std::iota(lv.idx.begin(), lv.idx.end(), std::uint32_t{0});
        std::sort(lv.idx.begin(), lv.idx.end(),
                  [pts, m](std::uint32_t a, std::uint32_t b) {
                      const double za = pts[a * m + (m - 1)];
                      const double zb = pts[b * m + (m - 1)];
                      if (za != zb) return za > zb;
                      return a < b;
                  });
        // Gather the rows into sorted order so the inner loops below walk
        // memory sequentially instead of chasing the index array.
        if (lv.tmp.size() < lv.count * m) lv.tmp.resize(lv.count * m);
        for (std::size_t pos = 0; pos < lv.count; ++pos) {
            const double* src = pts + lv.idx[pos] * m;
            double* dst = lv.tmp.data() + pos * m;
            for (std::size_t j = 0; j < m; ++j) dst[j] = src[j];
        }
        lv.pts.swap(lv.tmp);
    }

    Level& next = levels_[depth + 1]; // pre-sized by exact(); never moves
    const std::size_t mr = m - 1;
    double volume = 0.0;
    for (std::size_t pos = 0; pos < lv.count; ++pos) {
        const double* p = lv.pts.data() + pos * m;
        double incl = 1.0;
        for (std::size_t j = 0; j < mr; ++j) incl *= ref_[j] - p[j];

        const std::size_t later = lv.count - pos - 1;
        if (next.pts.size() < later * mr) next.pts.resize(later * mr);
        next.count = 0;
        for (std::size_t pos2 = pos + 1; pos2 < lv.count; ++pos2) {
            const double* q = lv.pts.data() + pos2 * m;
            double* row = next.pts.data() + next.count * mr;
            for (std::size_t j = 0; j < mr; ++j)
                row[j] = std::max(p[j], q[j]);
            ++next.count;
        }
        filter_nondominated(next, mr);
        const double excl =
            incl - (next.count != 0 ? hv_recursive(depth + 1, mr) : 0.0);
        volume += (ref_[m - 1] - p[m - 1]) * excl;
    }
    return volume;
}

double HypervolumeEngine::hv2(Level& lv) {
    const double* pts = lv.pts.data();
    lv.idx.resize(lv.count);
    std::iota(lv.idx.begin(), lv.idx.end(), std::uint32_t{0});
    std::sort(lv.idx.begin(), lv.idx.end(),
              [pts](std::uint32_t a, std::uint32_t b) {
                  if (pts[a * 2] != pts[b * 2]) return pts[a * 2] < pts[b * 2];
                  return pts[a * 2 + 1] < pts[b * 2 + 1];
              });
    double volume = 0.0;
    double best_f2 = ref_[1];
    for (const std::uint32_t i : lv.idx) {
        const double* p = pts + i * 2;
        if (p[1] < best_f2) {
            volume += (ref_[0] - p[0]) * (best_f2 - p[1]);
            best_f2 = p[1];
        }
    }
    return volume;
}

double HypervolumeEngine::hv3_core(const double* pts, std::size_t n,
                                   const double* ref, Scratch3& s,
                                   bool z_sorted) {
    if (n == 0) return 0.0;
    if (!z_sorted) {
        s.idx.resize(n);
        std::iota(s.idx.begin(), s.idx.end(), std::uint32_t{0});
        std::sort(s.idx.begin(), s.idx.end(),
                  [pts](std::uint32_t a, std::uint32_t b) {
                      const double za = pts[a * 3 + 2], zb = pts[b * 3 + 2];
                      if (za != zb) return za < zb;
                      return a < b;
                  });
        if (s.buf.size() < n * 3) s.buf.resize(n * 3);
        for (std::size_t pos = 0; pos < n; ++pos) {
            const double* src = pts + s.idx[pos] * 3;
            double* dst = s.buf.data() + pos * 3;
            dst[0] = src[0];
            dst[1] = src[1];
            dst[2] = src[2];
        }
        pts = s.buf.data();
    }
    // Sweep z upward, maintaining the 2D staircase (x strictly ascending,
    // y strictly descending) of the points inserted so far; between
    // consecutive z values the covered (x, y) area is constant.
    s.sx.clear();
    s.sy.clear();
    double area = 0.0;
    double volume = 0.0;
    double prev_z = pts[2];
    for (std::size_t pos = 0; pos < n; ++pos) {
        const double* p = pts + pos * 3;
        const double x = p[0], y = p[1], z = p[2];
        volume += area * (z - prev_z);
        prev_z = z;

        const std::size_t size = s.sx.size();
        const std::size_t lo = static_cast<std::size_t>(
            std::lower_bound(s.sx.begin(), s.sx.end(), x) - s.sx.begin());
        if (lo > 0 && s.sy[lo - 1] <= y) continue; // 2D-dominated: no gain
        if (lo < size && s.sx[lo] == x && s.sy[lo] <= y) continue;

        // Newly covered area: strip decomposition over the staircase
        // points right of x that the new point dominates.
        double gain =
            ((lo < size ? s.sx[lo] : ref[0]) - x) *
            ((lo > 0 ? s.sy[lo - 1] : ref[1]) - y);
        std::size_t j = lo;
        while (j < size && s.sy[j] >= y) {
            const double next_x = (j + 1 < size) ? s.sx[j + 1] : ref[0];
            gain += (next_x - s.sx[j]) * (s.sy[j] - y);
            ++j;
        }
        area += gain;
        s.sx.erase(s.sx.begin() + static_cast<std::ptrdiff_t>(lo),
                   s.sx.begin() + static_cast<std::ptrdiff_t>(j));
        s.sy.erase(s.sy.begin() + static_cast<std::ptrdiff_t>(lo),
                   s.sy.begin() + static_cast<std::ptrdiff_t>(j));
        s.sx.insert(s.sx.begin() + static_cast<std::ptrdiff_t>(lo), x);
        s.sy.insert(s.sy.begin() + static_cast<std::ptrdiff_t>(lo), y);
    }
    volume += area * (ref[2] - prev_z);
    return volume;
}

double HypervolumeEngine::hv3(Level& lv) {
    return hv3_core(lv.pts.data(), lv.count, ref_.data(), lv.s3,
                    /*z_sorted=*/false);
}

double HypervolumeEngine::hv4(Level& lv) {
    const double* pts = lv.pts.data();
    lv.idx.resize(lv.count);
    std::iota(lv.idx.begin(), lv.idx.end(), std::uint32_t{0});
    std::sort(lv.idx.begin(), lv.idx.end(),
              [pts](std::uint32_t a, std::uint32_t b) {
                  const double wa = pts[a * 4 + 3], wb = pts[b * 4 + 3];
                  if (wa != wb) return wa < wb;
                  return a < b;
              });
    // Slice on the fourth objective: sweep it upward, maintaining the
    // 3D-nondominated subset of the points seen so far and its 3D volume;
    // between consecutive values the covered 3D region is constant. The
    // active set is kept sorted by its third coordinate so the 3D sweep
    // after every insertion needs no sort of its own — the dominant cost
    // of this base case.
    if (lv.act.size() < lv.count * 3) lv.act.resize(lv.count * 3);
    double* act = lv.act.data();
    std::size_t active = 0;
    double volume = 0.0;
    double volume3 = 0.0;
    double prev_w = pts[lv.idx[0] * 4 + 3];
    for (const std::uint32_t i : lv.idx) {
        const double* p = pts + i * 4;
        volume += volume3 * (p[3] - prev_w);
        prev_w = p[3];

        bool dominated = false;
        for (std::size_t k = 0; k < active; ++k) {
            const double* q = act + k * 3;
            if (q[0] <= p[0] && q[1] <= p[1] && q[2] <= p[2]) {
                dominated = true;
                break;
            }
        }
        if (dominated) continue; // 3D projection unchanged
        // Drop rows the new point dominates, preserving z order.
        std::size_t write = 0;
        for (std::size_t k = 0; k < active; ++k) {
            const double* q = act + k * 3;
            if (p[0] <= q[0] && p[1] <= q[1] && p[2] <= q[2]) continue;
            if (write != k) {
                double* dst = act + write * 3;
                dst[0] = q[0];
                dst[1] = q[1];
                dst[2] = q[2];
            }
            ++write;
        }
        active = write;
        // Insert at the z-sorted position (after equal z values).
        std::size_t pos = active;
        while (pos > 0 && act[(pos - 1) * 3 + 2] > p[2]) --pos;
        for (std::size_t k = active; k > pos; --k) {
            double* dst = act + k * 3;
            const double* src = act + (k - 1) * 3;
            dst[0] = src[0];
            dst[1] = src[1];
            dst[2] = src[2];
        }
        double* row = act + pos * 3;
        row[0] = p[0];
        row[1] = p[1];
        row[2] = p[2];
        ++active;
        volume3 =
            hv3_core(act, active, ref_.data(), lv.s3, /*z_sorted=*/true);
    }
    volume += volume3 * (ref_[3] - prev_w);
    return volume;
}

// ---------------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------------

double hypervolume(const Front& front,
                   const std::vector<double>& reference_point) {
    HvConfig exact;
    exact.algo = HvAlgo::kWfg;
    return engine_compute(front, reference_point, exact);
}

double hypervolume_naive(const Front& front,
                         const std::vector<double>& reference_point) {
    if (reference_point.empty())
        throw std::invalid_argument("hypervolume: empty reference point");
    Front usable = clip_to_reference(front, reference_point);
    if (usable.empty()) return 0.0;
    usable = nondominated_subset(std::move(usable));
    if (reference_point.size() == 1) {
        double best = reference_point[0];
        for (const auto& p : usable) best = std::min(best, p[0]);
        return reference_point[0] - best;
    }
    return wfg(std::move(usable), reference_point);
}

double hypervolume_monte_carlo(const Front& front,
                               const std::vector<double>& reference_point,
                               std::uint64_t samples, std::uint64_t seed) {
    if (samples == 0)
        throw std::invalid_argument(
            "hypervolume_monte_carlo: samples must be >= 1");
    Front usable = clip_to_reference(front, reference_point);
    if (usable.empty()) return 0.0;
    usable = nondominated_subset(std::move(usable));
    const std::size_t m = reference_point.size();

    // Bounding box: [ideal, reference_point].
    std::vector<double> ideal(reference_point);
    for (const auto& p : usable)
        for (std::size_t j = 0; j < m; ++j) ideal[j] = std::min(ideal[j], p[j]);
    double box = 1.0;
    for (std::size_t j = 0; j < m; ++j) box *= reference_point[j] - ideal[j];
    if (box <= 0.0) return 0.0;

    util::Rng rng(seed);
    std::uint64_t hits = 0;
    std::vector<double> x(m);
    for (std::uint64_t s = 0; s < samples; ++s) {
        for (std::size_t j = 0; j < m; ++j)
            x[j] = rng.uniform(ideal[j], reference_point[j]);
        for (const auto& p : usable) {
            bool dominated = true;
            for (std::size_t j = 0; j < m; ++j) {
                if (p[j] > x[j]) {
                    dominated = false;
                    break;
                }
            }
            if (dominated) {
                ++hits;
                break;
            }
        }
    }
    return box * static_cast<double>(hits) / static_cast<double>(samples);
}

std::vector<double> reference_point_for(const Front& reference_set,
                                        double margin) {
    if (reference_set.empty())
        throw std::invalid_argument("reference_point_for: empty set");
    const std::size_t m = reference_set[0].size();
    std::vector<double> lo(reference_set[0]), hi(reference_set[0]);
    for (const auto& p : reference_set) {
        if (p.size() != m)
            throw std::invalid_argument(
                "reference_point_for: ragged reference set "
                "(mixed objective arity)");
        for (std::size_t j = 0; j < m; ++j) {
            lo[j] = std::min(lo[j], p[j]);
            hi[j] = std::max(hi[j], p[j]);
        }
    }
    std::vector<double> ref(m);
    for (std::size_t j = 0; j < m; ++j) {
        const double range = hi[j] - lo[j];
        ref[j] = hi[j] + (range > 0.0 ? margin * range : margin);
    }
    return ref;
}

double normalized_hypervolume(const Front& front, const Front& reference_set,
                              double margin) {
    return HypervolumeNormalizer(reference_set, margin).normalized(front);
}

HypervolumeNormalizer::HypervolumeNormalizer(Front reference_set,
                                             double margin, HvConfig config)
    : config_(config),
      reference_point_(reference_point_for(reference_set, margin)),
      reference_hv_(
          engine_compute(reference_set, reference_point_, config_)) {
    if (reference_hv_ <= 0.0)
        throw std::invalid_argument(
            "normalizer: reference set has zero hypervolume");
}

double HypervolumeNormalizer::normalized(const Front& front) const {
    const double hv = engine_compute(front, reference_point_, config_);
    return std::clamp(hv / reference_hv_, 0.0, 1.0);
}

std::shared_ptr<const HypervolumeNormalizer>
NormalizerCache::get(const std::string& key,
                     const std::function<Front()>& reference_set,
                     double margin, HvConfig config) {
    const std::lock_guard lock(mutex_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        it = cache_
                 .emplace(key, std::make_shared<const HypervolumeNormalizer>(
                                   reference_set(), margin, config))
                 .first;
    }
    return it->second;
}

std::size_t NormalizerCache::size() const {
    const std::lock_guard lock(mutex_);
    return cache_.size();
}

NormalizerCache& NormalizerCache::global() {
    static NormalizerCache cache;
    return cache;
}

} // namespace borg::metrics
