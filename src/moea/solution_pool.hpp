#ifndef BORG_MOEA_SOLUTION_POOL_HPP
#define BORG_MOEA_SOLUTION_POOL_HPP

/// \file solution_pool.hpp
/// Arena-backed solution storage.
///
/// The steady-state master loop used to pay three heap allocations per
/// offspring (variables / objectives / constraints vectors) plus more
/// inside the variation operators, and every layer (population, archive,
/// executors) copied those vectors again. `SolutionPool` replaces the
/// owning `Solution` value type on the hot path with a chunked
/// struct-of-arrays arena:
///
///  * payloads live in fixed 256-slot blocks, so slot addresses are
///    STABLE for the lifetime of the pool — growth never moves a live
///    solution, which lets worker threads evaluate into pool spans while
///    the master keeps allocating new slots;
///  * a slot is named by a `SolutionHandle{index, generation}`; releasing
///    a slot bumps its generation, so a stale handle held past `release()`
///    is detected (ABA) and faults loudly instead of silently reading the
///    recycled payload;
///  * freed slots are recycled LIFO through a free list, so after warm-up
///    the borg loop performs zero heap allocations per offspring
///    (pinned by tests/test_alloc_steady_state.cpp).
///
/// The value type `Solution` remains for cold paths (checkpoint I/O,
/// island migration, tests); `store()` / `materialize()` convert between
/// the two. `ConstSolutionView` is the read-only currency: it has the same
/// member names as `Solution` (`variables`, `objectives`, `constraints`,
/// `operator_index`, `evaluated`, `total_violation()`, `feasible()`) and is
/// implicitly constructible from `const Solution&`, so generic code — the
/// TYPED_TEST suites over `ArchiveEngine` and the test-only naive
/// oracle (tests/naive_archive.hpp) in particular — works with either
/// representation. See DESIGN.md §15 for
/// the layout and the handle-lifetime rules.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "moea/solution.hpp"
#include "problems/problem.hpp"

namespace borg::moea {

/// Names one pool slot. `index` is the dense slot number; `generation`
/// is bumped every time the slot is released, so handles that outlive
/// their slot are detected instead of aliasing the recycled payload.
struct SolutionHandle {
    std::uint32_t index = kNullIndex;
    std::uint32_t generation = 0;

    static constexpr std::uint32_t kNullIndex = 0xffffffffu;

    bool is_null() const noexcept { return index == kNullIndex; }
    friend bool operator==(SolutionHandle, SolutionHandle) = default;
};

/// Read-only view of one solution, independent of storage (pool slot or
/// value `Solution`). Mirrors `Solution`'s member names so templates can
/// use either interchangeably.
class ConstSolutionView {
public:
    std::span<const double> variables;
    std::span<const double> objectives;
    std::span<const double> constraints;
    int operator_index = kNoOperator;
    bool evaluated = false;

    ConstSolutionView() = default;
    ConstSolutionView(std::span<const double> vars,
                      std::span<const double> objs,
                      std::span<const double> cons, int op_index,
                      bool is_evaluated) noexcept
        : variables(vars), objectives(objs), constraints(cons),
          operator_index(op_index), evaluated(is_evaluated) {}
    // Intentionally implicit: lets `const Solution&` flow anywhere a view
    // is expected (value-API wrappers, tests).
    ConstSolutionView(const Solution& s) noexcept // NOLINT(google-explicit-constructor)
        : variables(s.variables), objectives(s.objectives),
          constraints(s.constraints), operator_index(s.operator_index),
          evaluated(s.evaluated) {}

    double total_violation() const noexcept {
        double total = 0.0;
        for (const double c : constraints)
            if (c > 0.0) total += c;
        return total;
    }
    bool feasible() const noexcept { return total_violation() == 0.0; }

    /// Copies the payload out into an owning value `Solution`.
    Solution materialize() const {
        Solution s;
        s.variables.assign(variables.begin(), variables.end());
        s.objectives.assign(objectives.begin(), objectives.end());
        s.constraints.assign(constraints.begin(), constraints.end());
        s.operator_index = operator_index;
        s.evaluated = evaluated;
        return s;
    }
};

/// Chunked struct-of-arrays arena for solutions of one fixed shape
/// (`num_variables` / `num_objectives` / `num_constraints`).
class SolutionPool {
public:
    /// Row-identity hook for per-solution bookkeeping layered on top of
    /// the pool (selection-frequency counters, the bias monitor —
    /// DESIGN.md §17). on_row_reset(index) fires whenever slot `index`
    /// stops holding the solution it held: acquire() hands it out fresh,
    /// or copy_payload() overwrites it with another solution's payload.
    /// The hook is bookkeeping-only — it must not touch the pool — and
    /// costs one branch per acquire when unset.
    class RowObserver {
    public:
        virtual ~RowObserver() = default;
        virtual void on_row_reset(std::uint32_t index) = 0;
    };

    /// Slots per block. Blocks are never reallocated, so payload spans
    /// stay valid across pool growth.
    static constexpr std::size_t kBlockSlots = 256;

    SolutionPool(std::size_t num_variables, std::size_t num_objectives,
                 std::size_t num_constraints);
    explicit SolutionPool(const problems::Problem& problem);

    // Handles index into per-pool block tables; moving the pool would not
    // invalidate them, but copying must not duplicate live-slot ownership.
    SolutionPool(const SolutionPool&) = delete;
    SolutionPool& operator=(const SolutionPool&) = delete;
    SolutionPool(SolutionPool&&) = default;
    SolutionPool& operator=(SolutionPool&&) = default;

    std::size_t num_variables() const noexcept { return num_variables_; }
    std::size_t num_objectives() const noexcept { return num_objectives_; }
    std::size_t num_constraints() const noexcept { return num_constraints_; }

    /// Live (acquired, not yet released) slot count.
    std::size_t live_count() const noexcept { return live_; }
    /// Total slots ever created (live + free-listed).
    std::size_t capacity() const noexcept {
        return blocks_.size() * kBlockSlots;
    }

    /// Ensures capacity for at least \p n total slots (allocates blocks
    /// eagerly so the steady-state loop never grows).
    void reserve(std::size_t n);

    /// Installs (or clears, with nullptr) the row-identity observer.
    void set_row_observer(RowObserver* observer) noexcept {
        row_observer_ = observer;
    }

    /// Takes a fresh slot (recycled from the free list when available).
    /// The payload is uninitialized numeric data; `operator_index` is
    /// reset to kNoOperator and `evaluated` to false.
    SolutionHandle acquire();

    /// Returns \p h's slot to the free list and bumps its generation so
    /// surviving copies of \p h become stale.
    void release(SolutionHandle h);

    /// True when \p h currently names a live slot.
    bool is_live(SolutionHandle h) const noexcept {
        if (h.index >= blocks_.size() * kBlockSlots) return false;
        const Block& b = *blocks_[h.index / kBlockSlots];
        const std::size_t s = h.index % kBlockSlots;
        return b.generation[s] == h.generation && b.live[s] != 0;
    }

    /// Copies a value `Solution` (or anything viewable) into a new slot.
    SolutionHandle store(ConstSolutionView v);
    /// Copies slot \p src into a new slot.
    SolutionHandle clone(SolutionHandle src) {
        return store(view(src));
    }
    /// Copies payload + flags from \p src into existing slot \p dst.
    void copy_payload(SolutionHandle dst, ConstSolutionView src);

    Solution materialize(SolutionHandle h) const { return view(h).materialize(); }

    ConstSolutionView view(SolutionHandle h) const {
        const Block& b = block(h);
        const std::size_t s = h.index % kBlockSlots;
        return {
            {b.variables.data() + s * num_variables_, num_variables_},
            {b.objectives.data() + s * num_objectives_, num_objectives_},
            {b.constraints.data() + s * num_constraints_, num_constraints_},
            b.operator_index[s],
            b.evaluated[s] != 0,
        };
    }

    std::span<const double> variables(SolutionHandle h) const {
        const Block& b = block(h);
        return {b.variables.data() + (h.index % kBlockSlots) * num_variables_,
                num_variables_};
    }
    std::span<double> variables_mut(SolutionHandle h) {
        Block& b = block(h);
        return {b.variables.data() + (h.index % kBlockSlots) * num_variables_,
                num_variables_};
    }
    std::span<const double> objectives(SolutionHandle h) const {
        const Block& b = block(h);
        return {b.objectives.data() + (h.index % kBlockSlots) * num_objectives_,
                num_objectives_};
    }
    std::span<double> objectives_mut(SolutionHandle h) {
        Block& b = block(h);
        return {b.objectives.data() + (h.index % kBlockSlots) * num_objectives_,
                num_objectives_};
    }
    std::span<const double> constraints(SolutionHandle h) const {
        const Block& b = block(h);
        return {b.constraints.data() +
                    (h.index % kBlockSlots) * num_constraints_,
                num_constraints_};
    }
    std::span<double> constraints_mut(SolutionHandle h) {
        Block& b = block(h);
        return {b.constraints.data() +
                    (h.index % kBlockSlots) * num_constraints_,
                num_constraints_};
    }

    int operator_index(SolutionHandle h) const {
        return block(h).operator_index[h.index % kBlockSlots];
    }
    void set_operator_index(SolutionHandle h, int op) {
        block(h).operator_index[h.index % kBlockSlots] = op;
    }
    bool evaluated(SolutionHandle h) const {
        return block(h).evaluated[h.index % kBlockSlots] != 0;
    }
    void set_evaluated(SolutionHandle h, bool value) {
        block(h).evaluated[h.index % kBlockSlots] = value ? 1 : 0;
    }

    double total_violation(SolutionHandle h) const {
        double total = 0.0;
        for (const double c : constraints(h))
            if (c > 0.0) total += c;
        return total;
    }
    bool feasible(SolutionHandle h) const {
        return total_violation(h) == 0.0;
    }

private:
    struct Block {
        std::vector<double> variables;
        std::vector<double> objectives;
        std::vector<double> constraints;
        std::vector<int> operator_index;
        std::vector<std::uint8_t> evaluated;
        std::vector<std::uint32_t> generation;
        std::vector<std::uint8_t> live;
    };

    Block& block(SolutionHandle h) {
        check(h);
        return *blocks_[h.index / kBlockSlots];
    }
    const Block& block(SolutionHandle h) const {
        check(h);
        return *blocks_[h.index / kBlockSlots];
    }

    void check(SolutionHandle h) const {
        if (h.index >= blocks_.size() * kBlockSlots)
            throw std::logic_error("SolutionPool: handle out of range");
        const Block& b = *blocks_[h.index / kBlockSlots];
        const std::size_t s = h.index % kBlockSlots;
        if (b.generation[s] != h.generation || b.live[s] == 0)
            throw std::logic_error(
                "SolutionPool: stale handle (slot was released)");
    }

    void add_block();

    std::size_t num_variables_;
    std::size_t num_objectives_;
    std::size_t num_constraints_;
    // unique_ptr per block keeps Block addresses stable as blocks_ grows,
    // so payload spans handed to worker threads survive pool growth.
    std::vector<std::unique_ptr<Block>> blocks_;
    std::vector<std::uint32_t> free_;
    RowObserver* row_observer_ = nullptr;
    std::size_t live_ = 0;
};

/// Evaluates slot \p h in place: objectives/constraints are written
/// directly into the pool's arrays (no per-evaluation allocation).
void evaluate(const problems::Problem& problem, SolutionPool& pool,
              SolutionHandle h);

/// Fills slot \p h with a uniform random point in the problem's box
/// (same RNG draw order as `random_solution`). Marks it unevaluated.
void random_solution_into(const problems::Problem& problem, util::Rng& rng,
                          SolutionPool& pool, SolutionHandle h);

} // namespace borg::moea

#endif
