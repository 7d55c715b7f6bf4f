#ifndef BORG_PARALLEL_REORDER_RING_HPP
#define BORG_PARALLEL_REORDER_RING_HPP

/// \file reorder_ring.hpp
/// The window protocol's reorder buffer, shared by the real-time masters
/// (ThreadMasterSlaveExecutor and TcpRunManager).
///
/// Under IngestOrder::dispatch a completed result is parked until every
/// lower task sequence number has been ingested. The protocol seeds W
/// tasks and each ingest funds at most one more, so issued <= next + W:
/// every parked seq lies in [next, next + W). A flat ring of W slots
/// indexed seq % W therefore holds them all — parking and draining are an
/// index bump, allocate nothing, and never rebalance.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace borg::parallel {

template <typename T>
class ReorderRing {
public:
    /// Sizes the ring for window \p window (>= 1) and restarts at seq 0.
    void reset(std::size_t window) {
        slots_.assign(window, Slot{});
        next_ = 0;
    }

    /// Parks \p value as the result of task \p seq.
    void park(std::uint64_t seq, const T& value) {
        assert(seq >= next_ && seq - next_ < slots_.size());
        Slot& slot = slots_[seq % slots_.size()];
        slot.value = value;
        slot.present = true;
    }

    struct Turn {
        std::uint64_t seq;
        T value;
    };

    /// Takes the result whose sequence turn it is, if it has arrived.
    std::optional<Turn> pop_ready() {
        Slot& slot = slots_[next_ % slots_.size()];
        if (!slot.present) return std::nullopt;
        slot.present = false;
        return Turn{next_++, slot.value};
    }

private:
    struct Slot {
        T value{};
        bool present = false;
    };
    std::vector<Slot> slots_;
    std::uint64_t next_ = 0;
};

} // namespace borg::parallel

#endif
