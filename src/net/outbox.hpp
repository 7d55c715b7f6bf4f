#ifndef BORG_NET_OUTBOX_HPP
#define BORG_NET_OUTBOX_HPP

/// \file outbox.hpp
/// Per-connection outbound byte queue for the TCP run manager
/// (DESIGN.md §16): a flat vector plus a sent offset, the same shape as
/// FrameReader on the receive side. Frames append at the back and one
/// send(2) drains the contiguous unsent tail, so a whole batch of queued
/// frames leaves in a single syscall.
///
/// A drained queue clears in place and keeps its capacity, so the steady
/// state never touches the allocator. Under backpressure the sent prefix
/// is compacted away only once it reaches half the vector: each
/// compaction moves at most as many bytes as were sent since the last
/// one, so a backlog costs amortized O(1) per byte, never a memmove of
/// the whole backlog per partial write.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace borg::net {

class Outbox {
public:
    bool empty() const noexcept { return sent_ == bytes_.size(); }
    /// Queued bytes not yet sent.
    std::size_t size() const noexcept { return bytes_.size() - sent_; }

    /// The unsent bytes, oldest first.
    std::span<const std::uint8_t> unsent() const noexcept {
        return {bytes_.data() + sent_, size()};
    }

    /// Callers enforce their own cap *before* appending (the run manager
    /// reaps a connection whose outbox would exceed
    /// TcpRunConfig::max_outbox_bytes).
    void append(std::span<const std::uint8_t> bytes) {
        bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    }

    /// Marks the first \p n (<= size()) unsent bytes as sent.
    void consume(std::size_t n) {
        sent_ += n;
        if (sent_ == bytes_.size()) {
            bytes_.clear();
            sent_ = 0;
        } else if (2 * sent_ >= bytes_.size()) {
            bytes_.erase(bytes_.begin(),
                         bytes_.begin() + static_cast<std::ptrdiff_t>(sent_));
            sent_ = 0;
        }
    }

private:
    std::vector<std::uint8_t> bytes_;
    std::size_t sent_ = 0;
};

} // namespace borg::net

#endif
