#ifndef BORG_DES_FRAME_POOL_HPP
#define BORG_DES_FRAME_POOL_HPP

/// \file frame_pool.hpp
/// Size-class pooling for des::Process coroutine frames (DESIGN.md §13).
///
/// Spawning 10^5+ worker processes used to issue one global-allocator
/// round trip per frame — the dominant setup cost of a large Figure-5
/// cell, and a steady drip at runtime once frames started being reclaimed
/// eagerly at completion. Process::promise_type routes its operator
/// new/delete here instead: frames are rounded up to 64-byte size classes
/// and recycled through per-class freelists, so in steady state a
/// finishing worker's frame is handed straight to the next spawn without
/// touching malloc.
///
/// The pool is thread-local (a des::Environment is single-threaded by
/// construction, and each sweep thread runs its replicates one after
/// another, so per-thread pools need no locks). Blocks are plain ::operator new
/// allocations, which keeps the rare cross-thread free — an Environment
/// destroyed on a different thread than it spawned on — safe: the block
/// simply retires into the destroying thread's pool. Every retained block
/// is released when the thread exits.
///
/// Under AddressSanitizer the pool degrades to a pass-through so frame
/// lifetime bugs (double destroy, use-after-destroy) stay visible to the
/// sanitizer tier instead of being masked by recycling.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define BORG_DES_FRAME_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BORG_DES_FRAME_POOL_PASSTHROUGH 1
#endif
#endif
#ifndef BORG_DES_FRAME_POOL_PASSTHROUGH
#define BORG_DES_FRAME_POOL_PASSTHROUGH 0
#endif

namespace borg::des {

/// Allocation counters for the calling thread's pool (test/diagnostic
/// hook; see frame_pool_stats()).
struct FramePoolStats {
    std::uint64_t reused = 0;   ///< frames served from a freelist
    std::uint64_t fresh = 0;    ///< frames that hit ::operator new
    std::uint64_t retained = 0; ///< blocks currently parked in freelists
};

namespace detail {

class FramePool {
public:
    static constexpr std::size_t kGranularity = 64;
    static constexpr std::size_t kClasses = 64; ///< pools up to 4 KiB frames

    FramePool() = default;
    FramePool(const FramePool&) = delete;
    FramePool& operator=(const FramePool&) = delete;

    ~FramePool() {
        for (auto& list : free_)
            for (void* block : list) ::operator delete(block);
    }

    void* allocate(std::size_t bytes) {
        const std::size_t cls = size_class(bytes);
        if (cls < kClasses && !free_[cls].empty()) {
            void* block = free_[cls].back();
            free_[cls].pop_back();
            ++stats_.reused;
            --stats_.retained;
            return block;
        }
        ++stats_.fresh;
        return ::operator new(cls < kClasses ? cls * kGranularity : bytes);
    }

    void deallocate(void* block, std::size_t bytes) noexcept {
        const std::size_t cls = size_class(bytes);
        if (cls < kClasses) {
            try {
                free_[cls].push_back(block);
                ++stats_.retained;
                return;
            } catch (...) {
                // Freelist growth failed; fall through to a plain free.
            }
        }
        ::operator delete(block);
    }

    const FramePoolStats& stats() const noexcept { return stats_; }

    static FramePool& local() {
        thread_local FramePool pool;
        return pool;
    }

private:
    static std::size_t size_class(std::size_t bytes) noexcept {
        return (bytes + kGranularity - 1) / kGranularity;
    }

    std::vector<void*> free_[kClasses];
    FramePoolStats stats_;
};

inline void* frame_allocate(std::size_t bytes) {
#if BORG_DES_FRAME_POOL_PASSTHROUGH
    return ::operator new(bytes);
#else
    return FramePool::local().allocate(bytes);
#endif
}

inline void frame_deallocate(void* block, std::size_t bytes) noexcept {
#if BORG_DES_FRAME_POOL_PASSTHROUGH
    (void)bytes;
    ::operator delete(block);
#else
    FramePool::local().deallocate(block, bytes);
#endif
}

} // namespace detail

/// Counters of the calling thread's frame pool. Under sanitizer builds the
/// pool is bypassed and the counters stay zero.
inline FramePoolStats frame_pool_stats() noexcept {
#if BORG_DES_FRAME_POOL_PASSTHROUGH
    return {};
#else
    return detail::FramePool::local().stats();
#endif
}

} // namespace borg::des

#endif
