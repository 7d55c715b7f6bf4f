#ifndef BORG_DES_EVENT_QUEUE_HPP
#define BORG_DES_EVENT_QUEUE_HPP

/// \file event_queue.hpp
/// The pending-event store behind des::Environment (DESIGN.md §13): a
/// calendar queue (Brown 1988) over a flat slot arena. O(1) amortized
/// push/pop: events hash into width-sized time buckets (chained through
/// the arena, no per-event allocation); a refill detaches a batch of
/// consecutive epochs into a scratch window drained through a cursor.
/// Epochs are disjoint time ranges detached in ascending order, so only
/// each epoch's few events need sorting — the window is ordered by
/// construction.
///
/// Pops come out in ascending (time, seq) order, seq being the scheduling
/// sequence number that makes same-time events FIFO, so the environment's
/// schedule is a pure function of its inputs. The pre-rebuild binary heap
/// that fixed this order is a test-only oracle (tests/heap_queue.hpp); a
/// lockstep test and bench/micro_des pin the two queues' pop sequences
/// together.
///
/// The queue never allocates in steady state: arena slots are
/// freelist-recycled, bucket chains are index-linked, and the drain scratch
/// reuses its capacity. Bucket count and width self-tune as the population
/// grows/shrinks (resize samples the live inter-event gaps), so the same
/// structure serves a P = 64 ticker set and a P = 10^6 saturation study.
///
/// The queue does not own the coroutine handles it holds; the
/// environment's live-process registry does.

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

namespace borg::des {

/// Calendar queue over a flat arena. See the file comment for the design;
/// the correctness invariants are:
///
///   I1. Bucket chains only ever hold events of epochs > cur_epoch_ while
///       the scratch is live, and >= cur_epoch_ otherwise (epoch =
///       floor(time / width)): with a live scratch, pushes at or before
///       the current epoch go into the overflow min-heap; without one
///       (fresh queue, or just after a resize), a push below cur_epoch_
///       pulls cur_epoch_ back down to it so the next refill starts no
///       later than the earliest chained event.
///   I2. The scratch is sorted ascending by (time, seq) and drained
///       through a cursor; the overflow heap also orders ascending.
///       Every overflow event has epoch <= cur_epoch_ and every chained
///       event epoch > cur_epoch_ (while the scratch is live), so
///       min(scratch[cursor], overflow.top()) is the globally earliest
///       pending event.
///
/// Together these make pop order exactly ascending (time, seq) — a binary
/// heap's order — without the per-pop log-depth sift: the overflow heap
/// is tiny (same-time wakeups such as resource handoffs), so its log cost
/// never sees the full population.
class CalendarQueue {
public:
    CalendarQueue() { bucket_.assign(nbuckets_, kNil); }

    void push(double time, std::uint64_t seq,
              std::coroutine_handle<> handle) {
        const std::uint64_t epoch = epoch_of(time);
        if (scratch_live_ && epoch <= cur_epoch_) {
            // The event lands at or before the epoch being drained: into
            // the overflow min-heap (an ordered insert into the scratch
            // would memmove O(drain window) per push — quadratic whenever
            // a mistuned width piles a whole generation into one epoch).
            overflow_.push_back({time, seq, handle});
            std::push_heap(overflow_.begin(), overflow_.end(), descending);
        } else {
            const std::uint32_t slot = alloc_slot();
            Slot& s = slot_[slot];
            s.time = time;
            s.seq = seq;
            s.handle = handle;
            const std::size_t b =
                static_cast<std::size_t>(epoch & bucket_mask_);
            s.next = bucket_[b];
            bucket_[b] = slot;
            // Only reachable with scratch_live_ == false (a live scratch
            // absorbs every epoch <= cur_epoch_ above). After a resize,
            // cur_epoch_ rests on the min *pending* epoch, but new events
            // may still land between now() and that minimum — the next
            // refill must start no later than them, or later epochs would
            // drain first (I1).
            if (epoch < cur_epoch_) cur_epoch_ = epoch;
        }
        ++size_;
        if (size_ > 2 * nbuckets_ && nbuckets_ < kMaxBuckets) resize();
    }

    /// What Environment's dispatch loop needs from a pop, and nothing
    /// more: 16 bytes, so the SysV ABI returns it in XMM0/RAX. A null
    /// handle means nothing was due.
    struct Popped {
        double time;
        std::coroutine_handle<> handle;
    };

    /// Pops the earliest pending event if its time is <= \p max_time.
    Popped pop_ready(double max_time) {
        // Hot path: overflow empty, scratch non-exhausted — one branch
        // each, then a cursor bump.
        if (!overflow_.empty()) [[unlikely]]
            return pop_with_overflow(max_time);
        if (scratch_pos_ == scratch_.size() && !refill())
            return {0.0, nullptr};
        const ScratchEntry& top = scratch_[scratch_pos_];
        if (top.time > max_time) return {0.0, nullptr};
        const Popped popped{top.time, top.handle};
        ++scratch_pos_;
        --size_;
        prefetch_resume_ahead();
        return popped;
    }

    bool empty() const noexcept { return size_ == 0; }
    std::size_t size() const noexcept { return size_; }

private:
    /// Resume-ahead: the sorted window knows which coroutine frames run
    /// next, so warm the frame a few dispatches early. A frame sits
    /// untouched for a whole event population between wakeups — cold on
    /// every resume — and this is a structural edge over a binary heap,
    /// which cannot see its drain order ahead of time. Frames are pooled
    /// at 192 bytes for the common process shape: three lines.
    void prefetch_resume_ahead() const noexcept {
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t ahead = scratch_pos_ + 5;
        if (ahead < scratch_.size()) {
            const void* frame = scratch_[ahead].handle.address();
            __builtin_prefetch(frame);
            __builtin_prefetch(static_cast<const char*>(frame) + 64);
            __builtin_prefetch(static_cast<const char*>(frame) + 128);
        }
#endif
    }

    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::size_t kMinBuckets = 8;
    static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
    /// Epochs are capped so time / width never overflows the integer
    /// range; the cap only coarsens far-future bucketing (the mapping
    /// stays monotone, which is all correctness needs).
    static constexpr double kMaxEpoch = 9.0e18;

    struct ScratchEntry {
        double time;
        std::uint64_t seq;
        std::coroutine_handle<> handle;
    };

    /// Descending (time, seq): the overflow heap's comparator (std heap
    /// functions with a "greater" order make front() the minimum).
    static bool descending(const ScratchEntry& a,
                           const ScratchEntry& b) noexcept {
        if (a.time != b.time) return a.time > b.time;
        return a.seq > b.seq;
    }

    /// Ascending (time, seq): the scratch window's drain order.
    static bool ascending(const ScratchEntry& a,
                          const ScratchEntry& b) noexcept {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }

    /// Cold path of pop_ready: the overflow heap holds at least one event
    /// (same-time wakeups pushed while the scratch drained), so the
    /// earliest pending event is min(scratch[cursor], overflow.front()).
    Popped pop_with_overflow(double max_time) {
        const bool from_overflow =
            scratch_pos_ == scratch_.size() ||
            descending(scratch_[scratch_pos_], overflow_.front());
        const ScratchEntry& top =
            from_overflow ? overflow_.front() : scratch_[scratch_pos_];
        if (top.time > max_time) return {0.0, nullptr};
        const Popped popped{top.time, top.handle};
        if (from_overflow) {
            std::pop_heap(overflow_.begin(), overflow_.end(), descending);
            overflow_.pop_back();
        } else {
            ++scratch_pos_;
        }
        --size_;
        return popped;
    }

    std::uint64_t epoch_of(double time) const noexcept {
        const double e = time * inv_width_;
        return e >= kMaxEpoch ? static_cast<std::uint64_t>(kMaxEpoch)
                              : static_cast<std::uint64_t>(e);
    }

    std::uint32_t alloc_slot() {
        if (free_head_ != kNil) {
            const std::uint32_t slot = free_head_;
            free_head_ = slot_[slot].next;
            return slot;
        }
        const auto slot = static_cast<std::uint32_t>(slot_.size());
        slot_.push_back({});
        return slot;
    }

    void free_slot(std::uint32_t slot) noexcept {
        slot_[slot].next = free_head_;
        free_head_ = slot;
    }

    /// Detaches every event of epoch \p epoch from its bucket chain into
    /// the scratch (unsorted). Returns how many were collected.
    ///
    /// Membership test: refill only probes epochs within one bucket lap of
    /// cur_epoch_, and chains hold epochs > cur_epoch_ (I1), so everything
    /// in this bucket has epoch_of >= \p epoch — membership reduces to
    /// epoch_of <= \p epoch, i.e. time * inv_width < epoch + 1. That is
    /// one multiply + compare per slot instead of multiply + truncate +
    /// integer compare, taken whenever epoch + 1 is exactly representable
    /// as a double (always, outside the far-future kMaxEpoch cap).
    std::size_t detach_epoch(std::uint64_t epoch) {
        const std::size_t b = static_cast<std::size_t>(epoch & bucket_mask_);
        std::uint32_t slot = bucket_[b];
#if defined(__GNUC__) || defined(__clang__)
        // Refill walks consecutive epochs, so the chain two epochs ahead is
        // needed roughly two detach+sort latencies from now — enough lead
        // to hide its first slot's cold miss. The bucket table itself is
        // contiguous and stays warm across the walk.
        const std::uint32_t h2 =
            bucket_[static_cast<std::size_t>((epoch + 2) & bucket_mask_)];
        if (h2 != kNil) __builtin_prefetch(&slot_[h2]);
        const std::uint32_t h3 =
            bucket_[static_cast<std::size_t>((epoch + 3) & bucket_mask_)];
        if (h3 != kNil) __builtin_prefetch(&slot_[h3]);
#endif
        std::uint32_t* link = &bucket_[b];
        std::size_t collected = 0;
        const bool exact = epoch < (std::uint64_t{1} << 52);
        const double upper = static_cast<double>(epoch + 1);
        while (slot != kNil) {
            Slot& s = slot_[slot];
            const std::uint32_t next = s.next;
#if defined(__GNUC__) || defined(__clang__)
            if (next != kNil) __builtin_prefetch(&slot_[next]);
#endif
            const bool member = exact ? s.time * inv_width_ < upper
                                      : epoch_of(s.time) == epoch;
            if (member) {
                scratch_.push_back({s.time, s.seq, s.handle});
                *link = next;
                free_slot(slot);
                ++collected;
            } else {
                link = &s.next;
            }
            slot = next;
        }
        // Order the appended range. Chains are LIFO push order, but one
        // epoch rarely holds more than a couple of events, so this stays
        // in the one-or-two-element regime; across epochs no sort is
        // needed (disjoint time ranges, detached ascending).
        if (collected > 1)
            std::sort(scratch_.end() - static_cast<std::ptrdiff_t>(collected),
                      scratch_.end(), ascending);
        return collected;
    }

    /// Advances cur_epoch_ until an epoch with pending events is found,
    /// then detaches a batch of consecutive epochs into the scratch
    /// window. After one full lap over the buckets, jumps straight to the
    /// epoch of the earliest pending event instead of stepping through
    /// empty years. An epoch holding far more than the O(1) target means
    /// the width is mistuned for the current population (e.g. every
    /// inter-event gap was zero when it was last set) — one resize per
    /// refill re-tunes it from the live spread.
    bool refill() {
        if (size_ == 0) {
            scratch_live_ = false;
            return false;
        }
        // Every prior entry has been drained (pop_ready only lands here
        // with the cursor at the end): recycle the window's capacity.
        scratch_.clear();
        scratch_pos_ = 0;
        // Shrink here rather than per pop: pop_ready reaches refill whenever
        // its windows run dry, which is exactly when a shrunken population
        // is worth re-bucketing.
        if (size_ < nbuckets_ / 4 && nbuckets_ > kMinBuckets) resize();
        constexpr std::size_t kOccupancyLimit = 96;
        // Once an occupied epoch is found, keep detaching a few more so
        // one walk + one small sort serves several pops. Tuned against
        // the jittered-ticker profile in bench/micro_des: batches of ~5
        // amortize the per-refill setup without letting the sort grow
        // past the few-element regime where it is effectively free.
        constexpr std::size_t kBatchTarget = 64;
        constexpr std::size_t kBatchMaxSteps = 128;
        bool retuned = false;
        while (true) {
            std::size_t stepped = 0;
            std::uint64_t epoch =
                scratch_live_ ? cur_epoch_ + 1 : cur_epoch_;
            std::size_t collected;
            while (true) {
                if (stepped++ > nbuckets_) {
                    epoch = epoch_of(min_pending_time());
                    stepped = 0;
                }
                collected = detach_epoch(epoch);
                if (collected > 0) break;
                ++epoch;
            }
            std::size_t epoch_peak = collected;
            for (std::size_t extra = 0;
                 collected < kBatchTarget && extra < kBatchMaxSteps &&
                 collected < size_;
                 ++extra) {
                const std::size_t got = detach_epoch(++epoch);
                collected += got;
                if (got > epoch_peak) epoch_peak = got;
            }
            // Mistuning check is per epoch, not per batch: a healthy batch
            // legitimately totals kBatchTarget events across many epochs;
            // only a single epoch swallowing a population-scale pile means
            // the width no longer spreads the events out.
            if (!retuned && epoch_peak > kOccupancyLimit &&
                size_ > 2 * kOccupancyLimit) {
                retuned = true;
                resize(); // reclaims the detached scratch, re-tunes width
                continue;
            }
            cur_epoch_ = epoch;
            scratch_live_ = true;
#if defined(__GNUC__) || defined(__clang__)
            // The resume-ahead prefetch in pop_ready() only has lead time once
            // the cursor is a few entries deep; the first dispatches of a
            // fresh window would otherwise always resume cold frames. Warm
            // them here, while the sort results above are still in flight.
            const std::size_t warm =
                std::min(scratch_pos_ + 3, scratch_.size());
            for (std::size_t i = scratch_pos_; i < warm; ++i) {
                const void* frame = scratch_[i].handle.address();
                __builtin_prefetch(frame);
                __builtin_prefetch(static_cast<const char*>(frame) + 64);
                __builtin_prefetch(static_cast<const char*>(frame) + 128);
            }
#endif
            return true;
        }
    }

    double min_pending_time() const noexcept {
        double best = std::numeric_limits<double>::infinity();
        std::uint64_t best_seq = 0;
        bool found = false;
        for (const std::uint32_t head : bucket_) {
            for (std::uint32_t s = head; s != kNil; s = slot_[s].next) {
                if (!found || slot_[s].time < best ||
                    (slot_[s].time == best && slot_[s].seq < best_seq)) {
                    best = slot_[s].time;
                    best_seq = slot_[s].seq;
                    found = true;
                }
            }
        }
        return best;
    }

    /// Rebuilds the bucket table for the current population: bucket count
    /// tracks size (power of two for mask indexing) and the width is
    /// re-tuned from a sample of live inter-event gaps so that a bucket
    /// holds O(1) events of its epoch.
    void resize() {
        // Gather every pending event (chains + scratch) as scratch entries.
        std::vector<ScratchEntry> all;
        all.reserve(size_);
        for (std::uint32_t& head : bucket_) {
            for (std::uint32_t s = head; s != kNil;) {
                const std::uint32_t next = slot_[s].next;
                all.push_back({slot_[s].time, slot_[s].seq, slot_[s].handle});
                s = next;
            }
            head = kNil;
        }
        all.insert(all.end(),
                   scratch_.begin() +
                       static_cast<std::ptrdiff_t>(scratch_pos_),
                   scratch_.end());
        scratch_.clear();
        scratch_pos_ = 0;
        all.insert(all.end(), overflow_.begin(), overflow_.end());
        overflow_.clear();
        scratch_live_ = false;

        std::size_t want = kMinBuckets;
        while (want < size_ && want < kMaxBuckets) want <<= 1;
        nbuckets_ = want;
        bucket_mask_ = static_cast<std::uint64_t>(nbuckets_ - 1);
        bucket_.assign(nbuckets_, kNil);
        retune_width(all);

        // Reset the arena and re-chain everything under the new geometry.
        slot_.clear();
        free_head_ = kNil;
        double min_time = std::numeric_limits<double>::infinity();
        for (const ScratchEntry& e : all)
            min_time = std::min(min_time, e.time);
        cur_epoch_ = all.empty() ? 0 : epoch_of(min_time);
        for (const ScratchEntry& e : all) {
            const std::uint32_t slot = alloc_slot();
            Slot& s = slot_[slot];
            s.time = e.time;
            s.seq = e.seq;
            s.handle = e.handle;
            const std::size_t b =
                static_cast<std::size_t>(epoch_of(e.time) & bucket_mask_);
            s.next = bucket_[b];
            bucket_[b] = slot;
        }
    }

    /// Width = 1.5x the population's mean inter-event gap, so a drained
    /// epoch holds ~1-2 events and the batched refill tops up to ~5 with
    /// a few cheap probes (measured optimum on the jittered-ticker
    /// profile: wider epochs push the per-refill sort out of the
    /// few-element regime, narrower ones stop amortizing the refill
    /// setup). The mean gap is the occupied time span divided by
    /// (population - 1); the span is read off a strided sample (its
    /// extremes track the population's). An all-equal population has zero
    /// span and keeps the old width (any width works when everything
    /// shares one epoch).
    void retune_width(const std::vector<ScratchEntry>& all) {
        if (all.size() < 2) return;
        constexpr std::size_t kSample = 64;
        const std::size_t stride =
            std::max<std::size_t>(1, all.size() / kSample);
        double lo = all[0].time;
        double hi = all[0].time;
        for (std::size_t i = stride; i < all.size(); i += stride) {
            lo = std::min(lo, all[i].time);
            hi = std::max(hi, all[i].time);
        }
        const double width =
            1.5 * (hi - lo) / static_cast<double>(all.size() - 1);
        if (width > 0.0 && std::isfinite(width)) {
            width_ = width;
            inv_width_ = 1.0 / width;
        }
    }

    // Flat slot arena, chained through Slot::next (which doubles as the
    // freelist link for dead slots). One packed, 32-byte-aligned record
    // per event: a drained slot was pushed a whole event population ago,
    // so its lines are cold — parallel per-field columns were measured to
    // cost up to three cold misses per drained event where this layout
    // pays exactly one (DESIGN.md §13).
    struct alignas(32) Slot {
        double time;
        std::uint64_t seq;
        std::coroutine_handle<> handle;
        std::uint32_t next;
    };
    std::vector<Slot> slot_;
    std::uint32_t free_head_ = kNil;

    std::vector<std::uint32_t> bucket_;
    std::size_t nbuckets_ = kMinBuckets;
    std::uint64_t bucket_mask_ = kMinBuckets - 1;
    double width_ = 1.0;
    double inv_width_ = 1.0;

    /// Ascending drain window, consumed through scratch_pos_; see I1/I2.
    /// scratch_live_ marks cur_epoch_ as "this epoch has been detached":
    /// only then do pushes at or before it land in the overflow heap, and
    /// refill resumes from the next epoch.
    std::vector<ScratchEntry> scratch_;
    std::size_t scratch_pos_ = 0;
    /// Min-heap (earliest at front()) of events pushed at or before
    /// cur_epoch_ while the scratch is live — typically same-time wakeups
    /// (resource handoffs), so it stays a handful of entries deep.
    std::vector<ScratchEntry> overflow_;
    std::uint64_t cur_epoch_ = 0;
    bool scratch_live_ = false;

    std::size_t size_ = 0;
};

} // namespace borg::des

#endif
