#include "decoder/syndrome_cache.h"

#include <algorithm>
#include <cstring>

#include "base/fault_injection.h"

namespace qec
{

SyndromeCache::SyndromeCache(SyndromeCacheOptions options)
    : options_(options)
{
    if (!options_.enabled)
        return;
    // Armed with Kind::ThrowBadAlloc, this simulates the slot-table
    // or arena allocation failing — the recoverable-allocation path
    // the SweepRunner retry tests exercise.
    (void)QEC_FAULT_POINT("cache.alloc");
    // At least 4 slots: the insert-side flush keeps a quarter of the
    // table free, which a 1- or 2-slot table would round down to
    // none, leaving a missing lookup to probe forever.
    options_.tableLog2 = std::clamp(options_.tableLog2, 2u, 24u);
    slots_.resize(size_t{1} << options_.tableLog2);
    mask_ = slots_.size() - 1;
    arena_.reserve(options_.arenaCapacity);
}

bool
SyndromeCache::lookup(uint64_t hash, const int *defects, size_t count,
                      bool &verdict)
{
    if (!options_.enabled) {
        ++stats_.misses;
        return false;
    }
    size_t slot = hash & mask_;
    while (slots_[slot].used) {
        const Slot &s = slots_[slot];
        if (s.hash == hash && s.count == count &&
            std::memcmp(arena_.data() + s.offset, defects,
                        count * sizeof(int)) == 0) {
            verdict = s.verdict != 0;
            ++stats_.hits;
            return true;
        }
        slot = (slot + 1) & mask_;
    }
    ++stats_.misses;
    return false;
}

void
SyndromeCache::insert(uint64_t hash, const int *defects, size_t count,
                      bool verdict)
{
    if (!options_.enabled || count > options_.arenaCapacity)
        return;
    // Flush wholesale once either array is near capacity: the table
    // needs headroom for probing, the arena for the incoming list.
    if (used_ + 1 > slots_.size() - slots_.size() / 4 ||
        arena_.size() + count > options_.arenaCapacity) {
        stats_.lastFlush = {stats_.hits - hitsAtFlush_,
                            stats_.misses - missesAtFlush_,
                            (uint64_t)used_,
                            (double)used_ / (double)slots_.size()};
        hitsAtFlush_ = stats_.hits;
        missesAtFlush_ = stats_.misses;
        stats_.evictions += used_;
        flush();
        ++stats_.flushes;
    }
    size_t slot = hash & mask_;
    while (slots_[slot].used) {
        if (slots_[slot].hash == hash &&
            slots_[slot].count == count &&
            std::memcmp(arena_.data() + slots_[slot].offset, defects,
                        count * sizeof(int)) == 0)
            return;   // already cached (racing duplicate insert)
        slot = (slot + 1) & mask_;
    }
    Slot &s = slots_[slot];
    s.hash = hash;
    s.offset = (uint32_t)arena_.size();
    s.count = (uint32_t)count;
    s.verdict = verdict ? 1 : 0;
    s.used = 1;
    arena_.insert(arena_.end(), defects, defects + count);
    ++used_;
}

void
SyndromeCache::flush()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    arena_.clear();
    used_ = 0;
}

} // namespace qec
