#include "decoder/syndrome_cache.h"

#include <algorithm>
#include <cstring>

#include "base/fault_injection.h"

namespace qec
{

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

} // namespace

SyndromeCacheOptions
resolveSyndromeCacheOptions(SyndromeCacheOptions options, int rounds,
                            int basis_stabilizers)
{
    if (options.truncateRounds > 0 && options.keyDetectorLimit == 0) {
        // Clamp to at least one key row: an over-large truncateRounds
        // means "truncate as much as possible", and a cutoff of 0
        // would silently mean the opposite (exact keying).
        const int key_rows =
            std::max(1, (rounds + 1) - (int)options.truncateRounds);
        options.keyDetectorLimit =
            (uint32_t)(key_rows * basis_stabilizers);
    }
    return options;
}

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

uint64_t
SyndromeCache::truncateKey(const int *defects, size_t count)
{
    // Hash the prefix in place: entries store and verify the FULL
    // defect list, so the truncated ids never need materializing.
    uint64_t h = kFnvOffset;
    for (size_t k = 0; k < count; ++k) {
        if ((uint32_t)defects[k] < options_.keyDetectorLimit)
            h = (h ^ (uint64_t)(uint32_t)defects[k]) * kFnvPrime;
    }
    return h;
}

bool
SyndromeCache::lookup(uint64_t hash, const int *defects, size_t count,
                      bool &verdict)
{
    if (!options_.enabled) {
        ++stats_.misses;
        return false;
    }
    if (options_.keyDetectorLimit) {
        // Truncated keying hashes the prefix only, but entries store
        // the FULL defect list and a hit requires full equality below:
        // a prefix collision with a differing tail probes on (and at
        // worst misses), it can never replay the wrong verdict. The
        // approximation is miss-only — coarser hashes cluster the
        // probe chains, they never change a correction.
        lastKeyHash_ = truncateKey(defects, count);
        lastKeySrc_ = defects;
        lastKeyCount_ = count;
        lastKeyValid_ = true;
        hash = lastKeyHash_;
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
    if (!options_.enabled)
        return;
    if (options_.keyDetectorLimit) {
        // Reuse the immediately preceding lookup's truncation when it
        // covered this exact list; anything else recomputes. The full
        // list is what gets stored either way — only the hash is
        // prefix-derived.
        if (lastKeyValid_ && lastKeySrc_ == defects &&
            lastKeyCount_ == count)
            hash = lastKeyHash_;
        else
            hash = truncateKey(defects, count);
        lastKeyValid_ = false;
    }
    if (count > options_.arenaCapacity)
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
