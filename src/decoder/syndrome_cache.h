/**
 * @file
 * Syndrome dedup cache: decode each distinct sparse syndrome once.
 *
 * At the low physical error rates ERASER targets, many shots in a
 * batch share identical sparse syndromes (the zero-defect shot is the
 * extreme case, handled even earlier by the decode pipeline's fast
 * path). Decoding is a pure function of the defect list, so the first
 * decode's observable-flip verdict can be replayed for every later
 * shot with the same syndrome.
 *
 * Implementation: open-addressed hash table with linear probing over
 * fixed-capacity slot and defect-arena arrays. Hits compare the full
 * stored defect list, so hash collisions can never replay a wrong
 * verdict. When either array fills, the whole cache is flushed (a
 * counted event) — steady state allocates nothing.
 */

#ifndef QEC_DECODER_SYNDROME_CACHE_H
#define QEC_DECODER_SYNDROME_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qec
{

/** Sizing/enable knobs for the dedup cache. */
struct SyndromeCacheOptions
{
    bool enabled = true;
    /** log2 of the slot count (clamped to [2, 24]). */
    uint32_t tableLog2 = 13;
    /** Capacity of the stored-defect arena (ints). */
    uint32_t arenaCapacity = 1u << 17;
};

/** Returns `options` unchanged; perfbench/src/replay.cpp:478 calls it.
 *  Removed with ROADMAP item 1. */
inline SyndromeCacheOptions
resolveSyndromeCacheOptions(SyndromeCacheOptions options, int, int)
{
    return options;
}

/** One wholesale flush of the cache, for occupancy diagnostics. */
struct SyndromeCacheFlush
{
    uint64_t hits = 0;       ///< Hits since the previous flush.
    uint64_t misses = 0;     ///< Misses since the previous flush.
    uint64_t evicted = 0;    ///< Entries dropped by this flush.
    double occupancy = 0.0;  ///< Slot occupancy when flushed.
};

struct SyndromeCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t flushes = 0;
    uint64_t evictions = 0;        ///< Total entries dropped by flushes.
    SyndromeCacheFlush lastFlush;  ///< Most recent flush snapshot.

    double
    hitRate() const
    {
        const uint64_t total = hits + misses;
        return total == 0 ? 0.0 : (double)hits / (double)total;
    }
};

class SyndromeCache
{
  public:
    explicit SyndromeCache(SyndromeCacheOptions options = {});

    /**
     * Look up a syndrome by its syndromeHash. On hit, stores the
     * cached verdict in `verdict` and returns true; a hit requires
     * the full stored defect list to match.
     */
    bool lookup(uint64_t hash, const int *defects, size_t count,
                bool &verdict);

    /** Record a decoded verdict (no-op when disabled or oversized). */
    void insert(uint64_t hash, const int *defects, size_t count,
                bool verdict);

    const SyndromeCacheStats & stats() const { return stats_; }
    void resetStats() { stats_ = {}; }
    size_t size() const { return used_; }
    bool enabled() const { return options_.enabled; }

  private:
    struct Slot
    {
        uint64_t hash = 0;
        uint32_t offset = 0;
        uint32_t count = 0;
        uint8_t verdict = 0;
        uint8_t used = 0;
    };

    void flush();

    SyndromeCacheOptions options_;
    SyndromeCacheStats stats_;
    uint64_t hitsAtFlush_ = 0;
    uint64_t missesAtFlush_ = 0;
    std::vector<Slot> slots_;
    std::vector<int> arena_;
    size_t used_ = 0;
    uint64_t mask_ = 0;
};

} // namespace qec

#endif // QEC_DECODER_SYNDROME_CACHE_H
