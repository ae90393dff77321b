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
    /**
     * Round-truncated prefix keying (0 = off = exact). When set to k,
     * cache HASHES are computed from the syndrome *prefix* only — the
     * defects in all but the last k detector rows — which makes
     * hashing cheaper and clusters shots that agree on the early
     * rounds onto one probe chain. Every hit is still verified
     * against the stored FULL defect list before its verdict is
     * replayed, so the mode is miss-only-approximate: a prefix
     * collision with a differing tail costs extra probing, never a
     * wrong correction. Verdicts are therefore bit-identical to the
     * exact mode at every setting. The experiment layer derives
     * `keyDetectorLimit` from this and the round/stabilizer counts.
     */
    uint32_t truncateRounds = 0;
    /** Derived detector-id cutoff for the truncated key: defects with
     *  id >= this are excluded from keys (0 = exact full-list keys).
     *  Filled in by the experiment layer; set directly only in tests. */
    uint32_t keyDetectorLimit = 0;
};

/**
 * Derive `keyDetectorLimit` from `truncateRounds` for an experiment
 * with `rounds` syndrome rounds and `basis_stabilizers` decoded
 * checks per round (the syndrome has rounds+1 detector rows including
 * the final data-derived row). No-op when truncation is off or the
 * limit was set explicitly; shared by every batched decode entry
 * point so the knob behaves identically everywhere.
 */
SyndromeCacheOptions resolveSyndromeCacheOptions(
    SyndromeCacheOptions options, int rounds, int basis_stabilizers);

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
     * Look up a syndrome. On hit, stores the cached verdict in
     * `verdict` and returns true. With truncated keying enabled the
     * caller's `hash` is ignored (the cache hashes the truncated
     * prefix itself), but a hit still requires the FULL stored defect
     * list to match — truncation can only cause extra misses, never a
     * wrong verdict.
     */
    bool lookup(uint64_t hash, const int *defects, size_t count,
                bool &verdict);

    /** Record a decoded verdict (no-op when disabled or oversized).
     *  With truncated keying, an insert that immediately follows a
     *  lookup on the same (pointer, count) list reuses that lookup's
     *  truncation — callers must not mutate the defect buffer between
     *  the two calls (the decode pipeline never does). */
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
    /** FNV hash of the ids below the truncated-key cutoff. */
    uint64_t truncateKey(const int *defects, size_t count);

    SyndromeCacheOptions options_;
    SyndromeCacheStats stats_;
    uint64_t hitsAtFlush_ = 0;
    uint64_t missesAtFlush_ = 0;
    std::vector<Slot> slots_;
    std::vector<int> arena_;
    // A miss is followed by insert() on the same list (the pipeline's
    // lookup -> decode -> insert sequence); remembering the lookup's
    // truncation avoids filtering and hashing the list twice.
    const int *lastKeySrc_ = nullptr;
    size_t lastKeyCount_ = 0;
    uint64_t lastKeyHash_ = 0;
    bool lastKeyValid_ = false;
    size_t used_ = 0;
    uint64_t mask_ = 0;
};

} // namespace qec

#endif // QEC_DECODER_SYNDROME_CACHE_H
