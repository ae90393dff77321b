/**
 * @file
 * Batch-aware decode orchestration: the layer between the bit-packed
 * simulation engine and the per-shot decoders.
 *
 * For every lane of a BatchSyndrome the pipeline applies, in order:
 *
 *  1. Zero-defect fast path — no fired detectors means the decoder
 *     would predict "no flip" without looking at the graph, so the
 *     decode is skipped outright (the dominant case at low p).
 *  2. Syndrome dedup cache — identical sparse syndromes replay the
 *     first decode's observable-flip verdict (see SyndromeCache).
 *  3. Workspace decode — decodeSparse() on the wrapped decoder with
 *     this pipeline's persistent DecodeWorkspace, so steady-state
 *     decoding is allocation-free.
 *
 * Sliding-window streaming mode (opt-in via BatchDecodeOptions
 * windowLength / windowSlideLength): instead of one whole-history
 * decode per lane, the lane's rounds are decoded in windows of
 * `windowLength` detector rows advanced `windowSlideLength` rows at a
 * time, with cluster-complete commits: each window decodes its fresh
 * defects plus every deferred cluster, then commits whole grown
 * clusters whose regions are provably beyond the decoder's certified
 * growth bound (Decoder::windowCommitBound) from every unseen row and
 * every deferred defect — the full-history decode then evolves the
 * cluster disjointly from everything else, so its observable parity
 * is committed for good. Clusters that cannot be certified are
 * deferred (their defects carried verbatim) and the final window
 * commits unconditionally. Windowed verdicts are
 * therefore bit-identical to the full-history decode for EVERY defect
 * set and window shape; the window sizing only trades the deferral
 * rate against peak decoder state, which is bounded by the window
 * content plus deferrals rather than the run length. A decoder
 * without a certified growth bound (MWPM) defers everything — still
 * exact, but degenerating to one full-history decode per lane.
 *
 * One BatchDecoder per thread: the workspace and cache are mutable
 * state. Non-windowed verdicts are bit-exact with per-shot
 * Decoder::decode calls — decoding is a pure function of the defect
 * list, which the differential tests pin.
 */

#ifndef QEC_DECODER_BATCH_DECODER_H
#define QEC_DECODER_BATCH_DECODER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "decoder/component_decoder.h"
#include "decoder/decoder_base.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/syndrome_cache.h"

namespace qec
{

/** Full pipeline configuration (one per BatchDecoder). */
struct BatchDecodeOptions
{
    SyndromeCacheOptions cache;
    /** Unread; perfbench/src/replay.cpp:481 assigns it. Removed with
     *  ROADMAP item 1. */
    ComponentDecodeOptions components;
    /**
     * Sliding-window streaming decode: decode each lane in windows of
     * this many detector rows (0 = whole-history decode). Requires an
     * attached ComponentGraph for the row geometry. Ignored when the
     * window covers the whole history.
     */
    int windowLength = 0;
    /** Rows the window advances per step (1 .. windowLength). */
    int windowSlideLength = 0;
};

/** Counters for one pipeline instance (mergeable across threads). */
struct BatchDecodeStats
{
    uint64_t shots = 0;          ///< Lanes fed into the pipeline.
    uint64_t zeroDefect = 0;     ///< Lanes skipped by the fast path.
    uint64_t cacheHits = 0;      ///< Lanes answered by the dedup cache.
    uint64_t decoded = 0;        ///< Lanes that went past the cache.

    // Sliding-window streaming mode.
    uint64_t windows = 0;          ///< Non-empty windows decoded.
    uint64_t windowCommits = 0;    ///< Clusters committed early/final.
    uint64_t windowDeferrals = 0;  ///< Clusters deferred to later
                                   ///< windows (uncertified commits).
    /** Most defects any single window decode was handed — the peak
     *  live decoder state of a streaming run (vs the whole shot's
     *  defect count for a full-history decode). */
    uint64_t windowPeakDefects = 0;

    void
    merge(const BatchDecodeStats &other)
    {
        shots += other.shots;
        zeroDefect += other.zeroDefect;
        cacheHits += other.cacheHits;
        decoded += other.decoded;
        windows += other.windows;
        windowCommits += other.windowCommits;
        windowDeferrals += other.windowDeferrals;
        if (other.windowPeakDefects > windowPeakDefects)
            windowPeakDefects = other.windowPeakDefects;
    }

    /** Cache hits over cache-eligible (nonzero-defect) lanes. */
    double
    cacheHitRate() const
    {
        const uint64_t eligible = cacheHits + decoded;
        return eligible == 0 ? 0.0
                             : (double)cacheHits / (double)eligible;
    }
};

class BatchDecoder
{
  public:
    /** Wrap a decoder; the decoder must outlive the pipeline.
     *  Whole-shot and dedup paths only, no window stage. */
    explicit BatchDecoder(const Decoder &decoder,
                          SyndromeCacheOptions cache_options = {});

    /**
     * Full pipeline: dedup cache (+ sliding-window mode when
     * configured). `graph` may be null unless windowLength > 0; it
     * must otherwise be built from the same DetectorModel and error
     * rate as `decoder` and outlive the pipeline (shared across
     * threads).
     */
    BatchDecoder(const Decoder &decoder,
                 const BatchDecodeOptions &options,
                 std::shared_ptr<const ComponentGraph> graph);

    /**
     * Decode every lane of a (possibly >64-lane) word-group, writing
     * per-lane predicted-flip bits into `predictions` (at least
     * batch.numWords words; cleared first).
     */
    void decodeBatch(const BatchSyndrome &batch,
                     uint64_t *predictions);

    /** Convenience for groups of at most 64 lanes: returns the
     *  predicted-flip bits as one word (panics on wider batches
     *  rather than silently dropping lanes). */
    uint64_t decodeBatch(const BatchSyndrome &batch);

    /** Decode one sparse syndrome through the same pipeline. */
    bool decodeOne(const int *defects, size_t count);

    DecodeWorkspace & workspace() { return workspace_; }
    const BatchDecodeStats & stats() const { return stats_; }
    const SyndromeCacheStats & cacheStats() const
    {
        return cache_.stats();
    }
    bool windowed() const { return windowed_; }
    void resetStats()
    {
        stats_ = {};
        cache_.resetStats();
    }

  private:
    bool decodeCached(uint64_t hash, const int *defects, size_t count);
    /** Post-cache lane decode: windowed or whole-shot. */
    bool decodeLane(const int *defects, size_t count);
    bool decodeWindowed(const int *defects, size_t count);

    const Decoder &decoder_;
    BatchDecodeOptions options_;
    std::shared_ptr<const ComponentGraph> graph_;
    bool windowed_ = false;
    DecodeWorkspace workspace_;
    SyndromeCache cache_;
    BatchDecodeStats stats_;
    // Sliding-window scratch (steady-state allocation-free).
    std::vector<int> winDefects_;     ///< Current window's decode input.
    std::vector<uint8_t> winDone_;    ///< Per-input-defect committed flag.
    std::vector<uint8_t> winCommit_;  ///< Per-cluster commit flags.
};

} // namespace qec

#endif // QEC_DECODER_BATCH_DECODER_H
