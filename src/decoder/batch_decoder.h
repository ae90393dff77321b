/**
 * @file
 * Batch-aware decode orchestration: the layer between the bit-packed
 * simulation engine and the per-shot decoders.
 *
 * Every lane of a BatchSyndrome first meets the zero-defect fast
 * path: no fired detectors means the decoder would predict "no flip"
 * without looking at the graph, so the decode is skipped outright
 * (the dominant case at low p). A lane with defects then takes one of
 * two decode paths:
 *
 *  - dedup: a sparse syndrome identical to one decoded before replays
 *    that decode's observable-flip verdict (see SyndromeCache);
 *  - whole shot: decodeSparse() on the wrapped decoder over the
 *    lane's full history, with this pipeline's persistent
 *    DecodeWorkspace, so steady-state decoding is allocation-free.
 *
 * One BatchDecoder per thread: the workspace and cache are mutable
 * state. Verdicts are bit-exact with per-shot Decoder::decode calls —
 * decoding is a pure function of the defect list, which the
 * differential tests pin.
 */

#ifndef QEC_DECODER_BATCH_DECODER_H
#define QEC_DECODER_BATCH_DECODER_H

#include <cstdint>
#include <memory>

#include "decoder/component_decoder.h"
#include "decoder/decoder_base.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/syndrome_cache.h"

namespace qec
{

/** Pipeline configuration: only the dedup cache is settable. */
struct BatchDecodeOptions
{
    SyndromeCacheOptions cache;
    /** No settable value; perfbench/src/replay.cpp:481-483 assigns
     *  them. Removed with ROADMAP item 1. */
    RetiredDecodeOption components;
    RetiredDecodeOption windowLength;
    RetiredDecodeOption windowSlideLength;
};

/** Counters for one pipeline instance (mergeable across threads). */
struct BatchDecodeStats
{
    uint64_t shots = 0;          ///< Lanes fed into the pipeline.
    uint64_t zeroDefect = 0;     ///< Lanes skipped by the fast path.
    uint64_t cacheHits = 0;      ///< Lanes answered by the dedup cache.
    uint64_t decoded = 0;        ///< Lanes that went past the cache.

    void
    merge(const BatchDecodeStats &other)
    {
        shots += other.shots;
        zeroDefect += other.zeroDefect;
        cacheHits += other.cacheHits;
        decoded += other.decoded;
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
    /** Wrap a decoder; the decoder must outlive the pipeline. */
    explicit BatchDecoder(const Decoder &decoder,
                          SyndromeCacheOptions cache_options = {});

    /** The cache-only pipeline; perfbench/src/replay.cpp:484 still
     *  passes options and a graph. Removed with ROADMAP item 1. */
    BatchDecoder(const Decoder &decoder,
                 const BatchDecodeOptions &options,
                 std::shared_ptr<const ComponentGraph>)
        : BatchDecoder(decoder, options.cache)
    {
    }

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
    void resetStats()
    {
        stats_ = {};
        cache_.resetStats();
    }

  private:
    bool decodeCached(uint64_t hash, const int *defects, size_t count);

    const Decoder &decoder_;
    DecodeWorkspace workspace_;
    SyndromeCache cache_;
    BatchDecodeStats stats_;
};

} // namespace qec

#endif // QEC_DECODER_BATCH_DECODER_H
