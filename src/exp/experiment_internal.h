/**
 * @file
 * Internal per-worker state shared by the experiment drivers
 * (MemoryExperiment's batched group runner and ExperimentSession's
 * chunked driver). Not part of the public API: nothing here is
 * stable, and only the exp/ sources should include it.
 */

#ifndef QEC_EXP_EXPERIMENT_INTERNAL_H
#define QEC_EXP_EXPERIMENT_INTERNAL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "decoder/batch_decoder.h"
#include "decoder/sparse_syndrome.h"

namespace qec
{

/** Per-word-group counters merged under a mutex after each work
 *  item. */
struct ExperimentShotStats
{
    uint64_t logicalErrors = 0;
    uint64_t verdictHash = 0;
    uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
    uint64_t lrcsScheduled = 0;
    std::vector<double> lprData;
    std::vector<double> lprParity;
};

/**
 * One worker thread's decode pipeline: the extractor's bit-plane
 * scratch, the flat sparse-syndrome buffers, and the BatchDecoder
 * (workspace + dedup cache) all persist across that worker's
 * word-groups — and, in a session, across chunks — so steady-state
 * decoding allocates nothing.
 */
struct ExperimentDecodeContext
{
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    std::unique_ptr<BatchDecoder> pipeline;
};

} // namespace qec

#endif // QEC_EXP_EXPERIMENT_INTERNAL_H
