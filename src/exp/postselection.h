/**
 * @file
 * Post-processing leakage rejection, the prior-work category the paper
 * contrasts ERASER against (Section 7.1): flag shots whose syndrome
 * history betrays leakage (a parity check firing persistently) and
 * discard them. Usable for memory experiments only — a fault-tolerant
 * computation cannot throw trials away — which is exactly the paper's
 * argument for real-time suppression.
 */

#ifndef QEC_EXP_POSTSELECTION_H
#define QEC_EXP_POSTSELECTION_H

#include <cstdint>

#include "exp/memory_experiment.h"

namespace qec
{

/** Detector used to flag leakage-suspect shots offline. */
struct PostSelectOptions
{
    /** Sliding window length (rounds). */
    int window = 4;
    /** A stabilizer with at least this many detection events inside
     *  one window marks the shot as leakage-suspect. */
    int eventThreshold = 3;
};

/** Outcome of a post-selected memory experiment. */
struct PostSelectResult
{
    uint64_t shots = 0;
    uint64_t kept = 0;
    uint64_t logicalErrorsAll = 0;
    uint64_t logicalErrorsKept = 0;

    double keptFraction() const
    {
        return shots ? (double)kept / shots : 0.0;
    }
    double lerAll() const
    {
        return shots ? (double)logicalErrorsAll / shots : 0.0;
    }
    double lerKept() const
    {
        return kept ? (double)logicalErrorsKept / kept : 0.0;
    }
};

/**
 * Run a No-LRC memory experiment and post-select on the syndrome
 * history. The compiled program, detector model and decoder
 * (config.decoderKind) come from a MemoryExperiment built on `config`
 * with decoding forced on, so its preconditions apply
 * (validateExperimentConfig). The policy is fixed to No-LRC
 * (post-processing replaces, rather than complements, active removal
 * in the prior work): every LRC slot of the program stays empty.
 *
 * The study replays the program on the bit-packed batch engine in
 * word-groups of config.batchWidth lanes (up to 512 via the SIMD
 * multi-word planes): the suspicion scan operates word-parallel on
 * detection-event words (per-lane window counters touched only on set
 * bits) and the decode step goes through the BatchDecoder pipeline
 * (sparse syndromes, zero-defect fast path, dedup cache).
 */
PostSelectResult runPostSelectedExperiment(
    const RotatedSurfaceCode &code, const ExperimentConfig &config,
    const PostSelectOptions &options = {});

} // namespace qec

#endif // QEC_EXP_POSTSELECTION_H
