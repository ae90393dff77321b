/**
 * @file
 * Word-level Bernoulli sampling primitives.
 *
 * The batch frame simulator asks, for every noisy circuit location,
 * "which of my packed shots suffer this error?" — a lane mask whose
 * bit l is 1 with probability p, independently per lane. Drawing one
 * scalar Bernoulli trial per lane would erase the advantage of
 * bit-packing, so two strategies are used, picked by probability:
 *
 *  - Rare events (p below kRareThreshold): geometric gap skipping over
 *    a persistent virtual trial stream, the technique Stim's bulk
 *    samplers use. The cost is proportional to the number of *hits*,
 *    so at p = 1e-3 a whole round of sites costs about one RNG draw
 *    per hit.
 *  - Dense events: a bitwise comparison U < p evaluated lane-parallel
 *    by streaming the binary expansion of p against uniform words. The
 *    still-equal lane set halves each step, so ~8 words resolve all 64
 *    lanes exactly (to double precision).
 *
 * These free functions are the ONE definition of each
 * RNG-stream-critical algorithm; the engine's cross-width bit-identity
 * depends on every consumer drawing the same sequence.
 */

#ifndef QEC_SIM_BIT_MASK_SAMPLER_H
#define QEC_SIM_BIT_MASK_SAMPLER_H

#include <cstdint>

#include "base/rng.h"

namespace qec
{

/** Probability below which the geometric skip path is used. */
constexpr double kRareThreshold = 0.02;

/** Geometric gap (failures before the next success) of a Bernoulli
 *  stream with cached log(1-p); consumes one word of `rng`. */
uint64_t bernoulliGeometricGap(Rng &rng, double log1mp);

/**
 * Advance a rare Bernoulli stream over the next `trials` virtual
 * trials, calling hit(i) for every success at trial index i (0-based
 * within this advance, ascending). `skip` carries the failures left
 * before the next success across calls, so advancing n1 then n2
 * trials hits exactly where one advance of n1 + n2 would.
 */
template <class Hit>
inline void
bernoulliRareHits(Rng &rng, double log1mp, uint64_t &skip,
                  uint64_t trials, Hit &&hit)
{
    uint64_t pos = skip;
    while (pos < trials) {
        hit(pos);
        pos += 1 + bernoulliGeometricGap(rng, log1mp);
    }
    skip = pos - trials;
}

/** Dense-path mask over the low `nlanes` lanes: lane-parallel digit
 *  comparison U < p (higher bits are zero). */
uint64_t bernoulliDenseMask(Rng &rng, double p, int nlanes);

} // namespace qec

#endif // QEC_SIM_BIT_MASK_SAMPLER_H
