/**
 * @file
 * Converts a scalar shot's measurement record into decoder inputs: the
 * list of fired detectors (defects) and the true logical-observable
 * flip, by walking the lattice. The experiment paths extract batched
 * records through the program's detector map instead
 * (decoder/sparse_syndrome.h); this per-shot form is the reference the
 * tests hold that extractor to, lane by lane.
 */

#ifndef QEC_DECODER_DEFECTS_H
#define QEC_DECODER_DEFECTS_H

#include <vector>

#include "code/rotated_surface_code.h"
#include "code/types.h"
#include "frame_simulator.h"

namespace qec
{

/** Decoder-facing summary of one memory-experiment shot. */
struct ShotOutcome
{
    /** Fired detector ids in the protected basis (see DetectorModel
     *  for the id convention). */
    std::vector<int> defects;
    /** Whether the logical observable actually flipped (from the final
     *  transversal data measurement). */
    bool observableFlip = false;
};

/**
 * Extract defects from a full measurement record.
 *
 * @param code    Code lattice.
 * @param basis   Memory basis (decides which stabilizers are decoded).
 * @param rounds  Number of syndrome extraction rounds R.
 * @param record  All measurement records of the shot, including the
 *                final transversal data measurement.
 */
ShotOutcome extractDefects(const RotatedSurfaceCode &code, Basis basis,
                           int rounds,
                           const std::vector<MeasureRecord> &record);

} // namespace qec

#endif // QEC_DECODER_DEFECTS_H
