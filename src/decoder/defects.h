/**
 * @file
 * Converts a shot's measurement record into decoder inputs: the list
 * of fired detectors (defects) and the true logical-observable flip.
 * Shared by the experiment runner and the DEM tests so both sides use
 * the same detector convention.
 */

#ifndef QEC_DECODER_DEFECTS_H
#define QEC_DECODER_DEFECTS_H

#include <vector>

#include "code/rotated_surface_code.h"
#include "code/types.h"
#include "sim/batch_frame_simulator.h"
#include "sim/frame_simulator.h"

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

/**
 * Extract every lane's defects from a batched measurement record in
 * one pass: flips are accumulated as words (64 lanes per XOR) and only
 * the final defect lists are materialized per lane.
 *
 * @param num_lanes Live lanes in the record's word-group; one
 *                  ShotOutcome is returned per lane, in lane order.
 */
std::vector<ShotOutcome>
extractDefectsBatched(const RotatedSurfaceCode &code, Basis basis,
                      int rounds,
                      const std::vector<BatchMeasureRecord> &record,
                      int num_lanes);

} // namespace qec

#endif // QEC_DECODER_DEFECTS_H
