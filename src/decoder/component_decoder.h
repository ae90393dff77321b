/**
 * @file
 * Row geometry and exact hop-distance lower bounds of the detector
 * graph, for the batch pipeline's sliding-window stage.
 *
 * The window driver commits a decoded cluster early only when it can
 * prove the cluster farther from every unseen row and every deferred
 * defect than the decoder's growth bound. ComponentGraph supplies two
 * exact lower bounds on the hop distance between detectors (boundary
 * edges excluded):
 *  - the time axis: each hop moves at most maxRowSpan rows, so
 *    dist >= ceil(row gap / maxRowSpan);
 *  - the stab-quotient axis: the map detector -> stab index is a
 *    graph morphism onto the stab QUOTIENT graph (every
 *    detector-detector DEM edge projects to a quotient edge or a
 *    self-loop), so any detector path projects to a quotient walk of
 *    no greater length and dist(u, v) >= qdist(stab(u), stab(v))
 *    exactly. The quotient has only stabsPerRound vertices, so the
 *    full all-pairs qdist table is precomputed (a few KB,
 *    cache-resident).
 */

#ifndef QEC_DECODER_COMPONENT_DECODER_H
#define QEC_DECODER_COMPONENT_DECODER_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "decoder/detector_model.h"

namespace qec
{

/** No settable value; perfbench/src/replay.cpp:481 still copies
 *  `ExperimentConfig::componentDecode` into
 *  `BatchDecodeOptions::components`. Removed with ROADMAP item 1. */
struct ComponentDecodeOptions
{
};

/**
 * Immutable per-(DEM, p) companion of the decoders: the row geometry
 * and distance lower bounds the sliding-window stage reads. Stateless
 * after construction — share one instance across threads.
 */
class ComponentGraph
{
  public:
    /** @param p Physical error rate; edges with probability(p) <= 0
     *  are dropped, matching both decoders' graphs. */
    ComponentGraph(const DetectorModel &dem, double p);

    /** Detector rows (rounds + 1). */
    int rows() const { return rows_; }
    int rowOf(int det) const { return det / stabsPerRound_; }
    /** Max row distance spanned by any edge (>= 1). */
    int maxRowSpan() const { return maxRowSpan_; }

    /** quotientDistance value meaning "provably no connecting path"
     *  (the quotient graph is disconnected between the two stabs). */
    static constexpr int kQuotientFar = 1 << 20;

    /**
     * Exact shortest-path distance between two stab indices on the
     * stab quotient graph — a lower bound on the hop distance between
     * any two detectors with those stab indices (see the file-top
     * morphism argument). Returns 0 (no bound) when the table was too
     * large to precompute, kQuotientFar when provably disconnected.
     */
    int
    quotientDistance(int sa, int sb) const
    {
        if (qdist_.empty())
            return 0;
        const uint8_t q =
            qdist_[(size_t)sa * (size_t)stabsPerRound_ + (size_t)sb];
        return q == 0xff ? kQuotientFar : (int)q;
    }

    /**
     * Lower bound on the hop distance between defect `da` and defect
     * `db`: the max of the row-gap bound and the quotient distance.
     */
    int
    defectDistanceLowerBound(int da, int db) const
    {
        const int row_gap = std::abs(rowOf(da) - rowOf(db));
        const int row_lb =
            (row_gap + maxRowSpan_ - 1) / maxRowSpan_;
        return std::max(row_lb,
                        quotientDistance(da % stabsPerRound_,
                                         db % stabsPerRound_));
    }

  private:
    int stabsPerRound_ = 1;
    int rows_ = 0;
    int maxRowSpan_ = 1;
    /** All-pairs stab-quotient distances, row-major
     *  [stabsPerRound][stabsPerRound], 0xff = disconnected (empty
     *  when the table would be unreasonably large). */
    std::vector<uint8_t> qdist_;
};

} // namespace qec

#endif // QEC_DECODER_COMPONENT_DECODER_H
