/**
 * @file
 * Minimum-weight perfect matching decoder over a DetectorModel.
 *
 * Decoding pipeline (the paper's "gold standard" MWPM, Section 2.2):
 *  1. Region growth: one multi-source Dijkstra grows shortest-path
 *     regions around all fired detectors simultaneously over the
 *     weighted decoding graph (weight = log((1-q)/q) per edge),
 *     tracking the logical observable parity along shortest paths.
 *     Its queue is a radix heap over the distances' bit patterns that
 *     pops in exactly ascending (distance, detector id) order, and
 *     every touched detector settles at most once per shot. Where two
 *     regions meet, the meeting edge yields a defect-pair candidate —
 *     at the exact shortest inter-defect distance whenever the
 *     shortest path stays inside the two regions; pairs separated by
 *     a third defect's region are represented through that defect's
 *     candidates instead (the local-matching approximation).
 *     Candidates are deduplicated as they are found (minimum weight
 *     per pair). The defect-to-boundary route is NOT searched per
 *     shot: the exact shortest boundary distance (and its observable
 *     parity) is precomputed for every detector id at construction
 *     with one multi-source Dijkstra from the boundary.
 *  2. Pruning: a candidate that cannot beat pairing both endpoints
 *     with the boundary is dropped, and each region stops growing at
 *     its boundary distance plus the shot's largest boundary distance
 *     — beyond that every pair is boundary-dominated.
 *  3. Exact blossom matching per connected component of the candidate
 *     graph (cross-component pairings are boundary-dominated, so the
 *     O(n^3) solver runs on many small instances — the sparse-blossom
 *     trick). A k-defect component is solved as a maximum-weight
 *     matching on its k defects, weighting each candidate pair by its
 *     saving b_i + b_j - w_ij over sending both defects to the
 *     boundary; unmatched defects go to the boundary. This has the
 *     same minimum total weight as the textbook minimum-weight perfect
 *     matching on k defects plus k boundary twins, at half the
 *     vertices. The predicted observable flip is the parity of
 *     matched-path observable crossings.
 *
 * Adjacency is a flat CSR layout and all per-shot scratch lives in the
 * caller's DecodeWorkspace (epoch-stamped, nothing cleared between
 * shots); steady-state allocations are confined to the blossom
 * solver's internals.
 */

#ifndef QEC_DECODER_MWPM_DECODER_H
#define QEC_DECODER_MWPM_DECODER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "decoder/decoder_base.h"
#include "decoder/detector_model.h"

namespace qec
{

/** Tuning knobs for the decoder. */
struct DecoderOptions
{
    /** Defect-neighbour candidates kept per defect. */
    int neighborLimit = 12;
};

/**
 * MWPM decoder bound to one DetectorModel and physical error rate.
 * decode() is thread-safe (throwaway workspace); hot loops should use
 * decodeSparse with one DecodeWorkspace per thread.
 */
class MwpmDecoder : public Decoder
{
  public:
    MwpmDecoder(const DetectorModel &dem, double p,
                DecoderOptions options = {});

    bool decodeSparse(const int *defects, size_t count,
                      DecodeWorkspace &workspace) const override;

    /**
     * Shot-level slack for component composition: the Dijkstra
     * pruning radius is each defect's boundary distance plus the
     * shot's largest boundary distance, so a component decoded alone
     * certifies only its own radius (lastReachHops) and composing it
     * inside a larger shot can extend the reach by at most the shot's
     * largest boundary distance, converted to hops via the minimum
     * detector-detector edge weight.
     */
    int componentSlackHops(const int *defects,
                           size_t count) const override;

    int numDetectors() const { return numDets_; }

    /** Total decoding-graph edges (diagnostics/tests). */
    size_t
    numGraphEdges() const
    {
        return numEdges_;
    }

    /** Cached exact shortest distance from a detector to the boundary
     *  (+inf when the boundary is unreachable). */
    double
    boundaryDistance(int det) const
    {
        return boundaryDist_[det];
    }

  private:
    struct Nbr
    {
        int to;
        float w;
        uint8_t obs;
    };

    int numDets_ = 0;
    size_t numEdges_ = 0;
    DecoderOptions options_;
    /** Minimum detector-detector edge weight: converts weight radii
     *  into hop bounds for the reach certificates (+inf if the graph
     *  has no detector-detector edges, i.e. regions never grow). */
    double minEdgeW_ = 0.0;
    /** CSR adjacency: neighbours of detector d live at
     *  nbrs_[nbrOffsets_[d] .. nbrOffsets_[d + 1]). */
    std::vector<int> nbrOffsets_;
    std::vector<Nbr> nbrs_;
    /** Best direct boundary edge per detector (+inf if none). */
    std::vector<float> boundaryW_;
    std::vector<uint8_t> boundaryObs_;
    /** Persistent defect-to-boundary cache keyed by detector id:
     *  exact shortest boundary distance and its observable parity. */
    std::vector<double> boundaryDist_;
    std::vector<uint8_t> boundaryPathObs_;
};

} // namespace qec

#endif // QEC_DECODER_MWPM_DECODER_H
