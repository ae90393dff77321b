/**
 * @file
 * Minimum-weight perfect matching decoder over a DetectorModel.
 *
 * Decoding pipeline (the paper's "gold standard" MWPM, Section 2.2),
 * implemented as sparse blossom (Higgott & Gidney, arXiv:2303.15933):
 *  1. Graph and weights. Each decoding-graph edge weighs
 *     log((1-q)/q), discretized to an even integer so every event
 *     below falls on an integer time (matchingWeight, priced once per
 *     edge class by EdgePricer). Parallel edges keep the lighter
 *     one (equal weights: the one that does not flip the observable).
 *     The boundary is a match target that no path passes through.
 *  2. Region growth. Every defect starts a region of radius 0 that
 *     fills the graph node by node as its radius grows. One
 *     time-ordered event queue (RadixQueue) drives all regions: a
 *     region reaches an empty detector, touches another region, or
 *     touches the boundary; a shrinking region releases its latest
 *     detector or reaches radius 0. Node events belong to growing
 *     nodes only: a growing node times its collision with a frozen
 *     neighbour alone, and a collision of two growing nodes is also
 *     handed to the neighbour when it comes before the neighbour's
 *     queued event. A region that stops shrinking re-times its growing
 *     neighbours; a region that starts growing re-times its own
 *     nodes. Each reached detector remembers
 *     the source defect of the path that reached it and that path's
 *     observable parity, so a collision yields a compressed edge
 *     (two source defects + parity) along a tight, shortest path.
 *  3. Matching. Regions form alternating trees rooted at unmatched
 *     regions; outer regions grow, inner ones shrink, matched ones are
 *     frozen. Two trees touching (or a tree touching the boundary or
 *     a boundary-matched region) augment into matched pairs; a tree
 *     touching itself forms a blossom region around the odd cycle
 *     (only its formerly inner children are re-timed); a
 *     matched pair touched by a tree joins it; an inner blossom that
 *     shrinks to radius 0 shatters back into its cycle, and an inner
 *     defect region at radius 0 lets its tree neighbours meet through
 *     its source. Regions grow only until they match, and the event
 *     loop stops when the last alternating tree dissolves, so a
 *     decode touches the neighbourhood of its defects, not the whole
 *     graph.
 *  4. Output. Blossoms are expanded into defect pairs and boundary
 *     matches; the predicted observable flip is the XOR of their
 *     compressed edges' parities.
 * The result is an exact minimum-weight matching under the integer
 * weights (tests/mwpm_oracle.h checks it against full-graph Dijkstra
 * plus a general blossom solve).
 *
 * Adjacency is a flat CSR layout and all per-shot state lives in the
 * caller's DecodeWorkspace (epoch-stamped, nothing cleared between
 * shots; the cover state a neighbour scan reads sits in its own 8-byte
 * per-detector array), so steady-state decode allocates nothing.
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

/** Decoder construction options (none at present; kept so callers
 *  and sweep caches can pass a configuration through unchanged). */
struct DecoderOptions
{
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

    int numDetectors() const { return numDets_; }

    /** Total decoding-graph edges (diagnostics/tests). */
    size_t
    numGraphEdges() const
    {
        return numEdges_;
    }

    /** One adjacency slot: neighbour, integer weight, observable. */
    struct Nbr
    {
        int to;
        int32_t w;
        uint8_t obs;
    };

    /** A detector's adjacency row, in CSR order (read-only). */
    struct Row
    {
        const Nbr *first;
        const Nbr *last;
        const Nbr *begin() const { return first; }
        const Nbr *end() const { return last; }
    };

    /** Detector d's neighbours after parallel edges are folded. */
    Row
    row(int d) const
    {
        return {nbrs_.data() + nbrOffsets_[(size_t)d],
                nbrs_.data() + nbrOffsets_[(size_t)d + 1]};
    }

    /** No boundary edge at a detector. */
    static constexpr int32_t kNoBoundary = INT32_MAX;

    /** Weight of detector d's boundary edge (kNoBoundary if none). */
    int32_t boundaryWeight(int d) const { return boundaryW_[(size_t)d]; }
    /** Observable flip of detector d's boundary edge. */
    uint8_t boundaryObs(int d) const { return boundaryObs_[(size_t)d]; }

  private:
    struct SparseBlossom;

    int numDets_ = 0;
    size_t numEdges_ = 0;
    /** CSR adjacency: neighbours of detector d live at
     *  nbrs_[nbrOffsets_[d] .. nbrOffsets_[d + 1]). */
    std::vector<int> nbrOffsets_;
    std::vector<Nbr> nbrs_;
    /** Lightest boundary edge per detector (kNoBoundary if none). */
    std::vector<int32_t> boundaryW_;
    std::vector<uint8_t> boundaryObs_;
};

} // namespace qec

#endif // QEC_DECODER_MWPM_DECODER_H
