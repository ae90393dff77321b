/**
 * @file
 * Union-Find decoder (Delfosse-Nickerson, "almost-linear time
 * decoding") over the same detector graph as the MWPM decoder.
 *
 * Clusters grow outward from fired detectors one edge-layer at a time
 * until every cluster holds an even number of defects or touches the
 * spatial boundary; a spanning-forest peeling pass then selects the
 * correction edges. Faster but slightly less accurate than MWPM —
 * included as the comparison point the paper alludes to ("any other
 * decoder may be used as well", Section 5.3).
 *
 * The decoding graph is stored as a flat CSR adjacency (one offsets
 * array plus one incident-edge-id array, built once at construction),
 * and all mutable per-shot state lives in an epoch-versioned
 * DecodeWorkspace: decodeSparse() performs zero heap allocations in
 * steady state and touches only the vertices reachable from the fired
 * detectors, so per-shot cost is proportional to the defect count
 * rather than the lattice size.
 */

#ifndef QEC_DECODER_UNION_FIND_DECODER_H
#define QEC_DECODER_UNION_FIND_DECODER_H

#include <cstdint>
#include <vector>

#include "decoder/decoder_base.h"
#include "decoder/detector_model.h"

namespace qec
{

class UnionFindDecoder : public Decoder
{
  public:
    /**
     * Build from a detector model. @param p Physical error rate used
     * only to drop zero-probability edges (parity with MwpmDecoder).
     */
    UnionFindDecoder(const DetectorModel &dem, double p);

    bool decodeSparse(const int *defects, size_t count,
                      DecodeWorkspace &workspace) const override;

    /**
     * Growth bound for streaming commits: every decode's touched
     * region stays within this many hops of its clusters' defects,
     * for any defect set — a cluster is permanently neutralized by
     * the time its grown ball reaches the boundary vertex, so the
     * graph's max distance-to-boundary (computed once at
     * construction) bounds every cluster's radius.
     */
    int
    windowCommitBound() const override
    {
        return commitBound_;
    }

    int numDetectors() const { return numDets_; }
    /** Total decoding-graph edges (diagnostics/tests). */
    size_t numGraphEdges() const { return edges_.size(); }

    struct Edge
    {
        int u;
        int v;          ///< May be the virtual boundary vertex.
        uint8_t obs;
    };

    /** The decoding graph's edges in id order (read-only); the
     *  boundary vertex is numDetectors(). */
    const std::vector<Edge> &graphEdges() const { return edges_; }

  private:
    /** Packed CSR adjacency slot: the far endpoint plus the edge id
     *  and observable-flip bit in one word ((id << 1) | obs), so the
     *  growth scan resolves an edge with a single 8-byte load instead
     *  of chasing an edge-id indirection into the edge table. */
    struct Adj
    {
        int other;
        int eo;
    };

    int numDets_ = 0;
    int boundaryVertex_ = 0;   ///< Single virtual boundary vertex id.
    int commitBound_ = 0;      ///< Max hops to boundary (-1: none).
    std::vector<Edge> edges_;
    /** CSR adjacency: incident slots of vertex v live at
     *  csrAdj_[csrOffsets_[v] .. csrOffsets_[v + 1]). */
    std::vector<int> csrOffsets_;
    std::vector<Adj> csrAdj_;
};

} // namespace qec

#endif // QEC_DECODER_UNION_FIND_DECODER_H
