/**
 * @file
 * Exact maximum-weight matching on general graphs (Galil's O(n^3)
 * blossom algorithm, following Van Rantwijk's well-known formulation).
 *
 * The MWPM decoder solves each component of its candidate graph as a
 * maximum-weight (not maximum-cardinality) matching on the component's
 * defects, with edge weight = the saving of pairing two defects over
 * sending both to the boundary; an unmatched defect goes to the
 * boundary. minWeightPerfectMatching (the doubled boundary-twin
 * construction) stays as the tests' exact oracle. Weights are
 * integers; callers scale doubles before building the instance. The
 * implementation is validated against brute force in the test suite.
 */

#ifndef QEC_DECODER_MATCHING_H
#define QEC_DECODER_MATCHING_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qec
{

/** One undirected weighted edge of a matching instance. */
struct MatchEdge
{
    int u = 0;
    int v = 0;
    int64_t weight = 0;
};

/**
 * Persistent blossom-solver scratch: every vector the matcher needs,
 * reusable across solves so steady-state matching performs no heap
 * allocation (sized lazily to the largest instance seen). One
 * instance per thread; DecodeWorkspace embeds one so the MWPM decode
 * hot path no longer rebuilds the solver per call.
 */
struct MatcherScratch
{
    std::vector<std::vector<int>> neighbend;
    std::vector<std::vector<int>> blossomchilds;
    std::vector<std::vector<int>> blossomendps;
    std::vector<std::vector<int>> blossombestedges;
    std::vector<int> mate;
    std::vector<int> label;
    std::vector<int> labelend;
    std::vector<int> inblossom;
    std::vector<int> blossomparent;
    std::vector<int> blossombase;
    std::vector<int> bestedge;
    std::vector<int> unusedblossoms;
    std::vector<int64_t> dualvar;
    std::vector<uint8_t> allowedge;
    std::vector<int> queue;
    std::vector<int> leafStack;
    std::vector<int> pathBuf;
    std::vector<int> endpsBuf;
    std::vector<int> bestEdgeToBuf;
    /** Per-recursion-depth child-list buffers for expandBlossom (it
     *  mutates the child list while iterating, so each level needs a
     *  stable copy; pooling the copies keeps them allocation-free). */
    std::vector<std::vector<int>> expandPool;

    /** Total bytes owned (tests pin that this stops growing once
     *  decoding reaches steady state). */
    size_t footprintBytes() const;
};

/**
 * Compute a maximum-weight matching.
 *
 * @param num_vertices   Vertex count; vertices are 0..num_vertices-1.
 * @param edges          Undirected edges (no self loops).
 * @param max_cardinality When true, only maximum-cardinality matchings
 *                        are considered (needed for perfect matching).
 * @return partner[v] = matched vertex, or -1 if v is unmatched.
 */
std::vector<int> maxWeightMatching(int num_vertices,
                                   const std::vector<MatchEdge> &edges,
                                   bool max_cardinality);

/**
 * In-place variant for hot loops: writes the matching into `partner`
 * (reusing its storage) and solves in the caller's persistent scratch,
 * so after warmup on same-shaped instances it performs no heap
 * allocation. Same result as the value-returning overload.
 */
void maxWeightMatching(int num_vertices,
                       const std::vector<MatchEdge> &edges,
                       bool max_cardinality, std::vector<int> &partner,
                       MatcherScratch &scratch);

/**
 * Minimum-weight perfect matching helper: negates weights around the
 * maximum edge weight and runs max-cardinality matching. All vertices
 * must be matchable (e.g. through virtual boundary twins).
 */
std::vector<int> minWeightPerfectMatching(
    int num_vertices, const std::vector<MatchEdge> &edges);

} // namespace qec

#endif // QEC_DECODER_MATCHING_H
