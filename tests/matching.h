/**
 * @file
 * Exact maximum-weight matching on general graphs (Galil's O(n^3)
 * blossom algorithm, following Van Rantwijk's well-known formulation).
 *
 * Test support, linked into every test binary and not part of the
 * library: the MWPM decoder does not call it (it runs its own sparse
 * blossom on the detector graph); the tests use it as the exact solver
 * of their full-graph oracle, where a maximum-weight (not maximum-cardinality)
 * matching of the savings b_i + b_j - d_ij decides which defects pair
 * up and the rest go to the boundary. minWeightPerfectMatching (the
 * doubled boundary-twin construction) is the textbook form of the same
 * problem. Weights are integers; callers scale doubles before building
 * the instance. The implementation is validated against brute force in
 * the test suite.
 */

#ifndef QEC_TESTS_MATCHING_H
#define QEC_TESTS_MATCHING_H

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
 * Minimum-weight perfect matching helper: negates weights around the
 * maximum edge weight and runs max-cardinality matching. All vertices
 * must be matchable (e.g. through virtual boundary twins).
 */
std::vector<int> minWeightPerfectMatching(
    int num_vertices, const std::vector<MatchEdge> &edges);

} // namespace qec

#endif // QEC_TESTS_MATCHING_H
