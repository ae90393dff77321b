/**
 * @file
 * Exact minimum-weight matching oracle for MWPM decoder tests.
 *
 * Independent of any decoder internals: the decoding graph is rebuilt
 * from the DetectorModel with the MWPM decoder's integer edge weights
 * (matchingWeight), every defect runs a Dijkstra over that
 * graph (the boundary is a target node that no path passes through),
 * and the general blossom solver picks
 * the maximum total saving b_i + b_j - d_ij over sending both defects
 * to the boundary. The minimum correction cost is then
 * sum_i b_i - (best saving). Each search keeps one distance per
 * observable parity, so every pair and boundary route knows which
 * parities its shortest paths can carry. A decoder is judged by the
 * cost of the correction it records, each edge priced at the
 * shortest route with that edge's parity, not by agreement with
 * another decoder: a correction at the minimum cost is a minimum
 * matching whose every edge parity lies on a shortest path, so any
 * verdict that differs from the oracle's is an equal-cost tie.
 *
 * Also samples shots straight from the DEM edges (each edge fires
 * independently with its probability at a chosen p), which yields the
 * true observable flip alongside the defects.
 */

#ifndef QEC_TESTS_MWPM_ORACLE_H
#define QEC_TESTS_MWPM_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "decoder/decode_workspace.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "defects.h"
#include "frame_simulator.h"
#include "matching.h"
#include "memory_circuit.h"

namespace qec
{
namespace oracle
{

/** Cost standing in for "no boundary route" (finite, so savings stay
 *  representable). */
constexpr int64_t kUnreachable = (int64_t)1 << 40;

/** Outcome of one exact solve. */
struct Solution
{
    int64_t cost = 0;       ///< Minimum total correction weight.
    bool verdict = false;   ///< Observable parity of that matching.
};

/** Full decoding graph of one DetectorModel at error rate p. */
class MwpmOracle
{
  public:
    MwpmOracle(const DetectorModel &dem, double p)
        : n_(dem.numDetectors()), adj_((size_t)dem.numDetectors())
    {
        for (const DemEdge &e : dem.edges) {
            const double q = e.probability(p);
            if (q <= 0.0)
                continue;
            const Arc arc{e.b, matchingWeight(q),
                          (uint8_t)(e.obsFlip ? 1 : 0)};
            adj_[(size_t)e.a].push_back(arc);
            if (e.b != kBoundary)
                adj_[(size_t)e.b].push_back({e.a, arc.w, arc.obs});
        }
        // Every detector's boundary distance: one search seeded from
        // the boundary arcs.
        boundary_.assign((size_t)n_, kUnreachable);
        using Item = std::pair<int64_t, int>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        for (int v = 0; v < n_; ++v)
            for (const Arc &a : adj_[(size_t)v])
                if (a.to == kBoundary && a.w < boundary_[(size_t)v]) {
                    boundary_[(size_t)v] = a.w;
                    pq.push({a.w, v});
                }
        while (!pq.empty()) {
            const auto [d, u] = pq.top();
            pq.pop();
            if (d > boundary_[(size_t)u])
                continue;
            for (const Arc &a : adj_[(size_t)u])
                if (a.to != kBoundary &&
                    d + a.w < boundary_[(size_t)a.to]) {
                    boundary_[(size_t)a.to] = d + a.w;
                    pq.push({d + a.w, a.to});
                }
        }
    }

    /**
     * Exact minimum-weight correction of `defects`. Also fills the
     * pairwise distance table that cost() reads.
     */
    Solution
    solve(const std::vector<int> &defects)
    {
        const int k = (int)defects.size();
        index_.assign((size_t)n_, -1);
        for (int i = 0; i < k; ++i)
            index_[(size_t)defects[i]] = i;
        bdist_.assign((size_t)k * 2, kUnreachable);
        pdist_.assign((size_t)k * k * 2, kUnreachable);
        // b_i comes out of each defect's own search; a pair is only
        // worth matching when d_ij < b_i + b_j, so each search stops
        // at b_i plus the largest boundary distance of the shot.
        int64_t bmax = 0;
        for (int i = 0; i < k; ++i)
            bmax = std::max(bmax, boundary_[(size_t)defects[i]]);
        for (int i = 0; i < k; ++i)
            dijkstra(i, defects[i], k,
                     boundary_[(size_t)defects[i]] + bmax);

        std::vector<MatchEdge> edges;
        for (int i = 0; i < k; ++i)
            for (int j = i + 1; j < k; ++j) {
                const int64_t saving =
                    shortest(boundary(i)) + shortest(boundary(j)) -
                    shortest(pair(i, j));
                if (saving > 0)
                    edges.push_back({i, j, saving});
            }
        const std::vector<int> partner =
            maxWeightMatching(k, edges, false);
        // Where both parities are shortest, the oracle reports the
        // unflipped one.
        Solution out;
        for (int i = 0; i < k; ++i) {
            const int m = partner[(size_t)i];
            if (m < 0 || m > i) {
                const int64_t *d = m < 0 ? boundary(i) : pair(i, m);
                out.cost += shortest(d);
                out.verdict ^= d[0] > d[1];
            }
        }
        return out;
    }

    /**
     * Cost of a decoder's recorded correction after the last solve():
     * each edge is priced at the shortest route between its ends (or
     * to the boundary) whose observable parity is the edge's `obs`.
     * -1 when it is not a cover of every defect exactly once.
     */
    int64_t
    cost(const std::vector<DecodeWorkspace::CorrectionEdge> &corr) const
    {
        const size_t k = bdist_.size() / 2;
        std::vector<int> covered(k, 0);
        int64_t total = 0;
        for (const auto &c : corr) {
            const int i = c.a >= 0 ? index_[(size_t)c.a] : -1;
            const int j = c.b >= 0 ? index_[(size_t)c.b] : -1;
            if (i < 0 || (c.b >= 0 && j < 0))
                return -1;
            ++covered[(size_t)i];
            if (j >= 0)
                ++covered[(size_t)j];
            total += (j < 0 ? boundary(i) : pair(i, j))[c.obs ? 1 : 0];
        }
        for (int c : covered)
            if (c != 1)
                return -1;
        return total;
    }

  private:
    struct Arc
    {
        int to;   ///< Detector id or kBoundary.
        int64_t w;
        uint8_t obs;
    };

    /** Distances {unflipped, flipped} from defect i to defect j. */
    const int64_t *
    pair(int i, int j) const
    {
        const size_t k = bdist_.size() / 2;
        return &pdist_[((size_t)i * k + (size_t)j) * 2];
    }

    /** Distances {unflipped, flipped} from defect i to the boundary. */
    const int64_t *
    boundary(int i) const
    {
        return &bdist_[(size_t)i * 2];
    }

    static int64_t
    shortest(const int64_t *d)
    {
        return std::min(d[0], d[1]);
    }

    /** Dijkstra over (detector, observable parity) states from
     *  defect i, up to `radius`. */
    void
    dijkstra(int i, int src, int k, int64_t radius)
    {
        dist_.assign((size_t)n_ * 2,
                     std::numeric_limits<int64_t>::max());
        using Item = std::pair<int64_t, int>;  // (distance, 2v + parity)
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        dist_[(size_t)src * 2] = 0;
        pq.push({0, src * 2});
        while (!pq.empty()) {
            const auto [d, state] = pq.top();
            pq.pop();
            if (d > dist_[(size_t)state])
                continue;
            if (d > radius)
                break;
            const int u = state >> 1;
            const int parity = state & 1;
            const int j = index_[(size_t)u];
            if (j >= 0 && j != i)
                pdist_[((size_t)i * k + j) * 2 + parity] = d;
            for (const Arc &a : adj_[(size_t)u]) {
                const int64_t nd = d + a.w;
                const int np = parity ^ a.obs;
                if (a.to == kBoundary) {
                    int64_t &bd = bdist_[(size_t)i * 2 + np];
                    bd = std::min(bd, nd);
                    continue;
                }
                int64_t &dv = dist_[(size_t)a.to * 2 + np];
                if (nd < dv) {
                    dv = nd;
                    pq.push({nd, a.to * 2 + np});
                }
            }
        }
    }

    int n_;
    std::vector<std::vector<Arc>> adj_;
    std::vector<int> index_;       ///< Detector id -> defect index.
    std::vector<int64_t> bdist_;   ///< Defect x parity -> boundary.
    std::vector<int64_t> pdist_;   ///< k x k defect pairs x parity.
    std::vector<int64_t> boundary_;  ///< Detector -> boundary distance.
    std::vector<int64_t> dist_;    ///< Dijkstra scratch, per state.
};

/** One shot sampled from the DEM: fired detectors (ascending) and the
 *  true observable flip. */
struct DemShot
{
    std::vector<int> defects;
    bool flip = false;
};

/** Fire every DEM edge independently with its probability at `p`. */
inline DemShot
sampleFromDem(const DetectorModel &dem, double p, Rng &rng)
{
    std::vector<uint8_t> fired((size_t)dem.numDetectors(), 0);
    DemShot shot;
    for (const DemEdge &e : dem.edges) {
        if (!rng.bernoulli(e.probability(p)))
            continue;
        fired[(size_t)e.a] ^= 1;
        if (e.b != kBoundary)
            fired[(size_t)e.b] ^= 1;
        shot.flip ^= e.obsFlip;
    }
    for (int d = 0; d < dem.numDetectors(); ++d)
        if (fired[(size_t)d])
            shot.defects.push_back(d);
    return shot;
}

/** One corpus configuration: surface memory at distance d. */
struct CorpusConfig
{
    int d;
    Basis basis;
    int rounds;
    double p;
};

/** Surface d in {3,5,7} x {Z,X} x rounds {3d,10d} x p in {1e-3,4e-3}. */
inline std::vector<CorpusConfig>
mwpmCorpus()
{
    std::vector<CorpusConfig> corpus;
    for (int d : {3, 5, 7})
        for (Basis basis : {Basis::Z, Basis::X})
            for (int rounds : {3 * d, 10 * d})
                for (double p : {1e-3, 4e-3})
                    corpus.push_back({d, basis, rounds, p});
    return corpus;
}

/** Shots per corpus configuration. */
constexpr int kCorpusShots = 24;

/**
 * Leakage-heavy defect sets: the plain memory circuit has no leakage
 * reduction, and the leak rate is raised to p per injection site, so
 * leaked qubits randomize their stabilizers for many rounds and the
 * long, high-p configurations produce bursts of 64+ defects.
 */
inline std::vector<std::vector<int>>
sampleLeakyDefectSets(const CorpusConfig &cfg, int count)
{
    RotatedSurfaceCode code(cfg.d);
    Circuit circuit = buildMemoryCircuit(code, cfg.rounds, cfg.basis);
    ErrorModel em = ErrorModel::standard(cfg.p);
    em.leakFraction = 1.0;
    FrameSimulator sim(code.numQubits(), em,
                       Rng(1000 * (uint64_t)cfg.d + cfg.rounds));
    std::vector<std::vector<int>> shots;
    for (int i = 0; i < count; ++i) {
        sim.run(circuit);
        shots.push_back(extractDefects(code, cfg.basis, cfg.rounds,
                                       sim.record())
                            .defects);
    }
    return shots;
}

} // namespace oracle
} // namespace qec

#endif // QEC_TESTS_MWPM_ORACLE_H
