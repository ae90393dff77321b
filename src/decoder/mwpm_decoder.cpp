#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "base/logging.h"
#include "decoder/matching.h"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
/** Weight clamp so scaled integer weights never overflow. */
constexpr double kMaxWeight = 1.0e6;
/** Fixed-point scale for blossom weights. */
constexpr double kWeightScale = 1024.0;

double
edgeWeight(double q)
{
    q = std::min(std::max(q, 1.0e-12), 0.499999);
    return std::log((1.0 - q) / q);
}

int64_t
scaled(double w)
{
    w = std::min(w, kMaxWeight);
    return (int64_t)std::llround(w * kWeightScale);
}

} // namespace

MwpmDecoder::MwpmDecoder(const DetectorModel &dem, double p,
                         DecoderOptions options)
    : numDets_(dem.numDetectors()), options_(options),
      boundaryW_(dem.numDetectors(), kInf),
      boundaryObs_(dem.numDetectors(), 0)
{
    // Pass 1: boundary edges + per-detector degrees.
    std::vector<int> degree(numDets_, 0);
    for (const auto &edge : dem.edges) {
        const double q = edge.probability(p);
        if (q <= 0.0)
            continue;
        if (edge.b == kBoundary) {
            const float w = (float)edgeWeight(q);
            if (w < boundaryW_[edge.a]) {
                boundaryW_[edge.a] = w;
                boundaryObs_[edge.a] = edge.obsFlip ? 1 : 0;
            }
            continue;
        }
        ++degree[edge.a];
        ++degree[edge.b];
        ++numEdges_;
    }

    // Pass 2: flat CSR adjacency (counting sort keeps edge order).
    minEdgeW_ = (double)kInf;
    nbrOffsets_.assign((size_t)numDets_ + 1, 0);
    for (int d = 0; d < numDets_; ++d)
        nbrOffsets_[(size_t)d + 1] = nbrOffsets_[d] + degree[d];
    nbrs_.resize(2 * numEdges_);
    std::vector<int> cursor(nbrOffsets_.begin(), nbrOffsets_.end() - 1);
    for (const auto &edge : dem.edges) {
        const double q = edge.probability(p);
        if (q <= 0.0 || edge.b == kBoundary)
            continue;
        const float w = (float)edgeWeight(q);
        const uint8_t obs = edge.obsFlip ? 1 : 0;
        nbrs_[(size_t)cursor[edge.a]++] = {edge.b, w, obs};
        nbrs_[(size_t)cursor[edge.b]++] = {edge.a, w, obs};
        minEdgeW_ = std::min(minEdgeW_, (double)w);
    }

    // Persistent defect-to-boundary distance cache: one multi-source
    // Dijkstra seeded from every detector's direct boundary edge gives
    // the exact shortest boundary route (and its observable parity)
    // for every detector id. Per-shot decodes then never search for a
    // boundary route again.
    boundaryDist_.assign(numDets_, (double)kInf);
    boundaryPathObs_.assign(numDets_, 0);
    using QItem = std::pair<double, int>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
    for (int d = 0; d < numDets_; ++d) {
        if (boundaryW_[d] < kInf) {
            boundaryDist_[d] = boundaryW_[d];
            boundaryPathObs_[d] = boundaryObs_[d];
            pq.push({boundaryDist_[d], d});
        }
    }
    while (!pq.empty()) {
        auto [dist, u] = pq.top();
        pq.pop();
        if (dist > boundaryDist_[u])
            continue;
        const int row_end = nbrOffsets_[(size_t)u + 1];
        for (int k = nbrOffsets_[u]; k < row_end; ++k) {
            const Nbr &nbr = nbrs_[k];
            const double nd = dist + nbr.w;
            if (nd < boundaryDist_[nbr.to]) {
                boundaryDist_[nbr.to] = nd;
                boundaryPathObs_[nbr.to] =
                    boundaryPathObs_[u] ^ nbr.obs;
                pq.push({nd, nbr.to});
            }
        }
    }
}

int
MwpmDecoder::componentSlackHops(const int *defects, size_t count) const
{
    if (count == 0)
        return 0;
    if (!(minEdgeW_ > 0.0) || minEdgeW_ >= kMaxWeight)
        return 0;   // no detector-detector edges: regions never grow
    double bmax = 0.0;
    for (size_t i = 0; i < count; ++i)
        bmax = std::max(bmax,
                        std::min(boundaryDist_[defects[i]], kMaxWeight));
    return (int)std::ceil(bmax / minEdgeW_);
}

bool
MwpmDecoder::decodeSparse(const int *defects, size_t count,
                          DecodeWorkspace &ws) const
{
    const int n = (int)count;
    ws.lastReachHops = 0;
    if (n == 0)
        return false;

    ws.ensureMwpm((size_t)numDets_);
    const uint64_t call = ++ws.epoch;

    if ((int)ws.mwBDist.size() < n) {
        ws.mwBDist.resize(n);
        ws.mwBObs.resize(n);
        ws.mwLocalIndex.resize(n);
        ws.mwCompParent.resize(n);
        ws.mwCandHead.resize(n);
    }
    ws.mwCands.clear();

    // Largest boundary distance among this shot's defects: a defect
    // pair whose connecting path is longer than both boundary routes
    // combined is never matched (pairing each with the boundary is at
    // most as expensive), so no Dijkstra needs to search beyond its
    // own boundary distance plus this maximum.
    double bmax_shot = 0.0;
    for (int i = 0; i < n; ++i) {
        bmax_shot = std::max(
            bmax_shot, std::min(boundaryDist_[defects[i]],
                                kMaxWeight));
    }

    // Reach certificate: every settle obeys nd <= bdist_i + bmax_shot.
    // The certificate stores ceil(bmax_shot / minEdgeW_) + 1 (the +1
    // covers the meeting edge a candidate probe crosses past a settled
    // frontier); the bdist_i term — bounded by the enclosing shot's
    // bmax — is supplied separately by componentSlackHops, so the
    // composition guard's cert + slack sum bounds the true radius
    // both when the component is decoded alone and when it would be
    // decoded inside the full shot.
    ws.lastReachHops =
        (minEdgeW_ > 0.0 && minEdgeW_ < kMaxWeight)
            ? (int)std::ceil(bmax_shot / minEdgeW_) + 1
            : 0;

    for (int i = 0; i < n; ++i) {
        ws.mwBDist[i] =
            std::min(boundaryDist_[defects[i]], kMaxWeight);
        ws.mwBObs[i] = boundaryPathObs_[defects[i]];
    }

    // Stage 1: one multi-source Dijkstra grows a shortest-path region
    // around every defect simultaneously; where two regions meet, the
    // meeting edge yields a candidate pair. When the shortest i-j
    // path stays inside the two regions (the overwhelmingly common
    // case) the candidate weight is the exact shortest distance; a
    // pair whose shortest path crosses a third defect's region is
    // instead represented through that defect's candidates (the
    // local-matching approximation production decoders use). Every
    // touched node settles at most once per shot (instead of once per
    // nearby defect), so the loop is bounded by numDetectors(), and
    // only adjacent-region pairs become candidates, which keeps the
    // matching components small. Growth past a region's boundary
    // distance plus the shot's largest boundary distance is pruned:
    // any pair found there is boundary-dominated. The monotone queue
    // pops in exactly ascending (distance, detector id) order.
    DecodeWorkspace::MwNode *node = ws.mwNode.data();
    ws.mwQueue.clear();
    for (int i = 0; i < n; ++i) {
        const int src = defects[i];
        node[src] = {call, 0.0, i, 0, 0};
        ws.mwQueue.push(0.0, src);
    }

    // Candidates are deduplicated as they are found: each pair keeps
    // its minimum (w, obs) — what sorting every crossing by
    // (i, j, w, obs) and keeping the first per pair keeps. A pair is
    // looked up in the list of unique candidates sharing its smaller
    // endpoint, which holds at most one entry per neighbouring region.
    std::fill_n(ws.mwCandHead.begin(), n, -1);
    ws.mwCandNext.clear();
    auto addCandidate = [&](int i, int j, double w, uint8_t obs) {
        for (int k = ws.mwCandHead[i]; k >= 0; k = ws.mwCandNext[k]) {
            DecodeWorkspace::Cand &c = ws.mwCands[k];
            if (c.j != j)
                continue;
            if (w < c.w || (w == c.w && obs < c.obs)) {
                c.w = w;
                c.obs = obs;
            }
            return;
        }
        ws.mwCandNext.push_back(ws.mwCandHead[i]);
        ws.mwCandHead[i] = (int)ws.mwCands.size();
        ws.mwCands.push_back({i, j, w, obs});
    };

    while (!ws.mwQueue.empty()) {
        const auto [d, u] = ws.mwQueue.pop();
        DecodeWorkspace::MwNode &nu = node[u];
        if (nu.settled || d > nu.dist)
            continue;
        nu.settled = 1;
        ++ws.statSettledNodes;
        const int oi = nu.owner;
        const double bdist_i = ws.mwBDist[oi];

        const int row_end = nbrOffsets_[(size_t)u + 1];
        for (int k = nbrOffsets_[u]; k < row_end; ++k) {
            const Nbr &nbr = nbrs_[k];
            DecodeWorkspace::MwNode &nv = node[nbr.to];
            const bool seen = nv.stamp == call;
            if (seen && nv.settled) {
                const int oj = nv.owner;
                if (oj == oi)
                    continue;
                // Region crossing: candidate at the exact shortest
                // distance between the two owners (for this meeting
                // edge; the dedup keeps the global minimum).
                // Dropped when matching both owners to the boundary
                // is strictly cheaper.
                const double w = d + nbr.w + nv.dist;
                if (w > bdist_i + ws.mwBDist[oj])
                    continue;
                const uint8_t obs = nu.obs ^ nbr.obs ^ nv.obs;
                if (oi < oj)
                    addCandidate(oi, oj, w, obs);
                else
                    addCandidate(oj, oi, w, obs);
                continue;
            }
            const double nd = d + nbr.w;
            if (nd > bdist_i + bmax_shot)
                continue;   // boundary-dominated beyond this radius
            if (!seen || nd < nv.dist) {
                nv = {call, nd, oi, (uint8_t)(nu.obs ^ nbr.obs), 0};
                ws.mwQueue.push(nd, nbr.to);
            }
        }
    }

    // Sort the unique pairs by (i, j): the list doubles as the
    // pair -> observable-parity lookup after matching.
    std::sort(ws.mwCands.begin(), ws.mwCands.end(),
              [](const DecodeWorkspace::Cand &x,
                 const DecodeWorkspace::Cand &y) {
                  if (x.i != y.i)
                      return x.i < y.i;
                  return x.j < y.j;
              });

    // Enforce the per-defect candidate budget: when a defect exceeds
    // neighborLimit adjacencies (rare — region adjacency yields only a
    // handful), keep its lightest ones. Dropping edges never breaks
    // feasibility (every defect retains its boundary edge).
    ws.mwLocalIndex.assign(n, 0);   // reused as degree counts here
    bool over_budget = false;
    for (const auto &cand : ws.mwCands) {
        if (++ws.mwLocalIndex[cand.i] > options_.neighborLimit ||
            ++ws.mwLocalIndex[cand.j] > options_.neighborLimit)
            over_budget = true;
    }
    if (over_budget) {
        std::sort(ws.mwCands.begin(), ws.mwCands.end(),
                  [](const DecodeWorkspace::Cand &x,
                     const DecodeWorkspace::Cand &y) {
                      if (x.w != y.w)
                          return x.w < y.w;
                      if (x.i != y.i)
                          return x.i < y.i;
                      return x.j < y.j;
                  });
        ws.mwLocalIndex.assign(n, 0);
        size_t kept = 0;
        for (size_t k = 0; k < ws.mwCands.size(); ++k) {
            const auto &cand = ws.mwCands[k];
            if (ws.mwLocalIndex[cand.i] >= options_.neighborLimit ||
                ws.mwLocalIndex[cand.j] >= options_.neighborLimit)
                continue;
            ++ws.mwLocalIndex[cand.i];
            ++ws.mwLocalIndex[cand.j];
            ws.mwCands[kept++] = cand;
        }
        ws.mwCands.resize(kept);
        // Restore (i, j) order for the post-matching parity lookup.
        std::sort(ws.mwCands.begin(), ws.mwCands.end(),
                  [](const DecodeWorkspace::Cand &x,
                     const DecodeWorkspace::Cand &y) {
                      if (x.i != y.i)
                          return x.i < y.i;
                      return x.j < y.j;
                  });
    }

    // Split the matching instance into connected components of the
    // candidate graph: every cross-component pairing is
    // boundary-dominated, so blossom runs on many small instances
    // instead of one O(n^3) one (the sparse-blossom trick).
    for (int i = 0; i < n; ++i)
        ws.mwCompParent[i] = i;
    auto findComp = [&](int v) {
        while (ws.mwCompParent[v] != v) {
            ws.mwCompParent[v] =
                ws.mwCompParent[ws.mwCompParent[v]];
            v = ws.mwCompParent[v];
        }
        return v;
    };
    for (const auto &cand : ws.mwCands) {
        const int a = findComp(cand.i);
        const int b = findComp(cand.j);
        if (a != b)
            ws.mwCompParent[b] = a;
    }
    ws.mwCompKeys.clear();
    for (int i = 0; i < n; ++i)
        ws.mwCompKeys.push_back({findComp(i), i});
    std::sort(ws.mwCompKeys.begin(), ws.mwCompKeys.end());
    // Bucket candidates by component root once (index order preserved
    // within a root), so each candidate is visited exactly once below.
    ws.mwCandByComp.clear();
    for (size_t k = 0; k < ws.mwCands.size(); ++k)
        ws.mwCandByComp.push_back(
            {findComp(ws.mwCands[k].i), (int)k});
    std::sort(ws.mwCandByComp.begin(), ws.mwCandByComp.end());

    bool obs = false;
    size_t group = 0;
    size_t cand_cursor = 0;
    while (group < ws.mwCompKeys.size()) {
        const int root = ws.mwCompKeys[group].first;
        size_t group_end = group;
        while (group_end < ws.mwCompKeys.size() &&
               ws.mwCompKeys[group_end].first == root)
            ++group_end;
        const int k = (int)(group_end - group);

        // Trivial component: one defect, matched to the boundary.
        if (k == 1) {
            const int gi = ws.mwCompKeys[group].second;
            obs ^= (ws.mwBObs[gi] != 0);
            if (ws.recordCorrections)
                ws.corrections.push_back(
                    {defects[gi], -1, ws.mwBObs[gi]});
            group = group_end;
            continue;
        }

        for (size_t t = group; t < group_end; ++t)
            ws.mwLocalIndex[ws.mwCompKeys[t].second] =
                (int)(t - group);

        // Local saving instance on the k defects: pairing i with j
        // instead of sending both to the boundary saves
        // b_i + b_j - w_ij. A maximum-weight matching of the savings
        // minimizes the same integer total as a perfect matching of
        // the doubled boundary-twin instance; unmatched defects go to
        // the boundary. Non-positive savings never help and are
        // dropped.
        ws.mwEdges.clear();
        while (cand_cursor < ws.mwCandByComp.size() &&
               ws.mwCandByComp[cand_cursor].first < root)
            ++cand_cursor;   // candidates of skipped 1-defect groups
        for (; cand_cursor < ws.mwCandByComp.size() &&
               ws.mwCandByComp[cand_cursor].first == root;
             ++cand_cursor) {
            const auto &cand =
                ws.mwCands[ws.mwCandByComp[cand_cursor].second];
            const int64_t saving = scaled(ws.mwBDist[cand.i]) +
                                   scaled(ws.mwBDist[cand.j]) -
                                   scaled(cand.w);
            if (saving > 0)
                ws.mwEdges.push_back({ws.mwLocalIndex[cand.i],
                                      ws.mwLocalIndex[cand.j], saving});
        }

        ws.statMatchedVerts += (uint64_t)k;
        ++ws.statComponents;
        maxWeightMatching(k, ws.mwEdges, false, ws.mwPartner,
                          ws.matcher);

        // Predicted observable: parity over matched structure.
        for (int li = 0; li < k; ++li) {
            const int m = ws.mwPartner[li];
            const int gi = ws.mwCompKeys[group + li].second;
            if (m == -1) {
                obs ^= (ws.mwBObs[gi] != 0);
                if (ws.recordCorrections)
                    ws.corrections.push_back(
                        {defects[gi], -1, ws.mwBObs[gi]});
            } else if (m > li) {
                const int gj = ws.mwCompKeys[group + m].second;
                // Binary search the deduped candidate list.
                auto it = std::lower_bound(
                    ws.mwCands.begin(), ws.mwCands.end(),
                    std::make_pair(gi, gj),
                    [](const DecodeWorkspace::Cand &c,
                       const std::pair<int, int> &key) {
                        if (c.i != key.first)
                            return c.i < key.first;
                        return c.j < key.second;
                    });
                uint8_t pair_obs = 0;
                if (it != ws.mwCands.end() && it->i == gi &&
                    it->j == gj)
                    pair_obs = it->obs;
                obs ^= (pair_obs != 0);
                if (ws.recordCorrections)
                    ws.corrections.push_back(
                        {defects[gi], defects[gj], pair_obs});
            }
        }
        group = group_end;
    }
    return obs;
}

} // namespace qec
