#include "decoder/union_find_decoder.h"

#include <algorithm>

#include "base/logging.h"

namespace qec
{

UnionFindDecoder::UnionFindDecoder(const DetectorModel &dem, double p)
    : numDets_(dem.numDetectors()), boundaryVertex_(dem.numDetectors())
{
    EdgePricer price(p);
    edges_.reserve(dem.edges.size());
    for (const auto &edge : dem.edges) {
        if (price(edge).q <= 0.0)
            continue;
        const int v =
            edge.b == kBoundary ? boundaryVertex_ : edge.b;
        edges_.push_back({edge.a, v, edge.obsFlip ? (uint8_t)1
                                                  : (uint8_t)0});
    }

    // Flat CSR adjacency: counting sort of the edge endpoints, which
    // keeps each vertex's incident edges in edge-id order.
    const int n = numDets_ + 1;
    csrOffsets_.assign((size_t)n + 1, 0);
    for (const auto &edge : edges_) {
        ++csrOffsets_[(size_t)edge.u + 1];
        ++csrOffsets_[(size_t)edge.v + 1];
    }
    for (int v = 0; v < n; ++v)
        csrOffsets_[(size_t)v + 1] += csrOffsets_[v];
    csrAdj_.resize(2 * edges_.size());
    std::vector<int> cursor(csrOffsets_.begin(), csrOffsets_.end() - 1);
    for (size_t e = 0; e < edges_.size(); ++e) {
        const int eo = ((int)e << 1) | (int)edges_[e].obs;
        csrAdj_[(size_t)cursor[edges_[e].u]++] = {edges_[e].v, eo};
        csrAdj_[(size_t)cursor[edges_[e].v]++] = {edges_[e].u, eo};
    }

    // Streaming-commit growth bound: a cluster's region always stays
    // within ball(its defects, B) for B = the graph's max distance to
    // the boundary vertex — each alive growth layer expands a
    // cluster's ball radius by one, and once the ball around any of
    // its defects reaches the boundary the cluster is neutralized for
    // good (the boundary flag survives merges). BFS from the boundary
    // computes B once; a vertex the boundary cannot reach would leave
    // growth unbounded, so the bound is withheld then (decodes of
    // such graphs panic anyway if an odd cluster strands).
    std::vector<int> dist((size_t)n, -1);
    std::vector<int> queue;
    queue.reserve((size_t)n);
    dist[(size_t)boundaryVertex_] = 0;
    queue.push_back(boundaryVertex_);
    for (size_t h = 0; h < queue.size(); ++h) {
        const int u = queue[h];
        for (int ci = csrOffsets_[u]; ci < csrOffsets_[(size_t)u + 1];
             ++ci) {
            const int w = csrAdj_[(size_t)ci].other;
            if (dist[(size_t)w] < 0) {
                dist[(size_t)w] = dist[(size_t)u] + 1;
                commitBound_ =
                    std::max(commitBound_, dist[(size_t)w]);
                queue.push_back(w);
            }
        }
    }
    if ((int)queue.size() < n)
        commitBound_ = -1;
}

bool
UnionFindDecoder::decodeSparse(const int *defects, size_t count,
                               DecodeWorkspace &ws) const
{
    if (count == 0)
        return false;

    const size_t n = (size_t)numDets_ + 1;
    ws.ensureUf(n, edges_.size());
    // Validity stamps are one byte per vertex/edge so both arrays stay
    // L1-resident (growth and peel are bound by exactly these random
    // loads). The byte epoch wraps every 255 calls; the wrap clears
    // the arrays once, so a stale stamp can never alias a live epoch.
    if (++ws.ufEpoch8 == 0) {
        std::fill(ws.ufNodeStamp.begin(), ws.ufNodeStamp.end(),
                  (uint8_t)0);
        std::fill(ws.ufEdgeStamp.begin(), ws.ufEdgeStamp.end(),
                  (uint8_t)0);
        ws.ufEpoch8 = 1;
    }
    const uint8_t e8 = ws.ufEpoch8;
    using DW = DecodeWorkspace;
    DW::UfNode *nodes = ws.ufNode.data();
    uint8_t *vstamp = ws.ufNodeStamp.data();
    int *deg = ws.peelDeg.data();
    uint8_t *charge = ws.peelCharge.data();
    ws.peelOrder.clear();   // every vertex touched this call

    // Lazily initialize a vertex the first time this call touches it:
    // untouched vertices cost nothing, so the pass scales with the
    // cluster sizes, not the lattice (and a touch is one cache line
    // plus the small peel arrays).
    auto touch = [&](int v) {
        if (vstamp[v] != e8) {
            vstamp[v] = e8;
            DW::UfNode &node = nodes[v];
            node.parent = v;
            node.fHead = -1;
            node.fTail = -1;
            node.fSize = 0;
            node.fNext = -1;
            node.flags = 0;
            deg[v] = 0;
            charge[v] = 0;
            ws.peelOrder.push_back(v);
        }
    };
    auto find = [&](int v) {
        while (nodes[v].parent != v) {
            nodes[v].parent = nodes[nodes[v].parent].parent;
            v = nodes[v].parent;
        }
        return v;
    };
    auto pushFrontier = [&](int root, int v) {
        nodes[v].fNext = -1;
        if (nodes[root].fTail < 0)
            nodes[root].fHead = v;
        else
            nodes[nodes[root].fTail].fNext = v;
        nodes[root].fTail = v;
        ++nodes[root].fSize;
    };

    ws.ufActive.clear();
    ws.ufGrown.clear();
    for (size_t k = 0; k < count; ++k) {
        const int det = defects[k];
        touch(det);
        if (charge[det])
            continue;   // duplicate id: re-linking the frontier node
                        // onto itself would cycle the intrusive list
        charge[det] = 1;
        nodes[det].flags = DW::kUfOdd | DW::kUfInCluster;
        pushFrontier(det, det);
        ws.ufActive.push_back(det);
    }
    touch(boundaryVertex_);
    nodes[boundaryVertex_].flags |=
        DW::kUfInCluster | DW::kUfBoundary;

    auto merge = [&](int a, int b) {
        // Union by frontier size; returns the surviving root.
        a = find(a);
        b = find(b);
        if (a == b)
            return a;
        if (nodes[a].fSize < nodes[b].fSize)
            std::swap(a, b);
        nodes[b].parent = a;
        // Parity XORs, boundary contact ORs.
        nodes[a].flags = (uint8_t)(
            (nodes[a].flags ^ (nodes[b].flags & DW::kUfOdd)) |
            (nodes[b].flags & DW::kUfBoundary));
        if (nodes[b].fHead >= 0) {   // concat b's frontier onto a's
            if (nodes[a].fTail < 0)
                nodes[a].fHead = nodes[b].fHead;
            else
                nodes[nodes[a].fTail].fNext = nodes[b].fHead;
            nodes[a].fTail = nodes[b].fTail;
            nodes[a].fSize += nodes[b].fSize;
            nodes[b].fHead = -1;
            nodes[b].fTail = -1;
            nodes[b].fSize = 0;
        }
        return a;
    };

    // Grow active clusters one edge layer at a time.
    while (!ws.ufActive.empty()) {
        ws.ufNextActive.clear();
        bool grew_any = false;
        for (int root : ws.ufActive) {
            int r = find(root);
            if (r != root ||
                (nodes[r].flags & (DW::kUfOdd | DW::kUfBoundary)) !=
                    DW::kUfOdd)
                continue;   // stale entry or neutralized meanwhile

            // Detach the frontier and expand every not-yet-expanded
            // vertex; freshly absorbed vertices land on the root's new
            // (empty) frontier for the next layer. Detached nodes can
            // never be re-linked mid-walk: only vertices outside every
            // cluster are pushed onto a frontier.
            int u = nodes[r].fHead;
            nodes[r].fHead = -1;
            nodes[r].fTail = -1;
            nodes[r].fSize = 0;
            while (u >= 0) {
                const int next_u = nodes[u].fNext;
                if (nodes[u].flags & DW::kUfExpanded) {
                    u = next_u;
                    continue;
                }
                nodes[u].flags |= DW::kUfExpanded;
                grew_any = true;
                ++ws.statMatchedVerts;
                const int row_end = csrOffsets_[(size_t)u + 1];
                ws.statSettledNodes +=
                    (uint64_t)(row_end - csrOffsets_[u]);
                for (int ci = csrOffsets_[u]; ci < row_end; ++ci) {
                    const Adj a = csrAdj_[ci];
                    const int ei = a.eo >> 1;
                    if (ws.ufEdgeStamp[ei] == e8)
                        continue;
                    ws.ufEdgeStamp[ei] = e8;
                    const int w = a.other;
                    touch(w);
                    // Record the grown edge and maintain the peel
                    // pass's per-vertex grown degree here, while the
                    // edge is hot in registers, instead of re-walking
                    // CSR rows afterwards.
                    ws.ufGrown.push_back({u, w, a.eo});
                    ++deg[u];
                    ++deg[w];
                    if (!(nodes[w].flags & DW::kUfInCluster)) {
                        nodes[w].flags |= DW::kUfInCluster;
                        const int rr = find(u);
                        pushFrontier(rr, w);
                        nodes[w].parent = rr;
                    } else {
                        merge(u, w);
                    }
                }
                u = next_u;
            }
            r = find(root);
            if ((nodes[r].flags & (DW::kUfOdd | DW::kUfBoundary)) ==
                DW::kUfOdd)
                ws.ufNextActive.push_back(r);
        }
        // Deduplicate roots.
        std::sort(ws.ufNextActive.begin(), ws.ufNextActive.end());
        ws.ufNextActive.erase(std::unique(ws.ufNextActive.begin(),
                                          ws.ufNextActive.end()),
                              ws.ufNextActive.end());
        ws.ufActive.clear();
        for (int r : ws.ufNextActive) {
            if (find(r) == r &&
                (nodes[r].flags & (DW::kUfOdd | DW::kUfBoundary)) ==
                    DW::kUfOdd)
                ws.ufActive.push_back(r);
        }
        if (!ws.ufActive.empty() && !grew_any)
            panic("odd cluster cannot reach the boundary: detector "
                  "graph is disconnected");
    }

    // Resolve defect charges over a BFS spanning forest of the grown
    // edge set, pushing each vertex's charge along its parent edge in
    // reverse visit order. The forest is built on a compact adjacency
    // assembled from the grown-edge records, so peel cost scales with
    // the grown edge count alone — the old implementation re-walked
    // every touched vertex's full CSR row (mostly ungrown slots),
    // which dominated whole-decode time.
    int *cursor = ws.peelCursor.data();
    int64_t *parent = ws.peelParent.data();
    int slots = 0;
    for (const int v : ws.peelOrder) {
        cursor[v] = slots;
        slots += deg[v];
    }
    ws.peelAdj.resize((size_t)slots);
    std::pair<int, int> *adj = ws.peelAdj.data();
    for (const auto &g : ws.ufGrown) {
        adj[cursor[g.u]++] = {g.v, g.eo};
        adj[cursor[g.v]++] = {g.u, g.eo};
    }
    // cursor[v] now points one past v's slots; the visited mark below
    // keeps deg recoverable so the slot range stays addressable.

    ws.peelQueue.clear();   // doubles as the forest's visit order
    size_t head = 0;
    auto visit = [&](int v, int64_t parent_packed) {
        parent[v] = parent_packed;
        deg[v] = -deg[v] - 1;   // mark visited, preserving the count
        ws.peelQueue.push_back(v);
    };
    auto drain = [&]() {
        while (head < ws.peelQueue.size()) {
            const int u = ws.peelQueue[head++];
            const int end = cursor[u];
            for (int k = end + deg[u] + 1; k < end; ++k) {
                const auto &[w, eo] = adj[k];
                if (deg[w] >= 0)
                    visit(w, ((int64_t)u << 32) | (uint32_t)eo);
            }
        }
    };
    // Root the boundary's component at the boundary first so its
    // charge drains there; remaining components are rooted at one of
    // their charged vertices.
    visit(boundaryVertex_, -1);
    drain();
    for (const int v : ws.peelOrder) {
        if (charge[v] && deg[v] >= 0) {
            visit(v, -1);
            drain();
        }
    }

    // Optional cluster export for the sliding-window driver: label
    // the connected components of the grown edge set EXCLUDING the
    // boundary vertex (BFS over the compact adjacency, never stepping
    // onto or out of the boundary). Clusters that were union-found
    // together only through the shared boundary vertex never
    // interacted — growth is never expanded through the boundary —
    // so they are independent evolutions and get separate labels,
    // which is exactly the granularity at which the window driver may
    // commit them.
    if (ws.recordClusters) {
        ws.clusters.clear();
        int *cid = ws.clusterOf.data();
        for (const int v : ws.peelOrder)
            cid[v] = -1;
        ws.ufNextActive.clear();   // free post-growth; BFS queue
        std::vector<int> &bfs = ws.ufNextActive;
        for (const int seed : ws.peelOrder) {
            if (seed == boundaryVertex_ || cid[seed] >= 0)
                continue;
            const int id = (int)ws.clusters.size();
            ws.clusters.push_back({seed, seed, 0});
            DecodeWorkspace::ClusterInfo &c = ws.clusters.back();
            bfs.clear();
            bfs.push_back(seed);
            cid[seed] = id;
            for (size_t h = 0; h < bfs.size(); ++h) {
                const int u = bfs[h];
                c.minVertex = std::min(c.minVertex, u);
                c.maxVertex = std::max(c.maxVertex, u);
                const int end = cursor[u];
                for (int k = end + deg[u] + 1; k < end; ++k) {
                    const int w = adj[k].first;
                    if (w == boundaryVertex_ || cid[w] >= 0)
                        continue;
                    cid[w] = id;
                    bfs.push_back(w);
                }
            }
        }
    }

    bool obs = false;
    for (size_t i = ws.peelQueue.size(); i-- > 0;) {
        const int v = ws.peelQueue[i];
        if (!charge[v])
            continue;
        const int64_t packed = parent[v];
        if (packed < 0)
            continue;   // tree root: the boundary absorbs its charge;
                        // isolated clusters are internally even, so a
                        // charged root always ends neutral
        const int parent_v = (int)(packed >> 32);
        const int eo = (int)(uint32_t)packed;
        charge[v] = 0;
        charge[parent_v] ^= 1;
        obs ^= (eo & 1) != 0;
        if (ws.recordClusters)
            ws.clusters[(size_t)ws.clusterOf[v]].obsParity ^=
                (uint8_t)(eo & 1);
        if (ws.recordCorrections)
            ws.corrections.push_back(
                {v == boundaryVertex_ ? -1 : v,
                 parent_v == boundaryVertex_ ? -1 : parent_v,
                 (uint8_t)(eo & 1)});
    }
    return obs;
}

} // namespace qec
