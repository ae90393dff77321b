#include "matching.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "base/logging.h"

namespace qec
{

namespace
{

/** Grow a nested vector's outer size (never shrinking, so inner
 *  capacity persists) and clear the first `n` inner vectors. */
void
resetNested(std::vector<std::vector<int>> &v, size_t n)
{
    if (v.size() < n)
        v.resize(n);
    for (size_t i = 0; i < n; ++i)
        v[i].clear();
}

/** Every vector one blossom solve needs. */
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
     *  stable copy). */
    std::vector<std::vector<int>> expandPool;
};

/**
 * State of one maximum-weight-matching computation. A direct port of
 * Van Rantwijk's formulation of Galil's algorithm: vertices are
 * 0..n-1, blossoms n..2n-1, and "endpoints" are directed half-edges
 * (edge k has endpoints 2k and 2k+1). All arrays live in one
 * MatcherScratch.
 */
class Matcher
{
  public:
    Matcher(int n, const std::vector<MatchEdge> &edges, bool maxcard,
            MatcherScratch &s)
        : n_(n), edges_(edges), maxCardinality_(maxcard),
          neighbend_(s.neighbend), mate_(s.mate), label_(s.label),
          labelend_(s.labelend), inblossom_(s.inblossom),
          blossomparent_(s.blossomparent),
          blossomchilds_(s.blossomchilds),
          blossombase_(s.blossombase), blossomendps_(s.blossomendps),
          bestedge_(s.bestedge),
          blossombestedges_(s.blossombestedges),
          unusedblossoms_(s.unusedblossoms), dualvar_(s.dualvar),
          allowedge_(s.allowedge), queue_(s.queue),
          leafStack_(s.leafStack), pathBuf_(s.pathBuf),
          endpsBuf_(s.endpsBuf), bestEdgeToBuf_(s.bestEdgeToBuf),
          expandPool_(s.expandPool)
    {
    }

    void solve(std::vector<int> &partner);

  private:
    int64_t
    slack(int k) const
    {
        const auto &e = edges_[k];
        return dualvar_[e.u] + dualvar_[e.v] - 2 * e.weight;
    }

    int endpoint(int p) const
    {
        return (p & 1) ? edges_[p >> 1].v : edges_[p >> 1].u;
    }

    void assignLabel(int w, int t, int p);
    int scanBlossom(int v, int w);
    void addBlossom(int base, int k);
    void expandBlossom(int b, bool endstage);
    void augmentBlossom(int b, int v);
    void augmentMatching(int k);

    int n_;
    const std::vector<MatchEdge> &edges_;
    bool maxCardinality_;

    // All state lives in the MatcherScratch; these references keep
    // the algorithm text unchanged.
    std::vector<std::vector<int>> &neighbend_;
    std::vector<int> &mate_;
    std::vector<int> &label_;
    std::vector<int> &labelend_;
    std::vector<int> &inblossom_;
    std::vector<int> &blossomparent_;
    std::vector<std::vector<int>> &blossomchilds_;
    std::vector<int> &blossombase_;
    std::vector<std::vector<int>> &blossomendps_;
    std::vector<int> &bestedge_;
    std::vector<std::vector<int>> &blossombestedges_;
    std::vector<int> &unusedblossoms_;
    std::vector<int64_t> &dualvar_;
    std::vector<uint8_t> &allowedge_;
    std::vector<int> &queue_;

    // Reusable scratch for the hot helpers (no allocation per blossom
    // operation once warmed up).
    std::vector<int> &leafStack_;
    std::vector<int> &pathBuf_;
    std::vector<int> &endpsBuf_;
    std::vector<int> &bestEdgeToBuf_;
    std::vector<std::vector<int>> &expandPool_;
    int expandDepth_ = 0;

    /** Apply f to every leaf vertex of (sub-)blossom b, in the same
     *  order as the recursive formulation. Not reentrant: callers
     *  must finish one traversal before starting another. */
    template <typename F>
    void
    forEachLeaf(int b, F &&f)
    {
        leafStack_.clear();
        leafStack_.push_back(b);
        while (!leafStack_.empty()) {
            const int t = leafStack_.back();
            leafStack_.pop_back();
            if (t < n_) {
                f(t);
                continue;
            }
            const auto &childs = blossomchilds_[t];
            for (auto it = childs.rbegin(); it != childs.rend(); ++it)
                leafStack_.push_back(*it);
        }
    }
};

void
Matcher::assignLabel(int w, int t, int p)
{
    const int b = inblossom_[w];
    label_[w] = label_[b] = t;
    labelend_[w] = labelend_[b] = p;
    bestedge_[w] = bestedge_[b] = -1;
    if (t == 1) {
        forEachLeaf(b, [&](int leaf) { queue_.push_back(leaf); });
    } else if (t == 2) {
        const int base = blossombase_[b];
        assignLabel(endpoint(mate_[base]), 1, mate_[base] ^ 1);
    }
}

int
Matcher::scanBlossom(int v, int w)
{
    std::vector<int> &path = pathBuf_;
    path.clear();
    int base = -1;
    while (v != -1 || w != -1) {
        int b = inblossom_[v];
        if (label_[b] & 4) {
            base = blossombase_[b];
            break;
        }
        path.push_back(b);
        label_[b] = 5;
        // Trace one step back.
        if (mate_[blossombase_[b]] == -1) {
            v = -1;
        } else {
            v = endpoint(mate_[blossombase_[b]]);
            b = inblossom_[v];
            // b is a T-blossom; trace one more step back.
            v = endpoint(labelend_[b]);
        }
        // Alternate between the two paths.
        if (w != -1)
            std::swap(v, w);
    }
    for (int b : path)
        label_[b] = 1;
    return base;
}

void
Matcher::addBlossom(int base, int k)
{
    int v = edges_[k].u;
    int w = edges_[k].v;
    const int bb = inblossom_[base];
    int bv = inblossom_[v];
    int bw = inblossom_[w];

    const int b = unusedblossoms_.back();
    unusedblossoms_.pop_back();
    blossombase_[b] = base;
    blossomparent_[b] = -1;
    blossomparent_[bb] = b;

    std::vector<int> &path = pathBuf_;
    std::vector<int> &endps = endpsBuf_;
    path.clear();
    endps.clear();
    while (bv != bb) {
        blossomparent_[bv] = b;
        path.push_back(bv);
        endps.push_back(labelend_[bv]);
        v = endpoint(labelend_[bv]);
        bv = inblossom_[v];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);
    while (bw != bb) {
        blossomparent_[bw] = b;
        path.push_back(bw);
        endps.push_back(labelend_[bw] ^ 1);
        w = endpoint(labelend_[bw]);
        bw = inblossom_[w];
    }
    blossomchilds_[b] = path;   // copy into the slot's kept capacity
    blossomendps_[b] = endps;

    label_[b] = 1;
    labelend_[b] = labelend_[bb];
    dualvar_[b] = 0;

    forEachLeaf(b, [&](int leaf) {
        if (label_[inblossom_[leaf]] == 2)
            queue_.push_back(leaf);
        inblossom_[leaf] = b;
    });

    // Recompute best edges into neighbouring S-blossoms.
    bestEdgeToBuf_.assign(2 * n_, -1);
    std::vector<int> &bestedgeto = bestEdgeToBuf_;
    auto consider = [&](int edge_k) {
        int j = edges_[edge_k].v;
        if (inblossom_[j] == b)
            j = edges_[edge_k].u;
        const int bj = inblossom_[j];
        if (bj != b && label_[bj] == 1 &&
            (bestedgeto[bj] == -1 ||
             slack(edge_k) < slack(bestedgeto[bj]))) {
            bestedgeto[bj] = edge_k;
        }
    };
    for (int child : blossomchilds_[b]) {
        if (blossombestedges_[child].empty()) {
            forEachLeaf(child, [&](int leaf) {
                for (int p : neighbend_[leaf])
                    consider(p >> 1);
            });
        } else {
            for (int edge_k : blossombestedges_[child])
                consider(edge_k);
        }
        blossombestedges_[child].clear();
        bestedge_[child] = -1;
    }
    blossombestedges_[b].clear();
    for (int edge_k : bestedgeto) {
        if (edge_k != -1)
            blossombestedges_[b].push_back(edge_k);
    }
    bestedge_[b] = -1;
    for (int edge_k : blossombestedges_[b]) {
        if (bestedge_[b] == -1 || slack(edge_k) < slack(bestedge_[b]))
            bestedge_[b] = edge_k;
    }
}

void
Matcher::expandBlossom(int b, bool endstage)
{
    // Copy (into this recursion level's pooled buffer): children are
    // modified while iterating in recursive calls. solve() pre-sizes
    // the pool to the maximum nesting depth, so the reference below
    // is never invalidated by a resize in a nested call.
    const int depth = expandDepth_++;
    panicIf(depth >= (int)expandPool_.size(),
            "blossom expansion exceeded the pre-sized depth pool");
    std::vector<int> &childs = expandPool_[depth];
    childs = blossomchilds_[b];
    for (int s : childs) {
        blossomparent_[s] = -1;
        if (s < n_) {
            inblossom_[s] = s;
        } else if (endstage && dualvar_[s] == 0) {
            expandBlossom(s, endstage);
        } else {
            forEachLeaf(s, [&](int leaf) { inblossom_[leaf] = s; });
        }
    }

    if (!endstage && label_[b] == 2) {
        // Relabel sub-blossoms along the path from the entry child to
        // the base.
        const int entrychild = inblossom_[endpoint(labelend_[b] ^ 1)];
        int j = 0;
        const int nchild = (int)blossomchilds_[b].size();
        for (int i = 0; i < nchild; ++i) {
            if (blossomchilds_[b][i] == entrychild) {
                j = i;
                break;
            }
        }
        int jstep;
        int endptrick;
        if (j & 1) {
            j -= nchild;
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        auto child_at = [&](int idx) {
            return blossomchilds_[b][(idx % nchild + nchild) % nchild];
        };
        auto endp_at = [&](int idx) {
            return blossomendps_[b][(idx % nchild + nchild) % nchild];
        };
        int p = labelend_[b];
        while (j != 0) {
            label_[endpoint(p ^ 1)] = 0;
            label_[endpoint(endp_at(j - endptrick) ^ endptrick ^ 1)] = 0;
            assignLabel(endpoint(p ^ 1), 2, p);
            allowedge_[endp_at(j - endptrick) >> 1] = 1;
            j += jstep;
            p = endp_at(j - endptrick) ^ endptrick;
            allowedge_[p >> 1] = 1;
            j += jstep;
        }
        // Relabel the base T-sub-blossom without stepping to its mate.
        {
            const int bv = child_at(j);
            label_[endpoint(p ^ 1)] = 2;
            label_[bv] = 2;
            labelend_[endpoint(p ^ 1)] = p;
            labelend_[bv] = p;
            bestedge_[bv] = -1;
        }
        j += jstep;
        while (child_at(j) != entrychild) {
            const int bv = child_at(j);
            if (label_[bv] == 1) {
                j += jstep;
                continue;
            }
            int labeled_leaf = -1;
            forEachLeaf(bv, [&](int leaf) {
                if (labeled_leaf == -1 && label_[leaf] != 0)
                    labeled_leaf = leaf;
            });
            if (labeled_leaf != -1) {
                label_[labeled_leaf] = 0;
                label_[endpoint(mate_[blossombase_[bv]])] = 0;
                assignLabel(labeled_leaf, 2, labelend_[labeled_leaf]);
            }
            j += jstep;
        }
    }

    label_[b] = -1;
    labelend_[b] = -1;
    blossomchilds_[b].clear();
    blossomendps_[b].clear();
    blossombase_[b] = -1;
    blossombestedges_[b].clear();
    bestedge_[b] = -1;
    unusedblossoms_.push_back(b);
    --expandDepth_;
}

void
Matcher::augmentBlossom(int b, int v)
{
    // Bubble up to an immediate child of b.
    int t = v;
    while (blossomparent_[t] != b)
        t = blossomparent_[t];
    if (t >= n_)
        augmentBlossom(t, v);

    const int nchild = (int)blossomchilds_[b].size();
    int i = 0;
    for (int idx = 0; idx < nchild; ++idx) {
        if (blossomchilds_[b][idx] == t) {
            i = idx;
            break;
        }
    }
    int j = i;
    int jstep;
    int endptrick;
    if (i & 1) {
        j -= nchild;
        jstep = 1;
        endptrick = 0;
    } else {
        jstep = -1;
        endptrick = 1;
    }
    auto child_at = [&](int idx) {
        return blossomchilds_[b][(idx % nchild + nchild) % nchild];
    };
    auto endp_at = [&](int idx) {
        return blossomendps_[b][(idx % nchild + nchild) % nchild];
    };
    while (j != 0) {
        j += jstep;
        int child = child_at(j);
        const int p = endp_at(j - endptrick) ^ endptrick;
        if (child >= n_)
            augmentBlossom(child, endpoint(p));
        j += jstep;
        child = child_at(j);
        if (child >= n_)
            augmentBlossom(child, endpoint(p ^ 1));
        mate_[endpoint(p)] = p ^ 1;
        mate_[endpoint(p ^ 1)] = p;
    }
    // Rotate the child list so the new base is first.
    std::rotate(blossomchilds_[b].begin(),
                blossomchilds_[b].begin() + i, blossomchilds_[b].end());
    std::rotate(blossomendps_[b].begin(),
                blossomendps_[b].begin() + i, blossomendps_[b].end());
    blossombase_[b] = blossombase_[blossomchilds_[b][0]];
    panicIf(blossombase_[b] != v, "blossom augmentation lost its base");
}

void
Matcher::augmentMatching(int k)
{
    const int kv = edges_[k].u;
    const int kw = edges_[k].v;
    const int starts[2][2] = {{kv, 2 * k + 1}, {kw, 2 * k}};
    for (const auto &start : starts) {
        int s = start[0];
        int p = start[1];
        while (true) {
            const int bs = inblossom_[s];
            if (bs >= n_)
                augmentBlossom(bs, s);
            mate_[s] = p;
            if (labelend_[bs] == -1)
                break;
            const int t = endpoint(labelend_[bs]);
            const int bt = inblossom_[t];
            s = endpoint(labelend_[bt]);
            const int j = endpoint(labelend_[bt] ^ 1);
            if (bt >= n_)
                augmentBlossom(bt, j);
            mate_[j] = labelend_[bt];
            p = labelend_[bt] ^ 1;
        }
    }
}

void
Matcher::solve(std::vector<int> &partner)
{
    partner.assign(n_, -1);
    if (edges_.empty() || n_ == 0)
        return;

    const int nedge = (int)edges_.size();
    int64_t maxweight = 0;
    for (const auto &e : edges_)
        maxweight = std::max(maxweight, e.weight);

    resetNested(neighbend_, n_);
    for (int k = 0; k < nedge; ++k) {
        neighbend_[edges_[k].u].push_back(2 * k + 1);
        neighbend_[edges_[k].v].push_back(2 * k);
    }

    mate_.assign(n_, -1);
    label_.assign(2 * n_, 0);
    labelend_.assign(2 * n_, -1);
    inblossom_.resize(n_);
    for (int v = 0; v < n_; ++v)
        inblossom_[v] = v;
    blossomparent_.assign(2 * n_, -1);
    resetNested(blossomchilds_, 2 * (size_t)n_);
    blossombase_.resize(2 * n_);
    for (int v = 0; v < n_; ++v)
        blossombase_[v] = v;
    for (int b = n_; b < 2 * n_; ++b)
        blossombase_[b] = -1;
    resetNested(blossomendps_, 2 * (size_t)n_);
    bestedge_.assign(2 * n_, -1);
    resetNested(blossombestedges_, 2 * (size_t)n_);
    // Blossom nesting depth is bounded by the blossom count, so
    // expandBlossom's per-depth buffers can never resize (and thus
    // never invalidate an outer recursion frame's reference).
    if (expandPool_.size() < (size_t)n_)
        expandPool_.resize(n_);
    unusedblossoms_.clear();
    for (int b = n_; b < 2 * n_; ++b)
        unusedblossoms_.push_back(b);
    dualvar_.assign(2 * n_, 0);
    for (int v = 0; v < n_; ++v)
        dualvar_[v] = maxweight;
    allowedge_.assign(nedge, 0);
    queue_.clear();

    for (int stage = 0; stage < n_; ++stage) {
        std::fill(label_.begin(), label_.end(), 0);
        std::fill(bestedge_.begin(), bestedge_.end(), -1);
        for (int b = n_; b < 2 * n_; ++b)
            blossombestedges_[b].clear();
        std::fill(allowedge_.begin(), allowedge_.end(), 0);
        queue_.clear();

        for (int v = 0; v < n_; ++v) {
            if (mate_[v] == -1 && label_[inblossom_[v]] == 0)
                assignLabel(v, 1, -1);
        }

        bool augmented = false;
        while (true) {
            while (!queue_.empty() && !augmented) {
                const int v = queue_.back();
                queue_.pop_back();
                for (int p : neighbend_[v]) {
                    const int k = p >> 1;
                    const int w = endpoint(p);
                    if (inblossom_[v] == inblossom_[w])
                        continue;
                    int64_t kslack = 0;
                    if (!allowedge_[k]) {
                        kslack = slack(k);
                        if (kslack <= 0)
                            allowedge_[k] = 1;
                    }
                    if (allowedge_[k]) {
                        if (label_[inblossom_[w]] == 0) {
                            assignLabel(w, 2, p ^ 1);
                        } else if (label_[inblossom_[w]] == 1) {
                            const int base = scanBlossom(v, w);
                            if (base >= 0) {
                                addBlossom(base, k);
                            } else {
                                augmentMatching(k);
                                augmented = true;
                                break;
                            }
                        } else if (label_[w] == 0) {
                            label_[w] = 2;
                            labelend_[w] = p ^ 1;
                        }
                    } else if (label_[inblossom_[w]] == 1) {
                        const int b = inblossom_[v];
                        if (bestedge_[b] == -1 ||
                            kslack < slack(bestedge_[b]))
                            bestedge_[b] = k;
                    } else if (label_[w] == 0) {
                        if (bestedge_[w] == -1 ||
                            kslack < slack(bestedge_[w]))
                            bestedge_[w] = k;
                    }
                }
            }
            if (augmented)
                break;

            // Compute the dual update.
            int deltatype = -1;
            int64_t delta = 0;
            int deltaedge = -1;
            int deltablossom = -1;

            if (!maxCardinality_) {
                deltatype = 1;
                int64_t dmin = dualvar_[0];
                for (int v = 1; v < n_; ++v)
                    dmin = std::min(dmin, dualvar_[v]);
                delta = std::max<int64_t>(0, dmin);
            }
            for (int v = 0; v < n_; ++v) {
                if (label_[inblossom_[v]] == 0 && bestedge_[v] != -1) {
                    const int64_t d = slack(bestedge_[v]);
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 2;
                        deltaedge = bestedge_[v];
                    }
                }
            }
            for (int b = 0; b < 2 * n_; ++b) {
                if (blossomparent_[b] == -1 && label_[b] == 1 &&
                    bestedge_[b] != -1) {
                    const int64_t d = slack(bestedge_[b]) / 2;
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 3;
                        deltaedge = bestedge_[b];
                    }
                }
            }
            for (int b = n_; b < 2 * n_; ++b) {
                if (blossombase_[b] >= 0 && blossomparent_[b] == -1 &&
                    label_[b] == 2 &&
                    (deltatype == -1 || dualvar_[b] < delta)) {
                    delta = dualvar_[b];
                    deltatype = 4;
                    deltablossom = b;
                }
            }
            if (deltatype == -1) {
                deltatype = 1;
                int64_t dmin = dualvar_[0];
                for (int v = 1; v < n_; ++v)
                    dmin = std::min(dmin, dualvar_[v]);
                delta = std::max<int64_t>(0, dmin);
            }

            for (int v = 0; v < n_; ++v) {
                const int lbl = label_[inblossom_[v]];
                if (lbl == 1)
                    dualvar_[v] -= delta;
                else if (lbl == 2)
                    dualvar_[v] += delta;
            }
            for (int b = n_; b < 2 * n_; ++b) {
                if (blossombase_[b] >= 0 && blossomparent_[b] == -1) {
                    if (label_[b] == 1)
                        dualvar_[b] += delta;
                    else if (label_[b] == 2)
                        dualvar_[b] -= delta;
                }
            }

            if (deltatype == 1) {
                break;
            } else if (deltatype == 2) {
                allowedge_[deltaedge] = 1;
                int i = edges_[deltaedge].u;
                if (label_[inblossom_[i]] == 0)
                    i = edges_[deltaedge].v;
                queue_.push_back(i);
            } else if (deltatype == 3) {
                allowedge_[deltaedge] = 1;
                queue_.push_back(edges_[deltaedge].u);
            } else {
                expandBlossom(deltablossom, false);
            }
        }

        if (!augmented)
            break;

        for (int b = n_; b < 2 * n_; ++b) {
            if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
                label_[b] == 1 && dualvar_[b] == 0) {
                expandBlossom(b, true);
            }
        }
    }

    for (int v = 0; v < n_; ++v) {
        if (mate_[v] != -1)
            partner[v] = endpoint(mate_[v]);
    }
    for (int v = 0; v < n_; ++v) {
        panicIf(partner[v] != -1 && partner[partner[v]] != v,
                "matching is not symmetric");
    }
}

} // namespace

std::vector<int>
maxWeightMatching(int num_vertices, const std::vector<MatchEdge> &edges,
                  bool max_cardinality)
{
    MatcherScratch scratch;
    std::vector<int> partner;
    Matcher(num_vertices, edges, max_cardinality, scratch).solve(partner);
    return partner;
}

std::vector<int>
minWeightPerfectMatching(int num_vertices,
                         const std::vector<MatchEdge> &edges)
{
    int64_t wmax = 0;
    for (const auto &e : edges)
        wmax = std::max(wmax, e.weight);

    // Transform: maximizing (wmax + 1 - w) over maximum-cardinality
    // matchings minimizes total w over perfect matchings. Doubling
    // keeps every dual quantity integral.
    std::vector<MatchEdge> transformed(edges);
    for (auto &e : transformed)
        e.weight = 2 * (wmax + 1 - e.weight);

    std::vector<int> partner = maxWeightMatching(
        num_vertices, transformed, true);
    for (int v = 0; v < num_vertices; ++v) {
        panicIf(partner[v] == -1,
                "no perfect matching exists for this instance");
    }
    return partner;
}

} // namespace qec
