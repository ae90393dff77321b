#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <climits>

namespace qec
{

namespace
{

constexpr int64_t kNever = INT64_MAX;
constexpr int kMatchBoundary = -2;

using MwEdge = DecodeWorkspace::MwEdge;

MwEdge
reversed(const MwEdge &e)
{
    return {e.b, e.a, e.obs};
}

} // namespace

MwpmDecoder::MwpmDecoder(const DetectorModel &dem, double p,
                         DecoderOptions /*options*/)
    : numDets_(dem.numDetectors()),
      boundaryW_(dem.numDetectors(), kNoBoundary),
      boundaryObs_(dem.numDetectors(), 0)
{
    // Keep the lighter of parallel edges; on equal weight the one
    // that does not flip the observable.
    auto lighter = [](int32_t w, uint8_t obs, int32_t best_w,
                      uint8_t best_obs) {
        return w < best_w || (w == best_w && obs < best_obs);
    };

    EdgePricer price(p);

    // Pass 1: boundary edges + per-detector degrees.
    std::vector<int> degree((size_t)numDets_, 0);
    for (const auto &edge : dem.edges) {
        const EdgePricer::Price &pr = price(edge);
        if (pr.q <= 0.0)
            continue;
        if (edge.b != kBoundary) {
            ++degree[(size_t)edge.a];
            ++degree[(size_t)edge.b];
            continue;
        }
        const int32_t w = pr.weight;
        const uint8_t obs = edge.obsFlip ? 1 : 0;
        if (lighter(w, obs, boundaryW_[edge.a], boundaryObs_[edge.a])) {
            boundaryW_[edge.a] = w;
            boundaryObs_[edge.a] = obs;
        }
    }

    // Pass 2: flat CSR adjacency (counting sort keeps edge order).
    std::vector<int> cursor((size_t)numDets_ + 1, 0);
    for (int d = 0; d < numDets_; ++d)
        cursor[(size_t)d + 1] = cursor[d] + degree[(size_t)d];
    nbrs_.resize((size_t)cursor.back());
    std::vector<int> fill(cursor.begin(), cursor.end() - 1);
    for (const auto &edge : dem.edges) {
        const EdgePricer::Price &pr = price(edge);
        if (pr.q <= 0.0 || edge.b == kBoundary)
            continue;
        const int32_t w = pr.weight;
        const uint8_t obs = edge.obsFlip ? 1 : 0;
        nbrs_[(size_t)fill[edge.a]++] = {edge.b, w, obs};
        nbrs_[(size_t)fill[edge.b]++] = {edge.a, w, obs};
    }

    // Pass 3: fold parallel edges into their first occurrence. at[v]
    // is where the current row keeps neighbour v; a value below the
    // row's start is stale, since every earlier row lies below it.
    nbrOffsets_.assign((size_t)numDets_ + 1, 0);
    std::vector<int> at((size_t)numDets_, -1);
    size_t kept = 0;
    for (int d = 0; d < numDets_; ++d) {
        const int row = (int)kept;
        for (int k = cursor[d]; k < cursor[(size_t)d + 1]; ++k) {
            const Nbr nbr = nbrs_[(size_t)k];
            const int j = at[(size_t)nbr.to];
            if (j < row) {
                at[(size_t)nbr.to] = (int)kept;
                nbrs_[kept++] = nbr;
            } else if (lighter(nbr.w, nbr.obs, nbrs_[(size_t)j].w,
                               nbrs_[(size_t)j].obs)) {
                nbrs_[(size_t)j] = nbr;
            }
        }
        nbrOffsets_[(size_t)d + 1] = (int)kept;
    }
    nbrs_.resize(kept);
    numEdges_ = kept / 2;
}

/**
 * One decode call's sparse-blossom state machine. Regions, nodes and
 * the event queue live in the workspace; this struct only binds them
 * to the decoder's graph for the duration of the call.
 */
struct MwpmDecoder::SparseBlossom
{
    using Node = DecodeWorkspace::MwNode;
    using Region = DecodeWorkspace::MwRegion;

    const MwpmDecoder &g;
    DecodeWorkspace &ws;
    const uint64_t call;
    const int *defects;
    const int numDefects;
    Node *node;
    Region *reg;
    int regionsUsed;
    int64_t now = 0;
    bool verdict = false;

    SparseBlossom(const MwpmDecoder &decoder, DecodeWorkspace &w,
                  const int *defect_list, int n)
        : g(decoder), ws(w), call(++w.epoch), defects(defect_list),
          numDefects(n)
    {
        ws.ensureMwpm((size_t)g.numDets_, (size_t)n);
        node = ws.mwNode.data();
        reg = ws.mwRegions.data();
        regionsUsed = n;
        ws.mwFreeRegions.clear();
        ws.mwQueue.clear();
    }

    // ------------------------------------------------------ radii

    int64_t
    radius(const Region &r) const
    {
        return r.y0 + r.rate * (now - r.t0);
    }

    void
    setRate(int r, int rate)
    {
        Region &x = reg[r];
        x.y0 = radius(x);
        x.t0 = now;
        x.rate = rate;
        x.shrinkTime = kNever;
    }

    bool
    covered(int v) const
    {
        return node[v].stamp == call && node[v].top >= 0;
    }

    int64_t
    localRadius(int v) const
    {
        return radius(reg[node[v].top]) + node[v].base;
    }

    // ------------------------------------------------------ events

    /**
     * Earliest event at a covered node: (time, CSR slot of the
     * neighbour, or -1 for the boundary). A growing node can reach an
     * empty neighbour or the boundary; a growing or frozen node can
     * touch a neighbouring region when their radii close in on each
     * other. Shrinking nodes have no events.
     */
    std::pair<int64_t, int>
    nodeEvent(int v) const
    {
        const Node &nv = node[v];
        const Region &t = reg[nv.top];
        if (t.rate < 0)
            return {kNever, 0};
        const int64_t lr = radius(t) + nv.base;
        int64_t best = kNever;
        int which = 0;
        const int row_end = g.nbrOffsets_[(size_t)v + 1];
        for (int k = g.nbrOffsets_[v]; k < row_end; ++k) {
            const Nbr &nbr = g.nbrs_[(size_t)k];
            int64_t at;
            if (!covered(nbr.to)) {
                if (t.rate == 0)
                    continue;
                at = now + (nbr.w - lr);
            } else {
                const Node &nu = node[nbr.to];
                if (nu.top == nv.top)
                    continue;
                const Region &u = reg[nu.top];
                const int closing = t.rate + u.rate;
                if (closing <= 0)
                    continue;
                // Even weights keep this slack even when both grow.
                at = now + (nbr.w - lr - (radius(u) + nu.base)) / closing;
            }
            if (at < best) {
                best = at;
                which = k;
            }
        }
        const int32_t bw = g.boundaryW_[(size_t)v];
        if (t.rate == 1 && bw != kNoBoundary && now + (bw - lr) < best) {
            best = now + (bw - lr);
            which = -1;
        }
        return {best, which};
    }

    void
    scheduleNode(int v)
    {
        const int64_t at = nodeEvent(v).first;
        if (at == node[v].evTime)
            return;   // already queued (or nothing to queue)
        node[v].evTime = at;
        if (at != kNever)
            ws.mwQueue.push(at, v);
    }

    void
    scheduleShrink(int r)
    {
        Region &x = reg[r];
        const int64_t at = x.shellHead >= 0
                               ? now + localRadius(x.shellHead)
                               : now + radius(x);
        x.shrinkTime = at;
        ws.mwQueue.push(at, g.numDets_ + r);
    }

    /** Calls f(v) on every detector covered by region r (its shell,
     *  its source if trivial, and recursively its children's). */
    template <typename F>
    void
    forEachNode(int r, F &&f)
    {
        ws.mwStack.clear();
        ws.mwStack.push_back(r);
        while (!ws.mwStack.empty()) {
            const int x = ws.mwStack.back();
            ws.mwStack.pop_back();
            for (int v = reg[x].shellHead; v >= 0;) {
                const int next = node[v].shellNext;
                f(v);
                v = next;
            }
            if (reg[x].childHead < 0) {
                f(defects[x]);
                continue;
            }
            int c = reg[x].childHead;
            do {
                ws.mwStack.push_back(c);
                c = reg[c].cycleNext;
            } while (c != reg[x].childHead);
        }
    }

    /** Re-time every node event of region r (after its rate rose,
     *  or its nodes changed region). */
    void
    scheduleRegion(int r)
    {
        forEachNode(r, [this](int v) { scheduleNode(v); });
    }

    /** Give top-level region r a new rate and queue what follows: a
     *  shrink event, or node events when the rate rose (a falling
     *  rate only makes queued events early, and early events are
     *  re-timed when they pop). */
    void
    changeRate(int r, int rate)
    {
        const int before = reg[r].rate;
        setRate(r, rate);
        if (rate == -1)
            scheduleShrink(r);
        else if (rate > before)
            scheduleRegion(r);
    }

    // ------------------------------------------------- tree plumbing

    void
    addTreeChild(int parent, int child)
    {
        Region &c = reg[child];
        c.treeParent = parent;
        c.treeSibPrev = -1;
        c.treeSibNext = reg[parent].treeChild;
        if (c.treeSibNext >= 0)
            reg[c.treeSibNext].treeSibPrev = child;
        reg[parent].treeChild = child;
    }

    /** Put `repl` in `old`'s place among its parent's children. */
    void
    replaceTreeChild(int old, int repl)
    {
        Region &o = reg[old];
        Region &r = reg[repl];
        r.treeParent = o.treeParent;
        r.treeSibPrev = o.treeSibPrev;
        r.treeSibNext = o.treeSibNext;
        if (o.treeSibPrev >= 0)
            reg[o.treeSibPrev].treeSibNext = repl;
        else if (o.treeParent >= 0)
            reg[o.treeParent].treeChild = repl;
        if (o.treeSibNext >= 0)
            reg[o.treeSibNext].treeSibPrev = repl;
    }

    void
    clearTree(Region &x)
    {
        x.tree = -1;
        x.treeParent = -1;
        x.treeChild = -1;
        x.treeSibNext = -1;
        x.treeSibPrev = -1;
    }

    void
    setMatch(int r, int partner, const MwEdge &e)
    {
        reg[r].match = partner;
        reg[r].matchEdge = e;
    }

    /**
     * Outer region r takes `partner` over edge e; the path from r to
     * its tree root flips, so every region on it ends up matched.
     */
    void
    augmentPath(int r, int partner, MwEdge e)
    {
        while (true) {
            setMatch(r, partner, e);
            const int inner = reg[r].treeParent;
            if (inner < 0)
                return;
            const int outer = reg[inner].treeParent;
            setMatch(inner, outer, reg[inner].treeEdge);
            partner = inner;
            e = reversed(reg[inner].treeEdge);
            r = outer;
        }
    }

    /** Freeze every region of a tree (all matched by now). */
    void
    dissolveTree(int slot)
    {
        auto &members = ws.mwCycle;
        members.clear();
        members.push_back(ws.mwTreeRoot[slot]);
        for (size_t i = 0; i < members.size(); ++i)
            for (int c = reg[members[i]].treeChild; c >= 0;
                 c = reg[c].treeSibNext)
                members.push_back(c);
        for (const int x : members) {
            clearTree(reg[x]);
            changeRate(x, 0);
        }
        ++ws.statComponents;
    }

    // ------------------------------------------------ matcher events

    /** Growing (outer) region a touches region b over edge e. */
    void
    onCollision(int a, int b, const MwEdge &e)
    {
        const int ta = reg[a].tree;
        const int tb = reg[b].tree;
        if (tb == ta) {
            formBlossom(a, b, e);
        } else if (tb >= 0) {
            augmentPath(a, b, e);
            augmentPath(b, a, reversed(e));
            dissolveTree(ta);
            dissolveTree(tb);
        } else if (reg[b].match == kMatchBoundary) {
            augmentPath(a, b, e);
            setMatch(b, a, reversed(e));
            dissolveTree(ta);
        } else {
            // b's matched pair joins the tree: b shrinks, its partner
            // grows.
            const int c = reg[b].match;
            reg[b].tree = ta;
            reg[b].treeEdge = reversed(e);
            reg[b].treeChild = -1;
            addTreeChild(a, b);
            reg[c].tree = ta;
            reg[c].treeEdge = reg[c].matchEdge;
            reg[c].treeChild = -1;
            addTreeChild(b, c);
            changeRate(b, -1);
            changeRate(c, 1);
        }
    }

    void
    onBoundary(int a, const MwEdge &e)
    {
        augmentPath(a, kMatchBoundary, e);
        dissolveTree(reg[a].tree);
    }

    int
    newRegion()
    {
        if (!ws.mwFreeRegions.empty()) {
            const int r = ws.mwFreeRegions.back();
            ws.mwFreeRegions.pop_back();
            return r;
        }
        return regionsUsed++;
    }

    /** Outer regions a and b of one tree touch over e: the cycle
     *  through their lowest common ancestor becomes a blossom. */
    void
    formBlossom(int a, int b, const MwEdge &e)
    {
        const uint64_t mark = ++ws.mwMark;
        for (int r = a; r >= 0; r = reg[r].treeParent)
            reg[r].mark = mark;
        int lca = b;
        while (reg[lca].mark != mark)
            lca = reg[lca].treeParent;

        // Cycle order: lca, ..., a, b, ..., (back to lca).
        auto &cycle = ws.mwCycle;
        cycle.clear();
        for (int r = a; r != lca; r = reg[r].treeParent)
            cycle.push_back(r);
        cycle.push_back(lca);
        std::reverse(cycle.begin(), cycle.end());
        const size_t a_end = cycle.size();
        for (int r = b; r != lca; r = reg[r].treeParent)
            cycle.push_back(r);

        const int x = newRegion();
        Region &bl = reg[x];
        bl.y0 = 0;
        bl.t0 = now;
        bl.rate = 1;
        bl.shrinkTime = kNever;
        bl.blossomParent = -1;
        bl.childHead = lca;
        bl.shellHead = -1;
        bl.tree = reg[lca].tree;
        bl.treeEdge = reg[lca].treeEdge;
        bl.treeChild = -1;
        bl.match = reg[lca].match;
        bl.matchEdge = reg[lca].matchEdge;
        if (reg[lca].treeParent >= 0) {
            replaceTreeChild(lca, x);
            reg[bl.treeParent].match = x;
        } else {
            bl.treeParent = -1;
            bl.treeSibNext = bl.treeSibPrev = -1;
            ws.mwTreeRoot[bl.tree] = x;
        }

        const size_t k = cycle.size();
        for (size_t i = 0; i < k; ++i) {
            const int m = cycle[i];
            const int next = cycle[(i + 1) % k];
            // Edge from m to next: down the a-side path it is the
            // child's tree edge reversed, a -> b is e, and up the
            // b-side path it is m's own tree edge.
            MwEdge edge;
            if (i + 1 < a_end)
                edge = reversed(reg[next].treeEdge);
            else if (i + 1 == a_end)
                edge = e;
            else
                edge = reg[m].treeEdge;
            reg[m].cycleNext = next;
            reg[m].cycleEdge = edge;
            reg[m].mark = mark + 1;
        }
        ws.mwMark = mark + 1;
        for (size_t i = 0; i < k; ++i) {
            const int m = cycle[i];
            // Tree children outside the cycle hang off the blossom.
            for (int c = reg[m].treeChild; c >= 0;) {
                const int next = reg[c].treeSibNext;
                if (reg[c].mark != mark + 1)
                    addTreeChild(x, c);
                c = next;
            }
        }
        for (size_t i = 0; i < k; ++i) {
            const int m = cycle[i];
            setRate(m, 0);
            clearTree(reg[m]);
            reg[m].blossomParent = x;
            const int64_t y = reg[m].y0;
            forEachNode(m, [this, x, y](int v) {
                node[v].top = x;
                node[v].base += y;
            });
        }
        scheduleRegion(x);
    }

    /** The child of blossom x whose subtree holds defect d. */
    int
    childContaining(int x, int d) const
    {
        int r = d;
        while (reg[r].blossomParent != x)
            r = reg[r].blossomParent;
        return r;
    }

    /** Inner blossom x reached radius 0: its cycle splits into an
     *  even path that stays in the tree and matched pairs. */
    void
    shatter(int x)
    {
        Region &bl = reg[x];
        const int child = bl.match;
        const MwEdge e_in = bl.treeEdge;
        const MwEdge e_out = bl.matchEdge;
        const int slot = bl.tree;

        auto &cycle = ws.mwCycle;
        cycle.clear();
        int c = bl.childHead;
        do {
            cycle.push_back(c);
            c = reg[c].cycleNext;
        } while (c != bl.childHead);
        const int k = (int)cycle.size();
        const int c_in = childContaining(x, e_in.a);
        const int c_out = childContaining(x, e_out.a);
        const int i_in =
            (int)(std::find(cycle.begin(), cycle.end(), c_in) -
                  cycle.begin());
        const int i_out =
            (int)(std::find(cycle.begin(), cycle.end(), c_out) -
                  cycle.begin());
        const int fwd = (i_out - i_in + k) % k;
        const bool forward = fwd % 2 == 0;
        const int path_len = forward ? fwd : k - fwd;

        // Release the children: top level again, own radii.
        for (int i = 0; i < k; ++i) {
            const int m = cycle[i];
            reg[m].blossomParent = -1;
            const int64_t y = reg[m].y0;
            forEachNode(m, [this, m, y](int v) {
                node[v].top = m;
                node[v].base -= y;
            });
            clearTree(reg[m]);
        }

        // The even path c_in .. c_out joins the tree.
        replaceTreeChild(x, c_in);
        reg[c_in].treeEdge = e_in;
        int prev = c_in;
        for (int j = 0; j < path_len; ++j) {
            const int from = cycle[(i_in + (forward ? j : -j) + k) % k];
            const int to =
                cycle[(i_in + (forward ? j + 1 : -j - 1) + k) % k];
            const MwEdge f =
                forward ? reg[from].cycleEdge : reversed(reg[to].cycleEdge);
            reg[to].treeEdge = reversed(f);
            reg[to].treeChild = -1;
            addTreeChild(prev, to);
            if (j % 2 == 0) {
                setMatch(from, to, f);
                setMatch(to, from, reversed(f));
            }
            prev = to;
        }
        setMatch(c_out, child, e_out);
        reg[child].match = c_out;
        reg[child].treeParent = -1;
        reg[c_out].treeChild = -1;
        addTreeChild(c_out, child);
        for (int j = 0; j <= path_len; ++j) {
            const int m = cycle[(i_in + (forward ? j : -j) + k) % k];
            reg[m].tree = slot;
        }

        // The rest of the cycle pairs up along its own edges.
        const int arc_start = forward ? i_out : i_in;
        for (int j = 1; j < k - path_len; j += 2) {
            const int m = cycle[(arc_start + j) % k];
            const int n = cycle[(arc_start + j + 1) % k];
            setMatch(m, n, reg[m].cycleEdge);
            setMatch(n, m, reversed(reg[m].cycleEdge));
            // Frozen now instead of shrinking with the blossom.
            scheduleRegion(m);
            scheduleRegion(n);
        }

        ws.mwFreeRegions.push_back(x);
        for (int j = 0; j <= path_len; ++j) {
            const int m = cycle[(i_in + (forward ? j : -j) + k) % k];
            changeRate(m, j % 2 == 0 ? -1 : 1);
        }
    }

    void
    onShrink(int r)
    {
        Region &x = reg[r];
        if (x.shellHead >= 0) {
            const int v = x.shellHead;
            if (localRadius(v) > 0) {
                scheduleShrink(r);
                return;
            }
            x.shellHead = node[v].shellNext;
            node[v].top = -1;
            node[v].evTime = kNever;
            // Growing neighbours may now move into the released node.
            const int row_end = g.nbrOffsets_[(size_t)v + 1];
            for (int k = g.nbrOffsets_[v]; k < row_end; ++k) {
                const int u = g.nbrs_[(size_t)k].to;
                if (covered(u) && reg[node[u].top].rate == 1)
                    scheduleNode(u);
            }
            scheduleShrink(r);
            return;
        }
        if (radius(x) > 0) {
            scheduleShrink(r);
            return;
        }
        if (x.childHead >= 0) {
            shatter(r);
            return;
        }
        // A defect region at radius 0: its tree parent and child meet
        // through its source, closing an odd cycle.
        const MwEdge up = x.treeEdge;
        const MwEdge down = x.matchEdge;
        onCollision(x.match, x.treeParent,
                    {down.b, up.b, (uint8_t)(down.obs ^ up.obs)});
    }

    void
    onNodeEvent(int v)
    {
        const auto [at, k] = nodeEvent(v);
        if (at == kNever)
            return;
        if (at > now) {
            node[v].evTime = at;
            ws.mwQueue.push(at, v);
            return;
        }
        const Node &nv = node[v];
        if (k < 0) {
            onBoundary(nv.top, {nv.src, -1,
                                (uint8_t)(nv.obs ^ g.boundaryObs_[v])});
        } else {
            const Nbr &nbr = g.nbrs_[(size_t)k];
            const int u = nbr.to;
            if (!covered(u)) {
                const int t = nv.top;
                node[u] = {call,           -radius(reg[t]), kNever, t,
                           nv.src,         reg[t].shellHead,
                           (uint8_t)(nv.obs ^ nbr.obs)};
                reg[t].shellHead = u;
                ++ws.statSettledNodes;
                scheduleNode(u);
            } else {
                const Node &nu = node[u];
                const MwEdge e{nv.src, nu.src,
                               (uint8_t)(nv.obs ^ nbr.obs ^ nu.obs)};
                if (reg[nv.top].rate == 1)
                    onCollision(nv.top, nu.top, e);
                else
                    onCollision(nu.top, nv.top, reversed(e));
            }
        }
        if (covered(v))
            scheduleNode(v);
    }

    // ------------------------------------------------ decode loop

    void
    emit(const MwEdge &e)
    {
        verdict ^= e.obs != 0;
        if (ws.recordCorrections)
            ws.corrections.push_back(
                {defects[e.a], e.b < 0 ? -1 : defects[e.b], e.obs});
    }

    /** Region r is matched through defect d: expand its blossoms
     *  into pairs along their cycles. */
    void
    expand(int r, int d)
    {
        auto &todo = ws.mwExpand;
        todo.clear();
        todo.push_back({r, d});
        while (!todo.empty()) {
            const auto [x, via] = todo.back();
            todo.pop_back();
            if (reg[x].childHead < 0)
                continue;
            const int c = childContaining(x, via);
            for (int m = reg[c].cycleNext; m != c;) {
                const int n = reg[m].cycleNext;
                const MwEdge &e = reg[m].cycleEdge;
                emit(e);
                todo.push_back({m, e.a});
                todo.push_back({n, e.b});
                m = reg[n].cycleNext;
            }
            todo.push_back({c, via});
        }
    }

    bool
    run()
    {
        for (int i = 0; i < numDefects; ++i) {
            Region &r = reg[i];
            r = {};
            r.shrinkTime = kNever;
            r.rate = 1;
            r.blossomParent = -1;
            r.childHead = -1;
            r.shellHead = -1;
            r.match = -1;
            clearTree(r);
            r.tree = i;
            ws.mwTreeRoot[i] = i;
            node[defects[i]] = {call, 0, kNever, i, i, -1, 0};
        }
        for (int i = 0; i < numDefects; ++i)
            scheduleNode(defects[i]);

        while (!ws.mwQueue.empty()) {
            const auto [at, id] = ws.mwQueue.pop();
            if (id < g.numDets_) {
                if (node[id].stamp != call || node[id].evTime != at)
                    continue;
                now = at;
                node[id].evTime = kNever;
                if (covered(id))
                    onNodeEvent(id);
            } else {
                const int r = id - g.numDets_;
                if (reg[r].shrinkTime != at)
                    continue;
                now = at;
                reg[r].shrinkTime = kNever;
                onShrink(r);
            }
        }

        // Trees left when growth stalls cannot reach the boundary or
        // a partner (a detector component without boundary edges):
        // their roots take the boundary with no observable flip.
        for (int i = 0; i < numDefects; ++i) {
            int top = i;
            while (reg[top].blossomParent >= 0)
                top = reg[top].blossomParent;
            const int t = reg[top].tree;
            if (t < 0)
                continue;
            const int root = ws.mwTreeRoot[t];
            int d = root;
            while (reg[d].childHead >= 0)
                d = reg[d].childHead;
            augmentPath(root, kMatchBoundary, {d, -1, 0});
            dissolveTree(t);
        }

        const uint64_t mark = ++ws.mwMark;
        for (int i = 0; i < numDefects; ++i) {
            int top = i;
            while (reg[top].blossomParent >= 0)
                top = reg[top].blossomParent;
            if (reg[top].mark == mark)
                continue;
            reg[top].mark = mark;
            const MwEdge e = reg[top].matchEdge;
            const int partner = reg[top].match;
            if (partner == kMatchBoundary) {
                emit(e);
                expand(top, e.a);
            } else {
                reg[partner].mark = mark;
                emit(e);
                expand(top, e.a);
                expand(partner, e.b);
            }
        }
        ws.statMatchedVerts += (uint64_t)numDefects;
        return verdict;
    }
};

bool
MwpmDecoder::decodeSparse(const int *defects, size_t count,
                          DecodeWorkspace &ws) const
{
    if (count == 0)
        return false;
    return SparseBlossom(*this, ws, defects, (int)count).run();
}

} // namespace qec
