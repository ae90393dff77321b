#include "decoder/component_decoder.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <tuple>

#include "base/logging.h"

namespace qec
{

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** One anchored edge of a row signature: two rows are translation-
 *  equivalent iff their sorted signature lists are equal. */
using RowSig = std::tuple<int, int, int, int, int, int, int>;

} // namespace

ComponentGraph::ComponentGraph(const DetectorModel &dem, double p)
    : numDets_(dem.numDetectors()),
      stabsPerRound_(std::max(dem.stabsPerRound, 1)),
      rows_(dem.rounds + 1)
{
    EdgePricer price(p);

    // Detector-only adjacency over the positive-probability edges
    // (the decoders' graphs minus the boundary edges: composition
    // handles boundary sharing exactly, so the split must not merge
    // components through the boundary vertex). Counting-sort CSR.
    std::vector<int> degree((size_t)numDets_, 0);
    size_t pair_edges = 0;
    for (const auto &edge : dem.edges) {
        if (price(edge).q <= 0.0 || edge.b == kBoundary)
            continue;
        ++degree[edge.a];
        ++degree[edge.b];
        ++pair_edges;
        maxRowSpan_ = std::max(
            maxRowSpan_, std::abs(dem.detectorRound(edge.a) -
                                  dem.detectorRound(edge.b)));
    }
    csrOffsets_.assign((size_t)numDets_ + 1, 0);
    for (int d = 0; d < numDets_; ++d)
        csrOffsets_[(size_t)d + 1] = csrOffsets_[d] + degree[d];
    csrAdj_.resize(2 * pair_edges);
    std::vector<int> cursor(csrOffsets_.begin(), csrOffsets_.end() - 1);
    for (const auto &edge : dem.edges) {
        if (price(edge).q <= 0.0 || edge.b == kBoundary)
            continue;
        csrAdj_[(size_t)cursor[edge.a]++] = edge.b;
        csrAdj_[(size_t)cursor[edge.b]++] = edge.a;
    }

    // Translation-invariant row range: anchor every positive edge at
    // its earlier-row endpoint and collect per-row signatures; the
    // maximal run of identical signatures around the middle row is
    // the bulk. Canonical cache keys shift defect lists within this
    // range only, after a reach-margin check, so equality of the
    // signatures is exactly the isomorphism the replay relies on.
    std::vector<std::vector<RowSig>> sig((size_t)rows_);
    for (const auto &edge : dem.edges) {
        if (price(edge).q <= 0.0)
            continue;
        int a = edge.a;
        int b = edge.b;
        if (b == kBoundary) {
            sig[(size_t)dem.detectorRound(a)].push_back(
                {dem.detectorStab(a), -1000, -1,
                 edge.obsFlip ? 1 : 0, edge.n1, edge.n3, edge.n15});
            continue;
        }
        if (dem.detectorRound(a) > dem.detectorRound(b) ||
            (dem.detectorRound(a) == dem.detectorRound(b) &&
             dem.detectorStab(a) > dem.detectorStab(b)))
            std::swap(a, b);
        sig[(size_t)dem.detectorRound(a)].push_back(
            {dem.detectorStab(a),
             dem.detectorRound(b) - dem.detectorRound(a),
             dem.detectorStab(b), edge.obsFlip ? 1 : 0, edge.n1,
             edge.n3, edge.n15});
    }
    for (auto &row : sig)
        std::sort(row.begin(), row.end());
    const int mid = rows_ / 2;
    bulkLo_ = mid;
    bulkHi_ = mid;
    while (bulkLo_ > 0 && sig[(size_t)bulkLo_ - 1] == sig[(size_t)mid])
        --bulkLo_;
    while (bulkHi_ + 1 < rows_ &&
           sig[(size_t)bulkHi_ + 1] == sig[(size_t)mid])
        ++bulkHi_;

    // All-pairs distance table of the stab QUOTIENT graph (project
    // every detector-detector edge onto its stab indices; same-stab
    // edges become self-loops and vanish). dist(u, v) >=
    // qdist(stab(u), stab(v)) exactly — see the header's morphism
    // argument — and the table is tiny (stabsPerRound^2 bytes), so
    // both the split and the composition guard read exact spatial
    // bounds with one L1 load per pair.
    const int nstabs = stabsPerRound_;
    if (nstabs > 0 &&
        (size_t)nstabs * (size_t)nstabs <= (size_t)(16u << 20)) {
        std::vector<int> stabAdjOff((size_t)nstabs + 1, 0);
        std::vector<int> stabAdj;
        std::vector<std::pair<int, int>> stab_edges;
        for (const auto &edge : dem.edges) {
            if (price(edge).q <= 0.0 || edge.b == kBoundary)
                continue;
            const int sa = dem.detectorStab(edge.a);
            const int sb = dem.detectorStab(edge.b);
            if (sa != sb)
                stab_edges.push_back({sa, sb});
        }
        for (const auto &e : stab_edges) {
            ++stabAdjOff[(size_t)e.first + 1];
            ++stabAdjOff[(size_t)e.second + 1];
        }
        for (int s = 0; s < nstabs; ++s)
            stabAdjOff[(size_t)s + 1] += stabAdjOff[s];
        stabAdj.resize(2 * stab_edges.size());
        std::vector<int> cur(stabAdjOff.begin(), stabAdjOff.end() - 1);
        for (const auto &e : stab_edges) {
            stabAdj[(size_t)cur[e.first]++] = e.second;
            stabAdj[(size_t)cur[e.second]++] = e.first;
        }

        qdist_.assign((size_t)nstabs * (size_t)nstabs, 0xff);
        std::vector<int> queue;
        queue.reserve((size_t)nstabs);
        for (int src = 0; src < nstabs; ++src) {
            uint8_t *row = qdist_.data() + (size_t)src * nstabs;
            queue.clear();
            row[src] = 0;
            queue.push_back(src);
            for (size_t head = 0; head < queue.size(); ++head) {
                const int u = queue[head];
                // Saturate at 0xfe (a valid lower bound) so 0xff
                // keeps meaning "provably disconnected".
                const uint8_t nd =
                    row[u] >= 0xfe ? 0xfe : (uint8_t)(row[u] + 1);
                for (int e = stabAdjOff[u];
                     e < stabAdjOff[(size_t)u + 1]; ++e) {
                    const int w = stabAdj[e];
                    if (row[w] != 0xff)
                        continue;
                    row[w] = nd;
                    queue.push_back(w);
                }
            }
        }
    }
}

int
ComponentGraph::split(const int *defects, size_t count,
                      int hop_radius, DecodeWorkspace &ws) const
{
    const int n = (int)count;
    ws.ensureComponents(count);

    // Union-find over defect indices; path-halving find.
    for (int i = 0; i < n; ++i)
        ws.cgParent[i] = i;
    auto findSet = [&](int v) {
        while (ws.cgParent[v] != v) {
            ws.cgParent[v] = ws.cgParent[ws.cgParent[v]];
            v = ws.cgParent[v];
        }
        return v;
    };
    auto unite = [&](int a, int b) {
        a = findSet(a);
        b = findSet(b);
        if (a != b)
            ws.cgParent[std::max(a, b)] = std::min(a, b);
    };

    // Merge every defect pair whose hop distance cannot be PROVEN
    // > 2h by the row / landmark-potential lower bounds — a superset
    // of radius-h ball overlap, so cross-component defects are
    // certified >= 2h+1 hops apart without ever walking the detector
    // graph. Defect ids are row-major, so after sorting an index
    // permutation by id the row window becomes a contiguous index
    // window and the scan is O(pairs within 2h*maxRowSpan rows).
    ws.cgQueue.resize(count);
    for (int i = 0; i < n; ++i)
        ws.cgQueue[i] = i;
    std::sort(ws.cgQueue.begin(), ws.cgQueue.end(),
              [&](int a, int b) { return defects[a] < defects[b]; });
    const int row_cap = 2 * hop_radius * maxRowSpan_;
    for (int a = 0; a < n; ++a) {
        const int ia = ws.cgQueue[a];
        const int da = defects[ia];
        const int row_a = da / stabsPerRound_;
        for (int b = a + 1; b < n; ++b) {
            const int ib = ws.cgQueue[b];
            const int db = defects[ib];
            if (db / stabsPerRound_ - row_a > row_cap)
                break;
            if (findSet(ia) == findSet(ib))
                continue;
            // The row window already failed to prove > 2h; the only
            // remaining separator is the quotient distance.
            if (quotientDistance(da % stabsPerRound_,
                                 db % stabsPerRound_) <=
                2 * hop_radius)
                unite(ia, ib);
        }
    }

    // Label components by first appearance and group the defects in
    // ORIGINAL list order (verdict composition is bit-identical to
    // the joint decode only because each sublist preserves it).
    int num_comps = 0;
    for (int i = 0; i < n; ++i) {
        if (findSet(i) == i)
            ws.cgLabel[i] = num_comps++;
    }
    ws.compOffsets.assign((size_t)num_comps + 1, 0);
    for (int i = 0; i < n; ++i)
        ++ws.compOffsets[(size_t)ws.cgLabel[findSet(i)] + 1];
    for (int c = 0; c < num_comps; ++c)
        ws.compOffsets[(size_t)c + 1] += ws.compOffsets[c];
    ws.compDefects.resize(count);
    ws.compCursor.assign(ws.compOffsets.begin(),
                         ws.compOffsets.end() - 1);
    ws.compMinRow.assign((size_t)num_comps, rows_);
    ws.compMaxRow.assign((size_t)num_comps, -1);
    for (int i = 0; i < n; ++i) {
        const int c = ws.cgLabel[findSet(i)];
        ws.compDefects[(size_t)ws.compCursor[c]++] = defects[i];
        const int row = rowOf(defects[i]);
        ws.compMinRow[c] = std::min(ws.compMinRow[c], row);
        ws.compMaxRow[c] = std::max(ws.compMaxRow[c], row);
    }
    return num_comps;
}

int
ComponentGraph::hopDistance(int a, int b, int cap) const
{
    if (a == b)
        return 0;
    std::vector<int> dist((size_t)numDets_, -1);
    std::vector<int> queue;
    dist[a] = 0;
    queue.push_back(a);
    for (size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        if (dist[u] >= cap)
            break;
        const int row_end = csrOffsets_[(size_t)u + 1];
        for (int k = csrOffsets_[u]; k < row_end; ++k) {
            const int w = csrAdj_[k];
            if (dist[w] >= 0)
                continue;
            if (w == b)
                return dist[u] + 1;
            dist[w] = dist[u] + 1;
            queue.push_back(w);
        }
    }
    return cap + 1;
}

int
ComponentGraph::pairDistanceLowerBound(const DecodeWorkspace &ws,
                                       int ci, int cj) const
{
    // Min over defect cross pairs of the per-pair bound; reads the
    // SPLIT's sublists (compOffsets / compDefects), which stay intact
    // through guard merging. Components are tiny, so the quadratic
    // scan is a handful of L1 loads.
    int lb = INT_MAX;
    for (int a = ws.compOffsets[ci];
         a < ws.compOffsets[(size_t)ci + 1]; ++a) {
        const int da = ws.compDefects[a];
        for (int b = ws.compOffsets[cj];
             b < ws.compOffsets[(size_t)cj + 1]; ++b) {
            lb = std::min(
                lb, defectDistanceLowerBound(da, ws.compDefects[b]));
            if (lb == 0)
                return 0;
        }
    }
    return lb;
}

ComponentCache::ComponentCache(const ComponentDecodeOptions &options)
    : arenaCapacity_(options.arenaCapacity)
{
    // At least 4 slots, so the flush threshold leaves a free slot
    // for every probe chain to end on (see SyndromeCache).
    const uint32_t log2 = std::clamp(options.tableLog2, 2u, 24u);
    slots_.resize(size_t{1} << log2);
    mask_ = slots_.size() - 1;
    arena_.reserve(arenaCapacity_);
}

namespace
{

inline uint64_t
componentKeyHash(const int *defects, size_t count, int shift,
                 bool canonical)
{
    // Shifted and absolute keys live in disjoint hash namespaces so
    // a canonical entry can never satisfy an absolute probe (or vice
    // versa) even for numerically identical lists.
    uint64_t h = kFnvOffset ^ (canonical ? 0x9e3779b9u : 0u);
    for (size_t k = 0; k < count; ++k)
        h = (h ^ (uint64_t)(uint32_t)(defects[k] - shift)) * kFnvPrime;
    return h;
}

inline bool
componentKeyEquals(const int *stored, const int *defects,
                   size_t count, int shift)
{
    for (size_t k = 0; k < count; ++k) {
        if (stored[k] != defects[k] - shift)
            return false;
    }
    return true;
}

} // namespace

bool
ComponentCache::lookup(const int *defects, size_t count, int shift,
                       bool canonical, int max_reach, bool &verdict,
                       int &reach)
{
    const uint64_t hash =
        componentKeyHash(defects, count, shift, canonical);
    size_t slot = hash & mask_;
    while (slots_[slot].flags & 1) {
        const Slot &s = slots_[slot];
        if (s.hash == hash && s.count == count &&
            ((s.flags >> 1) & 1) == (canonical ? 1 : 0) &&
            componentKeyEquals(arena_.data() + s.offset, defects,
                               count, shift)) {
            if (canonical && (int)s.reach > max_reach) {
                // The stored decode's reach-ball does not fit this
                // placement's bulk margin: replaying it here could
                // see a different graph, so treat as a miss (exact,
                // just less reuse).
                ++stats_.marginRejects;
                break;
            }
            verdict = s.verdict != 0;
            reach = (int)s.reach;
            ++stats_.hits;
            if (canonical)
                ++stats_.canonicalHits;
            return true;
        }
        slot = (slot + 1) & mask_;
    }
    ++stats_.misses;
    return false;
}

void
ComponentCache::insert(const int *defects, size_t count, int shift,
                       bool canonical, bool verdict, int reach)
{
    if (count > arenaCapacity_)
        return;
    if (used_ + 1 > slots_.size() - slots_.size() / 4 ||
        arena_.size() + count > arenaCapacity_) {
        stats_.lastFlush = {stats_.hits - hitsAtFlush_,
                            stats_.misses - missesAtFlush_,
                            (uint64_t)used_,
                            (double)used_ / (double)slots_.size()};
        hitsAtFlush_ = stats_.hits;
        missesAtFlush_ = stats_.misses;
        stats_.evictions += used_;
        ++stats_.flushes;
        flush();
    }
    const uint64_t hash =
        componentKeyHash(defects, count, shift, canonical);
    size_t slot = hash & mask_;
    while (slots_[slot].flags & 1) {
        const Slot &s = slots_[slot];
        if (s.hash == hash && s.count == count &&
            ((s.flags >> 1) & 1) == (canonical ? 1 : 0) &&
            componentKeyEquals(arena_.data() + s.offset, defects,
                               count, shift))
            return;   // already cached
        slot = (slot + 1) & mask_;
    }
    Slot &s = slots_[slot];
    s.hash = hash;
    s.offset = (uint32_t)arena_.size();
    s.count = (uint32_t)count;
    s.reach = (uint16_t)std::min(reach, 0xffff);
    s.verdict = verdict ? 1 : 0;
    s.flags = (uint8_t)(1 | (canonical ? 2 : 0));
    for (size_t k = 0; k < count; ++k)
        arena_.push_back(defects[k] - shift);
    ++used_;
}

void
ComponentCache::flush()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    arena_.clear();
    used_ = 0;
}

} // namespace qec
