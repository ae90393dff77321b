/**
 * @file
 * Connected-component decomposition and exact per-component result
 * caching for the batch decode pipeline.
 *
 * At the error rates ERASER targets a shot's defects fall into small
 * clusters that are far apart on the detector graph. Whole-syndrome
 * dedup (SyndromeCache) only reuses a decode when the *entire* lane
 * repeats; components repeat far more often — a single measurement-
 * error defect pair recurs thousands of times per sweep — so the
 * pipeline splits each lane into components, decodes/caches each
 * component alone, and XOR-composes the per-component observable-flip
 * verdicts into the lane verdict.
 *
 * Exactness contract (never approximate):
 *  - ComponentGraph::split merges every defect pair it cannot PROVE
 *    > 2h hops apart on the detector adjacency (boundary edges
 *    excluded), so defects in different components are certified
 *    > 2h hops apart. The proof uses two exact distance lower
 *    bounds, shared with the composition guard: the time axis (each
 *    hop moves at most maxRowSpan rows, so dist >= ceil(row gap /
 *    maxRowSpan)) and the stab-quotient axis. The map detector ->
 *    stab index is a graph morphism onto the stab QUOTIENT graph
 *    (every detector-detector DEM edge projects to a quotient edge
 *    or a self-loop), so any detector path projects to a quotient
 *    walk of no greater length and dist(u, v) >= qdist(stab(u),
 *    stab(v)) exactly; the quotient has only stabsPerRound vertices,
 *    so the full all-pairs qdist table is precomputed (a few KB,
 *    cache-resident) — the tightest purely spatial bound available.
 *  - Every decode reports a hop-reach certificate: all graph state
 *    that decode (or its restriction inside a larger shot) can touch
 *    lies within `reach` hops of its defects. The union-find decoder
 *    measures its growth-layer count. Only decoders whose
 *    Decoder::componentSlackHops is 0 (union-find) are composed;
 *    decoders that certify no reach (MWPM) keep every lane on the
 *    whole-shot path.
 *  - Composition is applied only when every pair of components is
 *    provably farther apart than the sum of its reach certificates:
 *    the touched regions are then pairwise disjoint balls with no
 *    connecting edge, the joint decode evolves as the disjoint union
 *    of the component-alone decodes, and the joint verdict is exactly
 *    the XOR of the component verdicts. The split itself certifies a
 *    2h+1 hop separation for every pair; pairs needing more are
 *    re-checked against the exact per-pair bounds above (a set
 *    distance is the min over cross pairs, so the component bound is
 *    the min over defect cross pairs), and pairs failing both are
 *    merged and re-decoded as one group — so verdicts are
 *    bit-identical to the uncached path by construction.
 *
 * Canonical (time-translated) keying: the bulk rows of a memory
 * experiment's DEM are tilings of one round, so a component in the
 * bulk is keyed by its defect list shifted to a canonical anchor row.
 * A canonical entry stores its reach and is replayed at another
 * placement only when the reach-ball fits inside the translation-
 * invariant row range at BOTH placements (the margin check) — the two
 * decodes then run on isomorphic subgraphs and are verdict-identical.
 * Components that do not fit are keyed by absolute detector ids.
 */

#ifndef QEC_DECODER_COMPONENT_DECODER_H
#define QEC_DECODER_COMPONENT_DECODER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "decoder/decode_workspace.h"
#include "decoder/detector_model.h"

namespace qec
{

/** Knobs for the component split + cache stage of the pipeline. */
struct ComponentDecodeOptions
{
    /**
     * Use component-granular dispatch on the batched decode path
     * (requires a ComponentGraph; exact at any setting). Off by
     * default: the stage pays for itself when defects are sparse
     * enough that components repeat (low p, or small lattices), but
     * at the paper's headline density (d = 11, p = 1e-3 — ~50
     * defects per shot) the split + guard work and the merged-group
     * re-decodes cost more than the component-cache hits save, and
     * the plain whole-shot decodeSparse path is faster. Verdicts are
     * bit-identical either way; this knob is purely performance.
     */
    bool enabled = false;
    /**
     * Separation radius h of the decomposition: two defects share a
     * component unless the row / landmark-potential bounds prove them
     * > 2h hops apart, so cross-component defects are certified
     * >= 2h+1 hops apart. Pairs of components whose reach certificates
     * outrun that separation are re-checked (and if necessary merged)
     * by the exactness guard. Radius 2 is the sweet spot at ERASER
     * error rates: the union-find decoder's typical reach certificate
     * is 1-2 growth layers, so almost every pair clears the 2h+1
     * separation without guard work, while the split — a sorted
     * row-window pair scan, never a graph walk — stays a few us even
     * at this radius.
     */
    int hopRadius = 2;
    /** log2 of the component cache's slot count (clamped to
     *  [2, 24]). */
    uint32_t tableLog2 = 15;
    /** Capacity of the component cache's defect arena (ints). */
    uint32_t arenaCapacity = 1u << 18;
    /** Key bulk components by their time-translated canonical lists
     *  (margin-checked; exact). Off = absolute ids only. */
    bool canonicalKeys = true;
};

/**
 * Immutable per-(DEM, p) companion of the decoders: detector-only
 * adjacency in flat CSR form for the component split, plus the row
 * geometry and translation-invariant (bulk) row range that canonical
 * cache keys rely on. Stateless after construction — share one
 * instance across threads; all mutable split state lives in the
 * caller's DecodeWorkspace.
 */
class ComponentGraph
{
  public:
    /** @param p Physical error rate; edges with probability(p) <= 0
     *  are dropped, matching both decoders' graphs. */
    ComponentGraph(const DetectorModel &dem, double p);

    /**
     * Split `defects` (any order, duplicates allowed) into components
     * certified pairwise > 2 * `hop_radius` hops apart: a defect pair
     * is merged unless a row-gap or landmark-potential bound proves
     * the separation. Fills the workspace's component arrays:
     * component c's defects are
     * ws.compDefects[ws.compOffsets[c] .. ws.compOffsets[c+1]) in the
     * ORIGINAL list order (composition bit-identity depends on it),
     * with row extents in ws.compMinRow / ws.compMaxRow. Components
     * are numbered by first appearance in the defect list. Returns
     * the component count.
     */
    int split(const int *defects, size_t count, int hop_radius,
              DecodeWorkspace &ws) const;

    int numDetectors() const { return numDets_; }
    int stabsPerRound() const { return stabsPerRound_; }
    /** Detector rows (rounds + 1). */
    int rows() const { return rows_; }
    int rowOf(int det) const { return det / stabsPerRound_; }
    /** Max row distance spanned by any edge (>= 1). */
    int maxRowSpan() const { return maxRowSpan_; }
    /** Translation-invariant row range [bulkLo, bulkHi]: every row in
     *  it has an identical anchored-edge signature, so defect lists
     *  shifted within it see isomorphic graphs. */
    int bulkLo() const { return bulkLo_; }
    int bulkHi() const { return bulkHi_; }
    bool bulkValid() const { return bulkHi_ > bulkLo_; }

    /**
     * Largest reach certificate a canonical cache entry may carry and
     * still be replayed for a component spanning rows
     * [min_row, max_row]: the (reach + 1)-hop ball (plus incident
     * edges) must stay inside the bulk range. Negative = ineligible.
     */
    int
    canonicalReachLimit(int min_row, int max_row) const
    {
        if (!bulkValid() || min_row < bulkLo_ || max_row > bulkHi_)
            return -1;
        const int margin =
            std::min(min_row - bulkLo_, bulkHi_ - max_row);
        return margin / maxRowSpan_ - 2;
    }

    /** Canonical key shift: subtracted from every defect id so the
     *  component anchors at row bulkLo. */
    int
    canonicalShift(int min_row) const
    {
        return (min_row - bulkLo_) * stabsPerRound_;
    }

    /** quotientDistance value meaning "provably no connecting path"
     *  (the quotient graph is disconnected between the two stabs). */
    static constexpr int kQuotientFar = 1 << 20;

    /**
     * Exact shortest-path distance between two stab indices on the
     * stab quotient graph — a lower bound on the hop distance between
     * any two detectors with those stab indices (see the file-top
     * morphism argument). Returns 0 (no bound) when the table was too
     * large to precompute, kQuotientFar when provably disconnected.
     */
    int
    quotientDistance(int sa, int sb) const
    {
        if (qdist_.empty())
            return 0;
        const uint8_t q =
            qdist_[(size_t)sa * (size_t)stabsPerRound_ + (size_t)sb];
        return q == 0xff ? kQuotientFar : (int)q;
    }

    /**
     * Lower bound on the hop distance between defect `da` and defect
     * `db`: the max of the row-gap bound and the quotient distance.
     */
    int
    defectDistanceLowerBound(int da, int db) const
    {
        const int row_gap = std::abs(rowOf(da) - rowOf(db));
        const int row_lb =
            (row_gap + maxRowSpan_ - 1) / maxRowSpan_;
        return std::max(row_lb,
                        quotientDistance(da % stabsPerRound_,
                                         db % stabsPerRound_));
    }

    /**
     * Lower bound on the hop distance between any defect of component
     * `ci` and any defect of component `cj` (components of the latest
     * split recorded in `ws`, BEFORE any guard merging): a set
     * distance is the min over cross pairs, so this is the min of
     * defectDistanceLowerBound over the two defect sublists. Returns
     * 0 when no axis separates some pair.
     */
    int pairDistanceLowerBound(const DecodeWorkspace &ws, int ci,
                               int cj) const;

    /**
     * Exact hop distance between two detectors on the detector
     * adjacency (boundary edges excluded), capped at `cap`: returns
     * cap + 1 when farther apart or disconnected. Plain BFS that
     * allocates — validation/test helper, never on the decode path
     * (the decode path uses only the O(1) lower bounds above).
     */
    int hopDistance(int a, int b, int cap) const;

  private:
    int numDets_ = 0;
    int stabsPerRound_ = 1;
    int rows_ = 0;
    int maxRowSpan_ = 1;
    int bulkLo_ = 0;
    int bulkHi_ = -1;
    /** All-pairs stab-quotient distances, row-major
     *  [stabsPerRound][stabsPerRound], 0xff = disconnected (empty
     *  when the table would be unreasonably large). */
    std::vector<uint8_t> qdist_;
    /** Detector-to-detector adjacency (boundary edges excluded):
     *  neighbours of d live at csrAdj_[csrOffsets_[d] ..
     *  csrOffsets_[d+1]). Only hopDistance walks it. */
    std::vector<int> csrOffsets_;
    std::vector<int> csrAdj_;
};

/** One flush of the component cache, for occupancy diagnostics. */
struct ComponentCacheFlush
{
    uint64_t hits = 0;       ///< Hits since the previous flush.
    uint64_t misses = 0;     ///< Misses since the previous flush.
    uint64_t evicted = 0;    ///< Entries dropped by this flush.
    double occupancy = 0.0;  ///< Slot occupancy when flushed.
};

struct ComponentCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t flushes = 0;
    uint64_t evictions = 0;        ///< Total entries dropped.
    uint64_t canonicalHits = 0;    ///< Hits on translated keys.
    uint64_t marginRejects = 0;    ///< Canonical hits vetoed by reach.
    ComponentCacheFlush lastFlush; ///< Most recent flush snapshot.

    double
    hitRate() const
    {
        const uint64_t total = hits + misses;
        return total == 0 ? 0.0 : (double)hits / (double)total;
    }
};

/**
 * Open-addressed exact cache of per-component verdicts. Entries store
 * the (canonically shifted) defect list, the observable-flip verdict,
 * and the decode's hop-reach certificate. Hits compare the full
 * stored list, so collisions can never replay a wrong verdict; when
 * either backing array fills the cache flushes wholesale (counted,
 * with occupancy recorded) — steady state allocates nothing.
 */
class ComponentCache
{
  public:
    explicit ComponentCache(const ComponentDecodeOptions &options);

    /**
     * Look up a component. The key is the defect list with `shift`
     * subtracted from every id; `canonical` selects the key namespace
     * (mixed into the hash so shifted and absolute keys never
     * collide). A canonical hit additionally requires the stored
     * reach certificate <= `max_reach` (the current placement's
     * margin) — rejects count as misses. On hit fills `verdict` and
     * `reach`.
     */
    bool lookup(const int *defects, size_t count, int shift,
                bool canonical, int max_reach, bool &verdict,
                int &reach);

    /** Record a decoded component under the same keying rules. */
    void insert(const int *defects, size_t count, int shift,
                bool canonical, bool verdict, int reach);

    const ComponentCacheStats & stats() const { return stats_; }
    void resetStats() { stats_ = {}; }
    size_t size() const { return used_; }

  private:
    struct Slot
    {
        uint64_t hash = 0;
        uint32_t offset = 0;
        uint32_t count = 0;
        uint16_t reach = 0;
        uint8_t verdict = 0;
        uint8_t flags = 0;   ///< bit0 used, bit1 canonical.
    };

    void flush();

    ComponentCacheStats stats_;
    uint64_t hitsAtFlush_ = 0;
    uint64_t missesAtFlush_ = 0;
    std::vector<Slot> slots_;
    std::vector<int> arena_;
    uint32_t arenaCapacity_ = 0;
    size_t used_ = 0;
    uint64_t mask_ = 0;
};

} // namespace qec

#endif // QEC_DECODER_COMPONENT_DECODER_H
