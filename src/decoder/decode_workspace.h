/**
 * @file
 * Reusable per-thread decoder scratch state.
 *
 * Every vector a decoder needs during decode() lives here instead of on
 * the decode stack, so a caller that keeps one DecodeWorkspace per
 * thread pays for allocation and zero-initialization once and then
 * decodes allocation-free in steady state. Validity of per-vertex /
 * per-edge entries is tracked with epoch stamps: bumping the epoch
 * invalidates the whole workspace in O(1), so nothing is cleared
 * between shots and per-shot cost stays proportional to the defect
 * count, not the lattice size (the tesseract / sparse-shot decoding
 * idiom).
 *
 * One workspace serves both decoder implementations; the union-find
 * fields and the MWPM fields are disjoint, and each keeps its own
 * stamp counter, so interleaved use is safe.
 */

#ifndef QEC_DECODER_DECODE_WORKSPACE_H
#define QEC_DECODER_DECODE_WORKSPACE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>


namespace qec
{

/**
 * Monotone min-queue of (time, id) entries for event-driven region
 * growth: a radix heap over non-negative integer keys. Entry e lives
 * in bucket b = 1 + (index of the highest bit where e's key differs
 * from the last popped key), or in bucket 0 when the keys are equal;
 * bucket 0 is sorted by descending id before it is popped from. Pops
 * therefore come out in exactly ascending (time, id) order as long as
 * no push is below the last popped key. Memory grows with the queued
 * entries, never with the key range, and every entry moves to a lower
 * bucket at most 64 times.
 */
class RadixQueue
{
  public:
    bool empty() const { return size_ == 0; }

    /** Drop every entry and restart the key floor at 0. */
    void
    clear()
    {
        buckets_[0].clear();
        for (uint64_t m = nonEmpty_; m != 0; m &= m - 1)
            buckets_[1 + __builtin_ctzll(m)].clear();
        nonEmpty_ = 0;
        last_ = 0;
        size_ = 0;
        b0Sorted_ = true;
    }

    /** Push `key` >= the last popped key (and >= 0). */
    void
    push(int64_t key, int id)
    {
        const uint64_t bits = (uint64_t)key;
        ++size_;
        if (bits == last_) {
            buckets_[0].push_back({bits, id});
            b0Sorted_ = false;
            return;
        }
        const int b = 64 - __builtin_clzll(bits ^ last_);
        buckets_[b].push_back({bits, id});
        nonEmpty_ |= 1ULL << (b - 1);
    }

    /** Remove and return the smallest (key, id); queue must be
     *  non-empty. */
    std::pair<int64_t, int>
    pop()
    {
        auto &b0 = buckets_[0];
        if (b0.empty()) {
            // Raise the floor to the smallest key of the lowest
            // non-empty bucket and spread that bucket downwards.
            const int b = 1 + __builtin_ctzll(nonEmpty_);
            auto &src = buckets_[b];
            uint64_t floor = src[0].key;
            for (const Entry &e : src)
                floor = std::min(floor, e.key);
            last_ = floor;
            for (const Entry &e : src) {
                if (e.key == floor) {
                    b0.push_back(e);
                    continue;
                }
                const int nb = 64 - __builtin_clzll(e.key ^ floor);
                buckets_[nb].push_back(e);
                nonEmpty_ |= 1ULL << (nb - 1);
            }
            src.clear();
            nonEmpty_ &= ~(1ULL << (b - 1));
            b0Sorted_ = false;
        }
        if (!b0Sorted_) {
            std::sort(b0.begin(), b0.end(),
                      [](const Entry &x, const Entry &y) {
                          return x.id > y.id;
                      });
            b0Sorted_ = true;
        }
        const Entry e = b0.back();
        b0.pop_back();
        --size_;
        return {(int64_t)e.key, e.id};
    }

    size_t
    footprintBytes() const
    {
        size_t bytes = 0;
        for (const auto &bucket : buckets_)
            bytes += bucket.capacity() * sizeof(Entry);
        return bytes;
    }

  private:
    struct Entry
    {
        uint64_t key;
        int id;
    };
    std::vector<Entry> buckets_[65];
    /** Bit b - 1 set iff buckets_[b] (b >= 1) is non-empty. */
    uint64_t nonEmpty_ = 0;
    /** The last popped key (the floor). */
    uint64_t last_ = 0;
    size_t size_ = 0;
    /** False after bucket 0 gained entries since its last sort. */
    bool b0Sorted_ = true;
};

/**
 * Scratch state reused across decode calls. Not thread-safe: use one
 * instance per thread. Sized lazily by the decoders on first use.
 */
struct DecodeWorkspace
{
    /** MWPM cover stamp, bumped once per decode call (beginMwpmCall).
     *  0 marks a cover record no call has written. */
    uint32_t mwStamp = 0;

    // Lightweight perf diagnostics, accumulated across decode calls.
    /** MWPM: detectors reached by region growth (a detector released
     *  by a shrinking region and reached again counts again).
     *  Union-find: adjacency entries scanned by growth. */
    uint64_t statSettledNodes = 0;
    /** MWPM: defects matched. Union-find: vertices expanded. */
    uint64_t statMatchedVerts = 0;
    /** MWPM: augmentations, i.e. alternating trees (one or two per
     *  event) resolved into matched pairs. */
    uint64_t statComponents = 0;

    /**
     * When set, decodeSparse additionally appends its chosen
     * correction elements to `corrections`: per element the two
     * detector endpoints (-1 = the boundary) and whether it flips the
     * logical observable. The union-find decoder records each peeled
     * edge; the MWPM decoder records each matched pair / boundary
     * match. The MWPM exactness tests price this list against an
     * oracle.
     */
    bool recordCorrections = false;
    struct CorrectionEdge
    {
        int a;         ///< Detector id or -1 (boundary).
        int b;         ///< Detector id or -1 (boundary).
        uint8_t obs;   ///< Logical-observable flip parity.
    };
    std::vector<CorrectionEdge> corrections;

    // ------------------------------------------------ union-find state
    // Per-vertex entries are valid only when ufNodeStamp[v] ==
    // ufEpoch8; a vertex is lazily initialized the first time a decode
    // touches it. One 24-byte struct per vertex (not struct-of-arrays):
    // lazy-touching a vertex then costs one cache line, and the
    // growth/merge walks are cache-miss-bound on exactly these
    // accesses. Flags are packed into one byte so the struct stays at
    // 24 bytes; the validity stamp lives in the separate byte array
    // below, keeping it out of every touch's write traffic.
    struct UfNode
    {
        int parent;
        // Cluster frontiers as intrusive singly-linked lists: O(1)
        // concat on merge, no per-cluster vectors.
        int fHead;
        int fTail;
        int fSize;
        int fNext;
        uint8_t flags;
    };
    static constexpr uint8_t kUfOdd = 1;
    static constexpr uint8_t kUfBoundary = 2;
    static constexpr uint8_t kUfInCluster = 4;
    static constexpr uint8_t kUfExpanded = 8;
    std::vector<UfNode> ufNode;
    /**
     * Byte-epoch validity stamps: vertex v's UfNode (and peel arrays)
     * are valid iff ufNodeStamp[v] == ufEpoch8, edge e is grown this
     * call iff ufEdgeStamp[e] == ufEpoch8. One BYTE per entry — both
     * arrays stay L1-resident, and the growth/peel passes are bound by
     * exactly these random loads. The epoch wraps at 255: the wrap
     * clears both arrays once, so stale bytes can never alias a live
     * epoch.
     */
    std::vector<uint8_t> ufNodeStamp;
    std::vector<uint8_t> ufEdgeStamp;
    uint8_t ufEpoch8 = 0;
    std::vector<int> ufActive;
    std::vector<int> ufNextActive;
    /** Every edge grown this call with its endpoints and packed
     *  (edge id << 1 | obs) word, recorded while they are hot in
     *  growth's registers — the peel pass builds its compact adjacency
     *  from this list instead of re-walking CSR rows (whose
     *  mostly-ungrown slots dominated peel time). */
    struct GrownEdge
    {
        int u;
        int v;
        int eo;
    };
    std::vector<GrownEdge> ufGrown;
    // Peeling state (valid for vertices touched this call; initialized
    // by touch(), peelDeg maintained inline by growth). Parallel small
    // arrays instead of a struct: each stays L1-resident.
    std::vector<int> peelDeg;      ///< Grown degree; <0 = BFS-visited.
    std::vector<int> peelCursor;   ///< Compact-adjacency fill cursor.
    /** BFS parent: (parent vertex << 32) | packed parent-edge word;
     *  -1 = tree root. */
    std::vector<int64_t> peelParent;
    std::vector<uint8_t> peelCharge;
    /** Vertices touched this call (the grown region), in touch order. */
    std::vector<int> peelOrder;
    std::vector<int> peelQueue;
    /** Compact grown-edge adjacency: (neighbor vertex, packed edge
     *  word). */
    std::vector<std::pair<int, int>> peelAdj;

    // ------------------------------------------------------ MWPM state
    /** Compressed edge between two regions: the source defects
     *  (indices into the decode call's defect list) at either end of
     *  a tight path, and its observable parity. b = -1 is the
     *  boundary. Oriented: `a` lies in the region that stores it. */
    struct MwEdge
    {
        int a;
        int b;
        uint8_t obs;
    };
    /**
     * Per-detector cover record: the part of the flood state that
     * every neighbour scan reads, kept apart from MwNode so a scan
     * loads 8 bytes per neighbour. Valid (and the detector's MwNode
     * with it) iff stamp is the call's compact stamp; see
     * beginMwpmCall.
     */
    struct MwCover
    {
        uint32_t stamp;
        int top;         ///< Top-level covering region; -1 = empty.
    };
    /** Per-detector flood record, valid iff its MwCover is. */
    struct MwNode
    {
        /** Local radius (distance past this node the covering region
         *  reaches) = y(top) + base. */
        int64_t base;
        /** Time of this node's queued event (INT64_MAX: none). */
        int64_t evTime;
        int src;         ///< Source defect of the path that reached it.
        int shellNext;   ///< Next node down its region's shell stack.
        uint8_t obs;     ///< Observable parity back to src.
    };
    /**
     * Sparse-blossom region: a trivial region grows around one defect,
     * a blossom around an odd cycle of child regions. Radius
     * y(t) = y0 + rate * (t - t0); rate +1 grows, -1 shrinks, 0 frozen.
     */
    struct MwRegion
    {
        int64_t y0;
        int64_t t0;
        int64_t shrinkTime;   ///< Queued shrink event (INT64_MAX: none).
        uint64_t mark;
        int rate;
        int blossomParent;    ///< -1: top level.
        int childHead;        ///< First cycle child; -1: trivial.
        int cycleNext;        ///< Next sibling in the parent's cycle.
        MwEdge cycleEdge;     ///< Edge to cycleNext.
        int shellHead;        ///< Nodes reached while top, LIFO.
        int match;            ///< Region, -1 none, -2 boundary.
        MwEdge matchEdge;
        int tree;             ///< Alternating tree slot; -1: none.
        int treeParent;
        MwEdge treeEdge;      ///< Edge to treeParent.
        int treeChild;
        int treeSibNext;
        int treeSibPrev;
    };
    std::vector<MwCover> mwCover;
    std::vector<MwNode> mwNode;
    /** Event queue: node events keyed by detector id, region shrink
     *  events by detector count + region index. */
    RadixQueue mwQueue;
    std::vector<MwRegion> mwRegions;
    std::vector<int> mwFreeRegions;
    std::vector<int> mwTreeRoot;      ///< Tree slot -> root region.
    std::vector<int> mwStack;         ///< Region walk scratch.
    std::vector<int> mwCycle;         ///< Blossom cycle scratch.
    /** Blossom expansion stack: (region, defect it is matched
     *  through). */
    std::vector<std::pair<int, int>> mwExpand;
    uint64_t mwMark = 0;

    /** Size the union-find arrays for a graph with `num_vertices`
     *  vertices (detectors + boundary) and `num_edges` edges. */
    void
    ensureUf(size_t num_vertices, size_t num_edges)
    {
        if (ufNode.size() >= num_vertices &&
            ufEdgeStamp.size() >= num_edges)
            return;
        ufNode.resize(num_vertices, UfNode{});
        // Byte-epoch restart: clear BOTH stamp arrays (a resize keeps
        // old bytes, which could alias the restarted epoch sequence).
        ufNodeStamp.assign(num_vertices, 0);
        ufEdgeStamp.assign(num_edges, 0);
        ufEpoch8 = 0;
        ufActive.reserve(num_vertices);
        ufNextActive.reserve(num_vertices);
        ufGrown.reserve(num_edges);
        peelDeg.resize(num_vertices, 0);
        peelCursor.resize(num_vertices, 0);
        peelParent.resize(num_vertices, 0);
        peelCharge.resize(num_vertices, 0);
        peelOrder.reserve(num_vertices);
        peelQueue.reserve(num_vertices);
        peelAdj.reserve(2 * num_edges);
    }

    /** Size the MWPM arrays for `num_detectors` detectors and a call
     *  with `num_defects` defects: trivial regions 0..n-1, then at
     *  most (n - 1) / 2 live blossoms (each has >= 3 children; freed
     *  slots are reused), so nothing reallocates mid-call. */
    void
    ensureMwpm(size_t num_detectors, size_t num_defects)
    {
        if (mwNode.size() < num_detectors) {
            mwCover.resize(num_detectors, MwCover{});
            mwNode.resize(num_detectors, MwNode{});
        }
        const size_t max_regions = num_defects + num_defects / 2 + 1;
        if (mwRegions.size() < max_regions)
            mwRegions.resize(max_regions);
        if (mwTreeRoot.size() < num_defects)
            mwTreeRoot.resize(num_defects);
    }

    /**
     * Start an MWPM call: bump mwStamp and return it. When the stamp
     * wraps to 0 every cover record is cleared once and the call takes
     * stamp 1, so a stale stamp can never alias a live one (the same
     * pattern as ufEpoch8).
     */
    uint32_t
    beginMwpmCall()
    {
        if (++mwStamp == 0) {
            for (MwCover &c : mwCover)
                c.stamp = 0;
            mwStamp = 1;
        }
        return mwStamp;
    }

    /** Total bytes owned by the workspace (tests pin that this stops
     *  growing once decode reaches steady state). */
    size_t
    footprintBytes() const
    {
        auto bytes = [](const auto &v) {
            return v.capacity() *
                   sizeof(typename std::remove_reference_t<
                          decltype(v)>::value_type);
        };
        return bytes(ufNode) + bytes(ufNodeStamp) +
               bytes(ufEdgeStamp) + bytes(ufActive) +
               bytes(ufNextActive) + bytes(ufGrown) +
               bytes(peelDeg) + bytes(peelCursor) + bytes(peelParent) +
               bytes(peelCharge) + bytes(peelAdj) +
               bytes(peelOrder) + bytes(peelQueue) + bytes(corrections) +
               bytes(mwCover) + bytes(mwNode) +
               mwQueue.footprintBytes() + bytes(mwRegions) +
               bytes(mwFreeRegions) + bytes(mwTreeRoot) +
               bytes(mwStack) + bytes(mwCycle) + bytes(mwExpand);
    }
};

} // namespace qec

#endif // QEC_DECODER_DECODE_WORKSPACE_H
