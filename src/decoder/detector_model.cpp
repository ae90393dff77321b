#include "decoder/detector_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <unordered_map>

#include "base/logging.h"

namespace qec
{

double
DemEdge::probability(double p) const
{
    // XOR-combination of independent mechanisms: the edge fires iff an
    // odd number of its mechanisms fire.
    // P(odd) = (1 - prod(1 - 2 q_i)) / 2.
    double prod = 1.0;
    prod *= std::pow(1.0 - 2.0 * p, n1);
    prod *= std::pow(1.0 - 2.0 * (p / 3.0), n3);
    prod *= std::pow(1.0 - 2.0 * (p / 15.0), n15);
    return (1.0 - prod) / 2.0;
}

namespace
{

/** Weight clamp so integer weights fit in 32 bits. */
constexpr double kMaxWeight = 1.0e6;
/** Fixed-point scale of the integer weights. */
constexpr double kWeightScale = 1024.0;
/** Bits per count in an EdgePricer key. */
constexpr int kCountBits = 21;

/** Slot of `key` in an open-addressed table: its own, or the empty
 *  slot where it belongs. */
size_t
probe(const std::vector<uint64_t> &keys, uint64_t key)
{
    const size_t mask = keys.size() - 1;
    size_t i = (size_t)((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (keys[i] != 0 && keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

} // namespace

int32_t
matchingWeight(double q)
{
    q = std::min(std::max(q, 1.0e-12), 0.499999);
    const double w = std::min(std::log((1.0 - q) / q), kMaxWeight);
    return 2 * (int32_t)std::llround(w * kWeightScale / 2.0);
}

EdgePricer::EdgePricer(double p) : p_(p), keys_(64, 0), prices_(64) {}

const EdgePricer::Price &
EdgePricer::operator()(const DemEdge &edge)
{
    constexpr uint64_t kLimit = 1ULL << kCountBits;
    panicIf((uint64_t)edge.n1 >= kLimit || (uint64_t)edge.n3 >= kLimit ||
                (uint64_t)edge.n15 >= kLimit,
            "DEM edge mechanism count out of range");
    // +1 keeps every triple off the empty key 0.
    const uint64_t key = 1 + ((uint64_t)edge.n1 |
                              (uint64_t)edge.n3 << kCountBits |
                              (uint64_t)edge.n15 << (2 * kCountBits));
    size_t i = probe(keys_, key);
    if (keys_[i] == key)
        return prices_[i];
    if (2 * (used_ + 1) > keys_.size()) {
        grow();
        i = probe(keys_, key);
    }
    keys_[i] = key;
    const double q = edge.probability(p_);
    prices_[i] = {q, matchingWeight(q)};
    ++used_;
    return prices_[i];
}

void
EdgePricer::grow()
{
    std::vector<uint64_t> keys(keys_.size() * 2, 0);
    std::vector<Price> prices(keys.size());
    for (size_t j = 0; j < keys_.size(); ++j) {
        if (keys_[j] == 0)
            continue;
        const size_t i = probe(keys, keys_[j]);
        keys[i] = keys_[j];
        prices[i] = prices_[j];
    }
    keys_.swap(keys);
    prices_.swap(prices);
}

namespace
{

/** Probability class of a mechanism (shared error rate divisor). */
enum class ProbClass { P1, P3, P15 };

/** Signature of one mechanism: flipped detectors + observable. */
struct Signature
{
    std::vector<int> dets;
    bool obs = false;
};

/**
 * Accumulates mechanisms into merged DEM edges. Edges are keyed by
 * (a, b, obs) with a the real detector of a boundary edge, else the
 * smaller one; every edge is chained from head_[a], so a lookup walks
 * the few edges that share its first detector and registering an edge
 * is two array writes.
 */
class EdgeAccumulator
{
  public:
    explicit EdgeAccumulator(int num_detectors)
        : head_((size_t)num_detectors, kNone)
    {
    }

    void
    add(int a, int b, bool obs, ProbClass cls)
    {
        DemEdge *edge = slot(a, b, obs);
        if (!edge)
            return;
        switch (cls) {
          case ProbClass::P1: ++edge->n1; break;
          case ProbClass::P3: ++edge->n3; break;
          case ProbClass::P15: ++edge->n15; break;
        }
    }

    /** Add a signature of at most two detectors as one edge; missing
     *  endpoints are the boundary. */
    void
    addGraphLike(const Signature &sig, ProbClass cls)
    {
        add(sig.dets.empty() ? kBoundary : sig.dets[0],
            sig.dets.size() < 2 ? kBoundary : sig.dets[1], sig.obs,
            cls);
    }

    /**
     * Add each of `templ` (unique keys, in first-appearance order)
     * shifted by dr rounds for every dr in [dr_lo, dr_hi], edge by
     * edge. This inserts the same keys in the same order as adding
     * every mechanism merged into `templ` at every shift in mechanism
     * order: a later mechanism on an already seen edge only hits keys
     * the first one inserted.
     *
     * A shifted key can only meet an edge present before the tiling,
     * whose first detector lies in a round up to `pre_round`, or the
     * tile of an earlier time translate of its template edge that
     * lands in the same round, which `landed` records per translate
     * class. Every other key is appended without a lookup.
     */
    void
    addTiled(const std::vector<DemEdge> &templ, int dr_lo, int dr_hi,
             int n_s)
    {
        if (templ.empty())
            return;
        int pre_round = -1;
        for (const DemEdge &e : edges_)
            pre_round = std::max(pre_round, e.a / n_s);
        const size_t rows = head_.size() / (size_t)n_s;
        std::unordered_map<uint64_t, uint32_t> classes;
        classes.reserve(templ.size());
        /** [class * rows + landing round]: the class's edge there. */
        std::vector<uint32_t> landed;
        // Room for the tiles and, at about one template per source
        // round, the tail's new edges: the arrays are sized once.
        reserve(edges_.size() +
                templ.size() * (size_t)(dr_hi - dr_lo + 4));
        for (const DemEdge &e : templ) {
            const int ra = e.a / n_s;
            const int base = ra * n_s;
            const uint32_t c =
                classes
                    .emplace(edgeKey(e.a - base,
                                     e.b == kBoundary ? kBoundary
                                                      : e.b - base,
                                     e.obsFlip),
                             (uint32_t)classes.size())
                    .first->second;
            if (landed.size() < (c + 1) * rows)
                landed.resize((c + 1) * rows, kNone);
            uint32_t *land = landed.data() + c * rows;
            for (int dr = dr_lo; dr <= dr_hi; ++dr) {
                uint32_t &k = land[ra + dr];
                if (k == kNone) {
                    const int shift = dr * n_s;
                    const int a = e.a + shift;
                    const int b =
                        e.b == kBoundary ? kBoundary : e.b + shift;
                    if (ra + dr <= pre_round)
                        k = find(a, b, e.obsFlip);
                    if (k == kNone)
                        k = append(a, b, e.obsFlip);
                }
                DemEdge &edge = edges_[k];
                edge.n1 += e.n1;
                edge.n3 += e.n3;
                edge.n15 += e.n15;
            }
        }
    }

    /** True if (a, b) exists as an edge with the given observable. */
    bool
    has(int a, int b, bool obs) const
    {
        if (a > b)
            std::swap(a, b);
        if (a == kBoundary)
            std::swap(a, b);
        return a != kBoundary && find(a, b, obs) != kNone;
    }

    std::vector<DemEdge> take() { return std::move(edges_); }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    void
    reserve(size_t edges)
    {
        edges_.reserve(edges);
        next_.reserve(edges);
    }

    /** Canonical key of a normalized (a, b, obs). */
    static uint64_t
    edgeKey(int a, int b, bool obs)
    {
        return ((uint64_t)(a + 1) << 33) | ((uint64_t)(b + 1) << 1) |
               (obs ? 1 : 0);
    }

    /** Index of the normalized edge (a, b, obs), or kNone. */
    uint32_t
    find(int a, int b, bool obs) const
    {
        for (uint32_t k = head_[(size_t)a]; k != kNone; k = next_[k]) {
            const DemEdge &e = edges_[k];
            if (e.b == b && e.obsFlip == obs)
                return k;
        }
        return kNone;
    }

    /** Append the normalized edge (a, b, obs), known to be absent. */
    uint32_t
    append(int a, int b, bool obs)
    {
        const uint32_t k = (uint32_t)edges_.size();
        DemEdge edge;
        edge.a = a;
        edge.b = b;
        edge.obsFlip = obs;
        edges_.push_back(edge);
        next_.push_back(head_[(size_t)a]);
        head_[(size_t)a] = k;
        return k;
    }

    /** The merged edge (a, b, obs), appended on first use; null for a
     *  boundary-to-boundary pair, which is dropped. */
    DemEdge *
    slot(int a, int b, bool obs)
    {
        if (a > b)
            std::swap(a, b);
        if (a == kBoundary && b == kBoundary)
            return nullptr;
        if (a == kBoundary)
            std::swap(a, b);  // keep the real detector in `a`
        uint32_t k = find(a, b, obs);
        if (k == kNone)
            k = append(a, b, obs);
        return &edges_[k];
    }

    /** Per detector: the newest edge whose key starts there. */
    std::vector<uint32_t> head_;
    /** Per edge: the next older edge with the same first detector. */
    std::vector<uint32_t> next_;
    std::vector<DemEdge> edges_;
};

/**
 * How outcome flips of a base circuit map onto detectors and the
 * logical observable — the only protocol-specific piece of DEM
 * construction — inverted from a compiled program's detector map into
 * the per-qubit form the backward pass reads.
 */
struct DemBindings
{
    int numQubits = 0;
    int stabsPerRound = 0;
    /** Per stabilizer: detector column, or -1 (wrong-basis checks). */
    std::vector<int> stabColumn;
    /** Per data qubit: detector columns its final readout toggles. */
    std::vector<std::vector<int>> dataColumns;
    /** Per data qubit: whether its final readout flips the logical. */
    std::vector<uint8_t> dataObs;
};

DemBindings
programDemBindings(const CircuitProgram &prog)
{
    const IrDetectorMap &map = prog.detectors;
    DemBindings b;
    b.numQubits = prog.numQubits;
    b.stabsPerRound = map.cols;
    b.stabColumn = map.stabColumn;
    b.dataColumns.resize(prog.numData);
    for (int col = 0; col < map.cols; ++col) {
        for (int k = map.colSupportOffset[col];
             k < map.colSupportOffset[(size_t)col + 1]; ++k)
            b.dataColumns[map.colSupportData[k]].push_back(col);
    }
    b.dataObs.assign(prog.numData, 0);
    for (int q : map.observable)
        b.dataObs[q] = 1;
    return b;
}

/**
 * Enumerates all Pauli mechanisms of a base memory circuit and
 * produces their detector signatures from one backward sensitivity
 * pass (the reverse propagation Stim uses to build its DEMs).
 *
 * Walking from the last op to the first, sensX[q] / sensZ[q] hold the
 * detectors — plus the observable, as bit `obsBit_` — that an X / Z
 * error on qubit q at that point flips:
 *   Measure    sensX[q] ^= outcome targets
 *   MeasureX   sensZ[q] ^= outcome targets
 *   Reset      sensX[q] = sensZ[q] = {}
 *   H          swap(sensX[q], sensZ[q])
 *   Cnot c→t   sensX[c] ^= sensX[t];  sensZ[t] ^= sensZ[c]
 * The noiseless frame update is linear, so these are exactly the flips
 * forward propagation of each injected Pauli would record. Before
 * stepping back across a noisy op, the touched qubits' sets are saved
 * as sparse sorted lists in one arena; mechanisms are then emitted in
 * forward op order with signatures XOR-composed from those lists.
 */
class Enumerator
{
  public:
    /** `keep(round)` selects the source rounds whose mechanisms are
     *  visited (see forEachMechanism); the others are never composed. */
    template <typename Keep>
    Enumerator(const DemBindings &bindings, Circuit circuit, int rounds,
               Keep &&keep)
        : bindings_(bindings), rounds_(rounds),
          nS_(bindings.stabsPerRound), obsBit_((rounds + 1) * nS_),
          words_((size_t)obsBit_ / 64 + 1), circuit_(std::move(circuit))
    {
        // Source round of each op: the round of the latest RoundStart,
        // or `rounds` for the final data measurements.
        const std::vector<Op> &ops = circuit_.ops;
        srcRound_.resize(ops.size());
        kept_.resize(ops.size());
        int round = -1;
        for (size_t k = 0; k < ops.size(); ++k) {
            const Op &op = ops[k];
            if (op.type == OpType::RoundStart)
                round = op.round;
            const bool final_data =
                (op.type == OpType::Measure ||
                 op.type == OpType::MeasureX) && op.finalData;
            srcRound_[k] = final_data ? rounds : round;
            kept_[k] = keep(srcRound_[k]) ? 1 : 0;
        }
        backwardPass();
    }

    /**
     * Visit every mechanism of the kept source rounds in op order,
     * then Pauli order (X, Y, Z; two-qubit index 1..15). The callback
     * receives the source round (final data block = `rounds`), the
     * probability class, and the signature, which is valid only for
     * the duration of the call.
     */
    template <typename Fn>
    void
    forEachMechanism(Fn &&fn)
    {
        for (size_t k = 0; k < circuit_.ops.size(); ++k) {
            if (!kept_[k])
                continue;
            const Op &op = circuit_.ops[k];
            const size_t s = firstSpan_[k];
            const int round = srcRound_[k];
            switch (op.type) {
              case OpType::RoundStart:
                break;
              case OpType::DataNoise:
              case OpType::H:
                composeSubsets(s, 2);
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                    fn(round, ProbClass::P3, finish(subset_[parts(p)]));
                break;
              case OpType::Cnot:
                composeSubsets(s, 4);
                for (int pp = 1; pp < 16; ++pp) {
                    const int m = parts((Pauli)(pp & 3)) |
                                  parts((Pauli)((pp >> 2) & 3)) << 2;
                    fn(round, ProbClass::P15, finish(subset_[m]));
                }
                break;
              case OpType::Reset:
                composeSubsets(s, 1);
                fn(round, ProbClass::P1, finish(subset_[1]));
                break;
              case OpType::Measure:
              case OpType::MeasureX:
                outcomeTargets(op, sig_.dets);
                fn(round, ProbClass::P1, finish(sig_));
                break;
              case OpType::LeakageIswap:
                panic("base circuit must not contain DQLR ops");
            }
        }
    }

  private:
    /** One saved sensitivity set: arena_[begin, end), sorted. */
    struct Span
    {
        uint32_t begin;
        uint32_t end;
    };

    void
    backwardPass()
    {
        const std::vector<Op> &ops = circuit_.ops;
        std::vector<uint64_t> sens(
            (size_t)bindings_.numQubits * 2 * words_, 0);
        auto sens_x = [&](int q) {
            return sens.data() + (size_t)q * 2 * words_;
        };
        auto sens_z = [&](int q) { return sens_x(q) + words_; };
        auto xor_into = [&](uint64_t *dst, const uint64_t *src) {
            for (size_t w = 0; w < words_; ++w)
                dst[w] ^= src[w];
        };

        std::vector<int> targets;
        firstSpan_.assign(ops.size(), 0);
        for (size_t k = ops.size(); k-- > 0;) {
            const Op &op = ops[k];
            // Save the sets as they stand right after op k: a Pauli
            // injected there flips exactly these. Ops of skipped rounds
            // emit no mechanism, so need no saved sets.
            firstSpan_[k] = spans_.size();
            if (kept_[k]) {
                switch (op.type) {
                  case OpType::Cnot:
                    save(sens_x(op.q0));
                    save(sens_z(op.q0));
                    save(sens_x(op.q1));
                    save(sens_z(op.q1));
                    break;
                  case OpType::DataNoise:
                  case OpType::H:
                    save(sens_x(op.q0));
                    save(sens_z(op.q0));
                    break;
                  case OpType::Reset:
                    save(sens_x(op.q0));
                    break;
                  default:
                    break;
                }
            }
            // Then step the sets back across op k itself.
            switch (op.type) {
              case OpType::Measure:
              case OpType::MeasureX: {
                outcomeTargets(op, targets);
                uint64_t *set = op.type == OpType::Measure
                                    ? sens_x(op.q0)
                                    : sens_z(op.q0);
                for (int t : targets)
                    set[t >> 6] ^= 1ULL << (t & 63);
                break;
              }
              case OpType::Reset:
                std::fill_n(sens_x(op.q0), 2 * words_, 0);
                break;
              case OpType::H:
                std::swap_ranges(sens_x(op.q0), sens_z(op.q0),
                                 sens_z(op.q0));
                break;
              case OpType::Cnot:
                xor_into(sens_x(op.q0), sens_x(op.q1));
                xor_into(sens_z(op.q1), sens_z(op.q0));
                break;
              case OpType::LeakageIswap:
                panic("base circuit must not contain DQLR ops");
              default:
                break;
            }
        }
    }

    /** Append one dense set to the arena as a sparse sorted list. */
    void
    save(const uint64_t *set)
    {
        Span span;
        span.begin = (uint32_t)arena_.size();
        for (size_t w = 0; w < words_; ++w) {
            for (uint64_t bits = set[w]; bits; bits &= bits - 1)
                arena_.push_back((int)(w * 64) + __builtin_ctzll(bits));
        }
        span.end = (uint32_t)arena_.size();
        spans_.push_back(span);
    }

    /** Detectors (and the observable bit) that an outcome flip of
     *  measurement `op` toggles, sorted. */
    void
    outcomeTargets(const Op &op, std::vector<int> &out) const
    {
        out.clear();
        if (op.finalData) {
            for (int col : bindings_.dataColumns[op.q0])
                out.push_back(rounds_ * nS_ + col);
            if (bindings_.dataObs[op.q0])
                out.push_back(obsBit_);
        } else {
            const int col = bindings_.stabColumn[op.stab];
            if (col >= 0) {
                out.push_back(op.round * nS_ + col);
                out.push_back((op.round + 1) * nS_ + col);
            }
        }
        std::sort(out.begin(), out.end());
    }

    /** Saved sets a single-qubit Pauli flips, as a 2-bit mask over
     *  that qubit's (X-sensitivity, Z-sensitivity) pair. */
    static int
    parts(Pauli p)
    {
        return (p == Pauli::X || p == Pauli::Y ? 1 : 0) |
               (p == Pauli::Z || p == Pauli::Y ? 2 : 0);
    }

    /**
     * For every nonempty subset m of the `n` sets saved at span `s`
     * (bit i: set s + i), the XOR of its sets into subset_[m]: the
     * signature of the Paulis whose parts() masks make up m. Each is
     * one symmetric difference from the subset without its lowest set.
     */
    void
    composeSubsets(size_t s, int n)
    {
        for (int m = 1; m < (1 << n); ++m) {
            const std::vector<int> &base = subset_[m & (m - 1)].dets;
            const Span &span = spans_[s + (size_t)__builtin_ctz(m)];
            std::vector<int> &out = subset_[m].dets;
            out.clear();
            std::set_symmetric_difference(
                base.begin(), base.end(), arena_.begin() + span.begin,
                arena_.begin() + span.end, std::back_inserter(out));
        }
    }

    /** Split the observable bit (sorted last) off `sig.dets`. */
    const Signature &
    finish(Signature &sig) const
    {
        sig.obs = !sig.dets.empty() && sig.dets.back() == obsBit_;
        if (sig.obs)
            sig.dets.pop_back();
        return sig;
    }

    const DemBindings &bindings_;
    int rounds_;
    int nS_;
    int obsBit_;
    size_t words_;
    Circuit circuit_;
    /** Per op: source round, and whether that round is kept. */
    std::vector<int> srcRound_;
    std::vector<uint8_t> kept_;
    /** Per op: index of its first saved span (kept noisy ops only). */
    std::vector<size_t> firstSpan_;
    std::vector<Span> spans_;
    std::vector<int> arena_;
    /** Signatures of the current op's Pauli subsets; [0] stays empty. */
    Signature subset_[16];
    /** Signature of the current measurement's outcome flip. */
    Signature sig_;
};

/**
 * Collects signatures, decomposing >2-detector mechanisms against the
 * set of simple edges (Stim-style graph-like decomposition).
 */
class ModelAssembler
{
  public:
    explicit ModelAssembler(int num_detectors) : acc_(num_detectors) {}

    void
    addSignature(const Signature &sig, ProbClass cls,
                 DetectorModel &stats)
    {
        if (sig.dets.empty() && !sig.obs)
            return;
        if (sig.dets.size() <= 2) {
            acc_.addGraphLike(sig, cls);
            return;
        }
        pending_.push_back({sig, cls});
        ++stats.decomposedMechanisms;
    }

    /** See EdgeAccumulator::addTiled. */
    void
    addTiledEdges(const std::vector<DemEdge> &edges, int dr_lo,
                  int dr_hi, int n_s)
    {
        acc_.addTiled(edges, dr_lo, dr_hi, n_s);
    }

    void
    resolvePending(DetectorModel &stats)
    {
        for (const auto &[sig, cls] : pending_) {
            if (!tryDecompose(sig, cls))
                greedyDecompose(sig, cls, stats);
        }
        pending_.clear();
    }

    std::vector<DemEdge> take() { return acc_.take(); }

  private:
    struct Block
    {
        int a;
        int b;   // kBoundary for singletons
        bool obs;
    };

    /** Check a candidate block against known simple edges and pick an
     *  observable value for it; prefers obs=false. */
    bool
    blockExists(int a, int b, Block &out) const
    {
        for (bool obs : {false, true}) {
            if (acc_.has(a, b, obs)) {
                out = {a, b, obs};
                return true;
            }
        }
        return false;
    }

    bool
    tryDecompose(const Signature &sig, ProbClass cls)
    {
        const auto &d = sig.dets;
        std::vector<std::vector<std::pair<int, int>>> partitions;
        if (d.size() == 3) {
            partitions = {
                {{d[0], d[1]}, {d[2], kBoundary}},
                {{d[0], d[2]}, {d[1], kBoundary}},
                {{d[1], d[2]}, {d[0], kBoundary}},
                {{d[0], kBoundary}, {d[1], kBoundary},
                 {d[2], kBoundary}},
            };
        } else if (d.size() == 4) {
            partitions = {
                {{d[0], d[1]}, {d[2], d[3]}},
                {{d[0], d[2]}, {d[1], d[3]}},
                {{d[0], d[3]}, {d[1], d[2]}},
                {{d[0], d[1]}, {d[2], kBoundary}, {d[3], kBoundary}},
                {{d[0], d[2]}, {d[1], kBoundary}, {d[3], kBoundary}},
                {{d[0], d[3]}, {d[1], kBoundary}, {d[2], kBoundary}},
                {{d[1], d[2]}, {d[0], kBoundary}, {d[3], kBoundary}},
                {{d[1], d[3]}, {d[0], kBoundary}, {d[2], kBoundary}},
                {{d[2], d[3]}, {d[0], kBoundary}, {d[1], kBoundary}},
            };
        } else {
            return false;
        }

        for (const auto &partition : partitions) {
            std::vector<Block> blocks;
            bool ok = true;
            bool obs_total = false;
            for (const auto &[a, b] : partition) {
                Block block;
                if (!blockExists(a, b, block)) {
                    ok = false;
                    break;
                }
                blocks.push_back(block);
                obs_total ^= block.obs;
            }
            if (!ok)
                continue;
            // Fix up the observable parity on one block if possible.
            if (obs_total != sig.obs) {
                bool fixed = false;
                for (auto &block : blocks) {
                    if (acc_.has(block.a, block.b, !block.obs)) {
                        block.obs = !block.obs;
                        fixed = true;
                        break;
                    }
                }
                if (!fixed)
                    continue;
            }
            for (const auto &block : blocks)
                acc_.add(block.a, block.b, block.obs, cls);
            return true;
        }
        return false;
    }

    void
    greedyDecompose(const Signature &sig, ProbClass cls,
                    DetectorModel &stats)
    {
        ++stats.unmatchedDecompositions;
        // Pair consecutive detectors (they are sorted, so time/space
        // neighbours end up together); attach the observable to the
        // first block.
        bool obs = sig.obs;
        for (size_t i = 0; i < sig.dets.size(); i += 2) {
            const int a = sig.dets[i];
            const int b = (i + 1 < sig.dets.size()) ? sig.dets[i + 1]
                                                    : kBoundary;
            acc_.add(a, b, obs, cls);
            obs = false;
        }
    }

    EdgeAccumulator acc_;
    std::vector<std::pair<Signature, ProbClass>> pending_;
};

/** Shortest round count from which tiling is exact. */
constexpr int kTileShortRounds = 8;

DetectorModel
buildModelDirect(const DemBindings &bindings, Circuit circuit,
                 int rounds, Basis basis)
{
    DetectorModel model;
    model.rounds = rounds;
    model.basis = basis;
    model.stabsPerRound = bindings.stabsPerRound;

    Enumerator enumerator(bindings, std::move(circuit), rounds,
                          [](int) { return true; });
    ModelAssembler assembler(model.numDetectors());
    enumerator.forEachMechanism(
        [&](int, ProbClass cls, const Signature &sig) {
            assembler.addSignature(sig, cls, model);
        });
    assembler.resolvePending(model);
    model.edges = assembler.take();
    return model;
}

/** Tiled build: `short_circuit` is the kTileShortRounds-round image
 *  of the same round body. */
DetectorModel
buildModelTiled(const DemBindings &bindings, Circuit short_circuit,
                int rounds, Basis basis)
{
    // Enumerate a short circuit and tile its bulk round through time.
    // Head: mechanisms of round 0 (round-0 detectors are special).
    // Bulk: mechanisms of round 2 stand in for source rounds 1..R-3,
    // i.e. shifts of -1..R-5 rounds.
    // Tail: mechanisms of rounds R0-2, R0-1 and the final data block,
    // shifted by R - R0.
    const int r0 = kTileShortRounds;
    const int n_s = bindings.stabsPerRound;

    DetectorModel model;
    model.rounds = rounds;
    model.basis = basis;
    model.stabsPerRound = n_s;

    // Source rounds 1 and 3..r0-3 are redundant with the bulk template
    // and are never composed.
    Enumerator enumerator(
        bindings, std::move(short_circuit), r0, [](int src_round) {
            return src_round == 0 || src_round == 2 ||
                   src_round >= r0 - 2;
        });
    ModelAssembler assembler(model.numDetectors());

    Signature shifted;
    auto shift_sig = [&](const Signature &sig,
                         int dr) -> const Signature & {
        shifted.obs = sig.obs;
        shifted.dets.resize(sig.dets.size());
        for (size_t i = 0; i < sig.dets.size(); ++i)
            shifted.dets[i] = sig.dets[i] + dr * n_s;
        return shifted;
    };

    // The bulk template: graph-like signatures merged into unique
    // edges before tiling, wider ones kept whole for decomposition.
    EdgeAccumulator bulk_edges((r0 + 1) * n_s);
    std::vector<std::pair<Signature, ProbClass>> bulk_wide;
    bool bulk_tiled = false;
    auto tile_bulk = [&] {
        if (bulk_tiled)
            return;
        bulk_tiled = true;
        assembler.addTiledEdges(bulk_edges.take(), -1, rounds - 5, n_s);
        for (const auto &[sig, cls] : bulk_wide) {
            for (int dr = -1; dr <= rounds - 5; ++dr)
                assembler.addSignature(shift_sig(sig, dr), cls, model);
        }
    };

    enumerator.forEachMechanism(
        [&](int src_round, ProbClass cls, const Signature &sig) {
            if (src_round == 0) {
                assembler.addSignature(sig, cls, model);
            } else if (src_round == 2) {
                if (sig.dets.size() <= 2)
                    bulk_edges.addGraphLike(sig, cls);
                else
                    bulk_wide.emplace_back(sig, cls);
            } else {
                // Mechanisms arrive in round order, so the template is
                // complete here; tiling it before the tail keeps the
                // edge order of tiling each bulk mechanism in turn.
                tile_bulk();
                assembler.addSignature(shift_sig(sig, rounds - r0),
                                       cls, model);
            }
        });
    tile_bulk();
    assembler.resolvePending(model);
    model.edges = assembler.take();
    return model;
}

} // namespace

DetectorModel
buildDetectorModelDirect(const CircuitProgram &prog)
{
    return buildModelDirect(programDemBindings(prog),
                            prog.baseCircuit(), prog.rounds,
                            prog.basis);
}

DetectorModel
buildDetectorModel(const CircuitProgram &prog)
{
    if (prog.rounds <= kTileShortRounds)
        return buildDetectorModelDirect(prog);
    return buildModelTiled(programDemBindings(prog),
                           prog.baseCircuit(kTileShortRounds),
                           prog.rounds, prog.basis);
}

DetectorModel
buildDetectorModel(const RotatedSurfaceCode &code, int rounds,
                   Basis basis)
{
    // Any tail kind gives the same model: the base circuit leaves
    // every LrcSlot branch empty.
    return buildDetectorModel(CircuitCompiler::surfaceMemory(
        code, rounds, basis, IrTailKind::SwapLrc));
}

} // namespace qec
