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

/** Probability class of a mechanism (shared error rate divisor). */
enum class ProbClass { P1, P3, P15 };

/** Signature of one mechanism: flipped detectors + observable. */
struct Signature
{
    std::vector<int> dets;
    bool obs = false;
};

uint64_t
edgeKey(int a, int b, bool obs)
{
    // a <= b after normalization; boundary (-1) stored as 0.
    return ((uint64_t)(a + 1) << 33) | ((uint64_t)(b + 1) << 1) |
           (obs ? 1 : 0);
}

/** Accumulates mechanisms into merged DEM edges. */
class EdgeAccumulator
{
  public:
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

    /** Add all of `src`'s mechanism counts to edge (a, b). */
    void
    addEdgeCounts(const DemEdge &src, int a, int b)
    {
        DemEdge *edge = slot(a, b, src.obsFlip);
        if (!edge)
            return;
        edge->n1 += src.n1;
        edge->n3 += src.n3;
        edge->n15 += src.n15;
    }

    /** True if (a, b) exists as an edge with the given observable. */
    bool
    has(int a, int b, bool obs) const
    {
        if (a > b)
            std::swap(a, b);
        if (a == kBoundary)
            std::swap(a, b);
        return index_.count(edgeKey(a, b, obs)) != 0;
    }

    std::vector<DemEdge> take() { return std::move(edges_); }

  private:
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
        auto [it, inserted] =
            index_.try_emplace(edgeKey(a, b, obs), edges_.size());
        if (inserted) {
            DemEdge edge;
            edge.a = a;
            edge.b = b;
            edge.obsFlip = obs;
            edges_.push_back(edge);
        }
        return &edges_[it->second];
    }

    std::unordered_map<uint64_t, size_t> index_;
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
    Enumerator(const DemBindings &bindings, Circuit circuit, int rounds)
        : bindings_(bindings), rounds_(rounds),
          nS_(bindings.stabsPerRound), obsBit_((rounds + 1) * nS_),
          words_((size_t)obsBit_ / 64 + 1), circuit_(std::move(circuit))
    {
        backwardPass();
    }

    /**
     * Visit every mechanism in op order, then Pauli order (X, Y, Z;
     * two-qubit index 1..15). The callback receives the source round
     * (final data block = `rounds`), the probability class, and the
     * signature, which is valid only for the duration of the call.
     */
    template <typename Fn>
    void
    forEachMechanism(Fn &&fn)
    {
        int round = -1;
        for (size_t k = 0; k < circuit_.ops.size(); ++k) {
            const Op &op = circuit_.ops[k];
            const size_t s = firstSpan_[k];
            switch (op.type) {
              case OpType::RoundStart:
                round = op.round;
                break;
              case OpType::DataNoise:
              case OpType::H:
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                    fn(round, ProbClass::P3, compose(s, p, Pauli::I));
                break;
              case OpType::Cnot:
                for (int pp = 1; pp < 16; ++pp) {
                    const Pauli pa = (Pauli)(pp & 3);
                    const Pauli pb = (Pauli)((pp >> 2) & 3);
                    fn(round, ProbClass::P15, compose(s, pa, pb));
                }
                break;
              case OpType::Reset:
                fn(round, ProbClass::P1, compose(s, Pauli::X, Pauli::I));
                break;
              case OpType::Measure:
              case OpType::MeasureX:
                outcomeTargets(op, sig_.dets);
                fn(op.finalData ? rounds_ : round, ProbClass::P1,
                   finish());
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
            // injected there flips exactly these.
            firstSpan_[k] = spans_.size();
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

    /** Signature of Paulis `pa` on q0 and `pb` on q1 injected after
     *  the op whose saved sets start at span `s`. */
    const Signature &
    compose(size_t s, Pauli pa, Pauli pb)
    {
        const bool parts[4] = {
            pa == Pauli::X || pa == Pauli::Y,
            pa == Pauli::Z || pa == Pauli::Y,
            pb == Pauli::X || pb == Pauli::Y,
            pb == Pauli::Z || pb == Pauli::Y,
        };
        sig_.dets.clear();
        for (size_t i = 0; i < 4; ++i) {
            if (!parts[i])
                continue;
            const Span &span = spans_[s + i];
            scratch_.clear();
            std::set_symmetric_difference(
                sig_.dets.begin(), sig_.dets.end(),
                arena_.begin() + span.begin, arena_.begin() + span.end,
                std::back_inserter(scratch_));
            sig_.dets.swap(scratch_);
        }
        return finish();
    }

    /** Split the observable bit (sorted last) off `sig_.dets`. */
    const Signature &
    finish()
    {
        sig_.obs = !sig_.dets.empty() && sig_.dets.back() == obsBit_;
        if (sig_.obs)
            sig_.dets.pop_back();
        return sig_;
    }

    const DemBindings &bindings_;
    int rounds_;
    int nS_;
    int obsBit_;
    size_t words_;
    Circuit circuit_;
    /** Per op: index of its first saved span (noisy ops only). */
    std::vector<size_t> firstSpan_;
    std::vector<Span> spans_;
    std::vector<int> arena_;
    Signature sig_;
    std::vector<int> scratch_;
};

/**
 * Collects signatures, decomposing >2-detector mechanisms against the
 * set of simple edges (Stim-style graph-like decomposition).
 */
class ModelAssembler
{
  public:
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

    /**
     * Add each of `edges` (in first-appearance order) shifted by dr
     * rounds for every dr in [dr_lo, dr_hi], edge by edge. This inserts
     * the same keys in the same order as adding every mechanism merged
     * into `edges` at every shift in mechanism order: a later mechanism
     * on an already seen edge only hits keys the first one inserted.
     */
    void
    addTiledEdges(const std::vector<DemEdge> &edges, int dr_lo,
                  int dr_hi, int n_s)
    {
        for (const DemEdge &e : edges) {
            for (int dr = dr_lo; dr <= dr_hi; ++dr) {
                const int shift = dr * n_s;
                acc_.addEdgeCounts(e, e.a + shift,
                                   e.b == kBoundary ? kBoundary
                                                    : e.b + shift);
            }
        }
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

    Enumerator enumerator(bindings, std::move(circuit), rounds);
    ModelAssembler assembler;
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

    Enumerator enumerator(bindings, std::move(short_circuit), r0);
    ModelAssembler assembler;

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
    EdgeAccumulator bulk_edges;
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
            } else if (src_round >= r0 - 2) {
                // Mechanisms arrive in round order, so the template is
                // complete here; tiling it before the tail keeps the
                // edge order of tiling each bulk mechanism in turn.
                tile_bulk();
                assembler.addSignature(shift_sig(sig, rounds - r0),
                                       cls, model);
            }
            // Source rounds 1 and 3..r0-3 are redundant with the bulk
            // template and are skipped.
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
