/**
 * @file
 * Detector error model (DEM) for memory experiments.
 *
 * Detectors are parities of stabilizer measurement flips that are
 * deterministically zero in a noiseless run:
 *   det(s, 0)       = m[s][0]                       (round 0)
 *   det(s, r)       = m[s][r] xor m[s][r-1]         (1 <= r < R)
 *   det(s, R)       = recon[s] xor m[s][R-1]        (final round)
 * where recon[s] is the stabilizer value reconstructed from the final
 * transversal data measurement, and s ranges over stabilizers of the
 * type protecting the memory basis.
 *
 * The model is built from a compiled CircuitProgram (code/circuit_ir.h),
 * the program the experiments replay, with outcome flips routed
 * through its detector map. The builder walks the program's base
 * (no-LRC) circuit once, from the last op back to the first, keeping
 * per qubit the set of detectors (and whether the logical observable)
 * that an X or a Z error at that point would flip: the reverse
 * sensitivity pass Stim uses for its DEMs. The
 * noiseless frame update is linear, so these sets are exactly what
 * forward propagation of each fault would record. The sets each noisy
 * op touches are saved as sparse lists, and every Pauli mechanism is
 * then emitted in forward order with its signature XOR-composed from
 * them. Mechanisms with identical signatures are merged, keeping
 * counts per probability class so edge probabilities can be
 * re-evaluated for any physical error rate p without re-enumeration.
 *
 * Long experiments enumerate an 8-round image instead. Its round-0
 * mechanisms are placed directly, those of its last two rounds and
 * final readout are shifted to the end, and its round-2 mechanisms
 * form a bulk template for every middle round; the mechanisms of its
 * other rounds are never composed. The template's graph-like
 * signatures are merged into unique edges first, and each edge is
 * tiled across all bulk rounds in one go, looking up only the shifted
 * keys that can already exist (a head edge, or the tile of a time
 * translate of the same template edge); wider signatures are tiled one
 * by one. Tests assert tiled == direct.
 *
 * Edge-order contract: `edges` lists each edge at its first insertion,
 * taking mechanisms in op order, then Pauli order (X, Y, Z; two-qubit
 * index 1..15), with the tiled bulk inserted between the head and the
 * tail. Decoders build their adjacency in this order, so it feeds every
 * verdict fingerprint; tests/test_dem.cpp pins it with golden digests.
 *
 * Leakage mechanisms are deliberately NOT represented: the paper's
 * decoder is leakage-unaware, and so is this one.
 */

#ifndef QEC_DECODER_DETECTOR_MODEL_H
#define QEC_DECODER_DETECTOR_MODEL_H

#include <cstdint>
#include <vector>

#include "code/circuit_ir.h"
#include "code/rotated_surface_code.h"
#include "code/types.h"

namespace qec
{

/** Index of the virtual boundary in DEM edges. */
constexpr int kBoundary = -1;

/**
 * One weighted decoding-graph edge. Mechanism counts are kept per
 * probability class: n1 at prob p (measurement flips, reset errors),
 * n3 at p/3 (single-qubit depolarizing components), n15 at p/15
 * (two-qubit depolarizing components).
 */
struct DemEdge
{
    int a = kBoundary;      ///< Detector id (always valid).
    int b = kBoundary;      ///< Detector id or kBoundary.
    bool obsFlip = false;   ///< Whether the mechanism flips the logical.
    int n1 = 0;
    int n3 = 0;
    int n15 = 0;

    /** XOR-combined probability that this edge fires, given p. */
    double probability(double p) const;
};

/**
 * Integer matching weight of an edge that fires with probability q: an
 * even integer near 1024 * log((1-q)/q), with q clamped to
 * [1e-12, 0.499999] and the log to 1e6. The MWPM decoder matches under
 * these weights; even values put every region event on an integer time.
 */
int32_t matchingWeight(double q);

/**
 * Edge prices at one physical error rate p. An edge's probability and
 * matching weight depend only on its (n1, n3, n15) counts, and a model
 * has few distinct triples (at most a few dozen, however many edges),
 * so each triple is priced once, on first sight, and memoized. Both
 * decoders price every edge through one of these.
 */
class EdgePricer
{
  public:
    struct Price
    {
        double q;        ///< DemEdge::probability(p).
        int32_t weight;  ///< matchingWeight(q).
    };

    explicit EdgePricer(double p);

    /** The price of `edge`'s count triple at p. */
    const Price &operator()(const DemEdge &edge);

  private:
    void grow();

    double p_;
    /** Open-addressed table of packed count triples (0: empty slot);
     *  capacity is a power of two, at most half full. */
    std::vector<uint64_t> keys_;
    std::vector<Price> prices_;
    size_t used_ = 0;
};

/** The full detector error model of one (code, rounds, basis) config. */
struct DetectorModel
{
    int rounds = 0;             ///< R: syndrome extraction rounds.
    int stabsPerRound = 0;      ///< Stabilizers of the protected type.
    Basis basis = Basis::Z;

    std::vector<DemEdge> edges;

    /** Mechanisms whose signature needed >2-detector decomposition. */
    int decomposedMechanisms = 0;
    /** Mechanisms whose decomposition had no exact match (paired
     *  greedily); expected to be zero for surface-code circuits. */
    int unmatchedDecompositions = 0;

    /** Total detector count: (rounds + 1) * stabsPerRound. */
    int
    numDetectors() const
    {
        return (rounds + 1) * stabsPerRound;
    }

    int
    detectorId(int basis_stab, int round) const
    {
        return round * stabsPerRound + basis_stab;
    }
    int detectorRound(int det) const { return det / stabsPerRound; }
    int detectorStab(int det) const { return det % stabsPerRound; }
};

/**
 * Build the DEM of a compiled circuit program from its own
 * measure→detector/observable map: the backward pass runs over the
 * program's base circuit and routes outcome flips through
 * `prog.detectors`. Uses direct enumeration for short experiments and
 * time-translation tiling for long ones (identical results). The tail
 * kind does not enter: the base circuit leaves every LrcSlot branch
 * empty, so programs that differ only in their tail share one model.
 */
DetectorModel buildDetectorModel(const CircuitProgram &prog);

/** Direct (non-tiled) enumeration, exposed for equivalence tests. */
DetectorModel buildDetectorModelDirect(const CircuitProgram &prog);

/**
 * The surface-memory model for `rounds` rounds of `code` in `basis`:
 * compiles CircuitCompiler::surfaceMemory and builds from the program.
 * For callers that hold a code but no program.
 */
DetectorModel buildDetectorModel(const RotatedSurfaceCode &code,
                                 int rounds, Basis basis);

} // namespace qec

#endif // QEC_DECODER_DETECTOR_MODEL_H
