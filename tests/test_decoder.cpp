/**
 * @file
 * End-to-end decoder tests: every single fault must be corrected (the
 * circuit-level distance is >= 3), sampled double faults must be
 * corrected at d = 5, and the decoder must degrade gracefully.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find_decoder.h"
#include "defects.h"
#include "frame_simulator.h"
#include "memory_circuit.h"

namespace qec
{
namespace
{

/** All Pauli-injection sites of a circuit: (op index, [(q, P)...]). */
struct Fault
{
    size_t opIndex;
    std::vector<std::pair<int, Pauli>> paulis;
};

std::vector<Fault>
enumerateFaults(const Circuit &circuit, bool all_two_qubit)
{
    std::vector<Fault> faults;
    for (size_t k = 0; k < circuit.ops.size(); ++k) {
        const Op &op = circuit.ops[k];
        switch (op.type) {
          case OpType::DataNoise:
          case OpType::H:
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                faults.push_back({k, {{op.q0, p}}});
            break;
          case OpType::Reset:
            faults.push_back({k, {{op.q0, Pauli::X}}});
            break;
          case OpType::Cnot:
            if (all_two_qubit) {
                for (int pp = 1; pp < 16; ++pp) {
                    faults.push_back(
                        {k,
                         {{op.q0, (Pauli)(pp & 3)},
                          {op.q1, (Pauli)((pp >> 2) & 3)}}});
                }
            } else {
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                    faults.push_back({k, {{op.q0, p}}});
                    faults.push_back({k, {{op.q1, p}}});
                }
            }
            break;
          default:
            break;
        }
    }
    return faults;
}

/** Run the circuit noiselessly with the given faults injected. */
ShotOutcome
runWithFaults(const RotatedSurfaceCode &code, const Circuit &circuit,
              const std::vector<Fault> &faults)
{
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(3));
    sim.reset();
    const Op *ops = circuit.ops.data();
    size_t cursor = 0;
    // Faults must be sorted by opIndex.
    for (const auto &fault : faults) {
        sim.executeRange(ops + cursor, ops + fault.opIndex + 1);
        cursor = fault.opIndex + 1;
        for (const auto &[q, p] : fault.paulis)
            sim.injectPauli(q, p);
    }
    sim.executeRange(ops + cursor, ops + circuit.ops.size());
    return extractDefects(code, circuit.basis, circuit.numRounds,
                          sim.record());
}

class SingleFaultSweep
    : public ::testing::TestWithParam<std::tuple<int, Basis>>
{
};

TEST_P(SingleFaultSweep, EverySingleFaultCorrected)
{
    const auto [rounds, basis] = GetParam();
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, rounds, basis);
    DetectorModel dem = buildDetectorModel(code, rounds, basis);
    MwpmDecoder decoder(dem, 1e-3);

    auto faults = enumerateFaults(circuit, true);
    int checked = 0;
    for (const auto &fault : faults) {
        ShotOutcome outcome = runWithFaults(code, circuit, {fault});
        const bool predicted = decoder.decode(outcome.defects);
        ASSERT_EQ(predicted, outcome.observableFlip)
            << "fault at op " << fault.opIndex;
        ++checked;
    }
    EXPECT_GT(checked, 400 * rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SingleFaultSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Basis::Z, Basis::X)));

TEST(Decoder, SampledDoubleFaultsCorrectedAtD5)
{
    // Distance 5 tolerates any two faults. Sample pairs.
    RotatedSurfaceCode code(5);
    const int rounds = 3;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    auto faults = enumerateFaults(circuit, false);
    Rng rng(17);
    for (int trial = 0; trial < 400; ++trial) {
        size_t i = rng.randint((uint32_t)faults.size());
        size_t j = rng.randint((uint32_t)faults.size());
        if (faults[i].opIndex > faults[j].opIndex)
            std::swap(i, j);
        ShotOutcome outcome =
            runWithFaults(code, circuit, {faults[i], faults[j]});
        const bool predicted = decoder.decode(outcome.defects);
        ASSERT_EQ(predicted, outcome.observableFlip)
            << "faults " << i << ", " << j;
    }
}

TEST(Decoder, EmptyDefectsPredictNoFlip)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 2, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode({}));
}

TEST(Decoder, GraphNonTrivial)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 3, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_EQ(decoder.numDetectors(), dem.numDetectors());
    EXPECT_GT(decoder.numGraphEdges(), 20u);
}

TEST(Decoder, LogicalChainIsDecodedAsFlip)
{
    // Inject a full logical X chain (top-to-bottom column of X);
    // defect-free but observable flipped: decoder cannot see it, so
    // the prediction must be "no flip" and the comparison records a
    // logical error. This guards the convention wiring.
    RotatedSurfaceCode code(3);
    const int rounds = 2;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);

    std::vector<Fault> faults;
    // Inject X on a full column (crossing between the X boundaries)
    // right after round 0's RoundStart marker.
    const size_t site = circuit.roundBegin[1];
    std::vector<std::pair<int, Pauli>> paulis;
    for (int r = 0; r < 3; ++r)
        paulis.push_back({code.dataId(r, 1), Pauli::X});
    faults.push_back({site, paulis});

    ShotOutcome outcome = runWithFaults(code, circuit, faults);
    EXPECT_TRUE(outcome.defects.empty());
    EXPECT_TRUE(outcome.observableFlip);

    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode(outcome.defects));
}

// ----------------------------------------------- golden decoder graphs

/** Order-sensitive FNV-1a digest over 64-bit fields. */
struct Fnv
{
    uint64_t h = 1469598103934665603ULL;

    void
    mix(int64_t v)
    {
        const uint64_t bits = (uint64_t)v;
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

/** MWPM's graph: every CSR row (neighbour, weight, obs) in order, then
 *  the detector's boundary weight and observable. */
uint64_t
mwpmGraphDigest(const MwpmDecoder &decoder)
{
    Fnv f;
    f.mix(decoder.numDetectors());
    for (int d = 0; d < decoder.numDetectors(); ++d) {
        const MwpmDecoder::Row row = decoder.row(d);
        f.mix(row.end() - row.begin());
        for (const MwpmDecoder::Nbr &nbr : row) {
            f.mix(nbr.to);
            f.mix(nbr.w);
            f.mix(nbr.obs);
        }
        f.mix(decoder.boundaryWeight(d));
        f.mix(decoder.boundaryObs(d));
    }
    return f.h;
}

/** Union-Find's graph: its edge list in id order and commit bound. */
uint64_t
ufGraphDigest(const UnionFindDecoder &decoder)
{
    Fnv f;
    f.mix(decoder.numDetectors());
    f.mix((int64_t)decoder.graphEdges().size());
    for (const UnionFindDecoder::Edge &e : decoder.graphEdges()) {
        f.mix(e.u);
        f.mix(e.v);
        f.mix(e.obs);
    }
    f.mix(decoder.windowCommitBound());
    return f.h;
}

struct GoldenDecoderGraph
{
    int d;
    double p;
    uint64_t mwpm;
    uint64_t uf;
};

// Z-basis memory at 10d rounds (the Fig. 14 shapes), recorded before
// the decoders priced each edge class once. Every edge has positive
// probability at these p, so Union-Find's graph does not depend on p.
constexpr GoldenDecoderGraph kDecoderGraphGolden[] = {
    {3, 1e-4, 0x9d1b1ab2203757c2ULL, 0x0080943d6e851349ULL},
    {3, 1e-3, 0x7af98ad771c26cd4ULL, 0x0080943d6e851349ULL},
    {3, 1e-2, 0x5ef9ba291c6d96beULL, 0x0080943d6e851349ULL},
    {5, 1e-4, 0x5c6a0fa4f1bc7afaULL, 0xc0ab54b09e86a5b0ULL},
    {5, 1e-3, 0x4ccddfba653f35ceULL, 0xc0ab54b09e86a5b0ULL},
    {5, 1e-2, 0xe9c6b2cb62b205fbULL, 0xc0ab54b09e86a5b0ULL},
    {7, 1e-4, 0xf5d19e54e035c022ULL, 0x59f1441a398ad5a8ULL},
    {7, 1e-3, 0x80901c03bd368024ULL, 0x59f1441a398ad5a8ULL},
    {7, 1e-2, 0x4fe407837c727582ULL, 0x59f1441a398ad5a8ULL},
    {9, 1e-4, 0xa6651afa9b18ed08ULL, 0x3268910f3b9e9248ULL},
    {9, 1e-3, 0x392a39c683486d80ULL, 0x3268910f3b9e9248ULL},
    {9, 1e-2, 0xd422ddb0b42395edULL, 0x3268910f3b9e9248ULL},
    {11, 1e-4, 0x5f468b33f18e601cULL, 0xaf29a48818a5387fULL},
    {11, 1e-3, 0xded7eb8e3defe552ULL, 0xaf29a48818a5387fULL},
    {11, 1e-2, 0x0277086de548b864ULL, 0xaf29a48818a5387fULL},
};

TEST(DecoderGraphGolden, MwpmAndUnionFindGraphsPinned)
{
    int built_d = 0;
    DetectorModel dem;
    for (const GoldenDecoderGraph &g : kDecoderGraphGolden) {
        SCOPED_TRACE(::testing::Message() << "d=" << g.d << " p=" << g.p);
        if (g.d != built_d) {
            dem = buildDetectorModel(RotatedSurfaceCode(g.d), 10 * g.d,
                                     Basis::Z);
            built_d = g.d;
        }
        EXPECT_EQ(mwpmGraphDigest(MwpmDecoder(dem, g.p)), g.mwpm);
        EXPECT_EQ(ufGraphDigest(UnionFindDecoder(dem, g.p)), g.uf);
    }
}

} // namespace
} // namespace qec
