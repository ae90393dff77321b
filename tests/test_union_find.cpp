/**
 * @file
 * Union-Find decoder tests: every single fault corrected, sampled
 * double faults at d=5, agreement with MWPM on easy shots, and
 * statistical sanity (UF within a modest factor of MWPM's LER).
 */

#include <gtest/gtest.h>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find_decoder.h"
#include "defects.h"
#include "exp/memory_experiment.h"
#include "frame_simulator.h"
#include "memory_circuit.h"

namespace qec
{
namespace
{

ShotOutcome
injectAndRun(const RotatedSurfaceCode &code, const Circuit &circuit,
             size_t op_index, std::vector<std::pair<int, Pauli>> paulis)
{
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(3));
    sim.reset();
    const Op *ops = circuit.ops.data();
    sim.executeRange(ops, ops + op_index + 1);
    for (const auto &[q, p] : paulis)
        sim.injectPauli(q, p);
    sim.executeRange(ops + op_index + 1, ops + circuit.ops.size());
    return extractDefects(code, circuit.basis, circuit.numRounds,
                          sim.record());
}

class UnionFindSweep
    : public ::testing::TestWithParam<std::tuple<int, Basis>>
{
};

TEST_P(UnionFindSweep, EverySingleFaultCorrected)
{
    const auto [rounds, basis] = GetParam();
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, rounds, basis);
    DetectorModel dem = buildDetectorModel(code, rounds, basis);
    UnionFindDecoder decoder(dem, 1e-3);

    for (size_t k = 0; k < circuit.ops.size(); ++k) {
        const Op &op = circuit.ops[k];
        if (op.type != OpType::Cnot && op.type != OpType::DataNoise &&
            op.type != OpType::H && op.type != OpType::Reset)
            continue;
        for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
            auto outcome = injectAndRun(code, circuit, k, {{op.q0, p}});
            ASSERT_EQ(decoder.decode(outcome.defects),
                      outcome.observableFlip)
                << "op " << k << " pauli " << (int)p;
            if (op.type == OpType::Cnot) {
                auto outcome2 =
                    injectAndRun(code, circuit, k, {{op.q1, p}});
                ASSERT_EQ(decoder.decode(outcome2.defects),
                          outcome2.observableFlip);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UnionFindSweep,
    ::testing::Combine(::testing::Values(1, 3),
                       ::testing::Values(Basis::Z, Basis::X)));

TEST(UnionFind, EmptyDefectsNoFlip)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 2, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode({}));
}

TEST(UnionFind, SampledDoubleFaultsAtD5)
{
    RotatedSurfaceCode code(5);
    const int rounds = 3;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);

    // Collect Pauli-capable ops.
    std::vector<size_t> sites;
    for (size_t k = 0; k < circuit.ops.size(); ++k) {
        const OpType t = circuit.ops[k].type;
        if (t == OpType::Cnot || t == OpType::DataNoise)
            sites.push_back(k);
    }
    Rng rng(19);
    int failures = 0;
    const int trials = 300;
    for (int trial = 0; trial < trials; ++trial) {
        size_t a = sites[rng.randint((uint32_t)sites.size())];
        size_t b = sites[rng.randint((uint32_t)sites.size())];
        if (a > b)
            std::swap(a, b);
        const Pauli pa = (Pauli)(1 + rng.randint(3));
        const Pauli pb = (Pauli)(1 + rng.randint(3));

        FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                           Rng(100 + trial));
        sim.reset();
        const Op *ops = circuit.ops.data();
        sim.executeRange(ops, ops + a + 1);
        sim.injectPauli(circuit.ops[a].q0, pa);
        sim.executeRange(ops + a + 1, ops + b + 1);
        sim.injectPauli(circuit.ops[b].q0, pb);
        sim.executeRange(ops + b + 1, ops + circuit.ops.size());
        auto outcome = extractDefects(code, Basis::Z, rounds,
                                      sim.record());
        failures += decoder.decode(outcome.defects) !=
                            outcome.observableFlip
                        ? 1
                        : 0;
    }
    // Union-Find is not guaranteed minimum weight, but two faults at
    // d=5 should essentially always be handled.
    EXPECT_LE(failures, trials / 50);
}

TEST(UnionFind, AgreesWithMwpmOnSparseShots)
{
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder mwpm(dem, 1e-3);
    UnionFindDecoder uf(dem, 1e-3);

    FrameSimulator sim(code.numQubits(), ErrorModel::standard(5e-4),
                       Rng(77));
    int agree = 0;
    const int shots = 300;
    for (int i = 0; i < shots; ++i) {
        sim.run(circuit);
        auto outcome =
            extractDefects(code, Basis::Z, rounds, sim.record());
        agree += (mwpm.decode(outcome.defects) ==
                  uf.decode(outcome.defects))
                     ? 1
                     : 0;
    }
    EXPECT_GT(agree, shots * 95 / 100);
}

TEST(UnionFind, LerWithinFactorOfMwpm)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 15;
    cfg.shots = 3000;
    cfg.seed = 88;
    cfg.em = ErrorModel::withoutLeakage(2e-3);

    MemoryExperiment mwpm_exp(code, cfg);
    cfg.decoderKind = DecoderKind::UnionFind;
    MemoryExperiment uf_exp(code, cfg);

    auto mwpm = mwpm_exp.run(PolicyKind::Never);
    auto uf = uf_exp.run(PolicyKind::Never);
    EXPECT_GT(mwpm.logicalErrors, 10u);
    // UF trades accuracy for speed; it must stay within ~2.5x.
    EXPECT_LT(uf.ler(), mwpm.ler() * 2.5);
    EXPECT_GE(uf.ler(), mwpm.ler() * 0.6);
}

TEST(UnionFind, HandlesLeakageBurstShots)
{
    // Dense random defect sets (leaked qubits randomize checks) must
    // decode without crashing and with sane output.
    RotatedSurfaceCode code(5);
    const int rounds = 8;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<int> defects;
        for (int det = 0; det < dem.numDetectors(); ++det) {
            if (rng.uniform() < 0.1)
                defects.push_back(det);
        }
        const bool prediction = decoder.decode(defects);
        (void)prediction;   // value is data-dependent; must terminate
    }
    SUCCEED();
}

} // namespace
} // namespace qec
