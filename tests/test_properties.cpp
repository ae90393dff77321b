/**
 * @file
 * Cross-module property tests: invariants that must hold for any
 * configuration, checked over randomized sweeps — matching local
 * optimality at sizes brute force cannot reach, DEM edge structure,
 * exhaustive frame propagation, experiment accounting identities, and
 * leakage bookkeeping under random op streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "base/rng.h"
#include "code/builder.h"
#include "code/rotated_surface_code.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "defects.h"
#include "exp/memory_experiment.h"
#include "frame_simulator.h"
#include "matching.h"
#include "memory_circuit.h"

namespace qec
{
namespace
{

TEST(MatchingProperty, LargeMinPerfectIsTwoOptLocal)
{
    // For instances too large for brute force, verify the classical
    // 2-exchange local optimality condition of minimum perfect
    // matchings: swapping partners of any two matched pairs never
    // improves the total weight.
    Rng rng(101);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = 10 + (int)rng.randint(20);   // defects
        std::vector<std::vector<int64_t>> w(
            2 * n, std::vector<int64_t>(2 * n, -1));
        std::vector<MatchEdge> edges;
        auto add = [&](int a, int b, int64_t weight) {
            edges.push_back({a, b, weight});
            w[a][b] = w[b][a] = weight;
        };
        for (int i = 0; i < n; ++i) {
            for (int j = i + 1; j < n; ++j) {
                add(i, j, 1 + rng.randint(500));
                add(n + i, n + j, 0);
            }
            add(i, n + i, 1 + rng.randint(500));
        }
        auto partner = minWeightPerfectMatching(2 * n, edges);

        for (int a = 0; a < 2 * n; ++a) {
            const int b = partner[a];
            ASSERT_GE(b, 0);
            if (b < a)
                continue;
            for (int c = a + 1; c < 2 * n; ++c) {
                const int d = partner[c];
                if (d < c || c == b)
                    continue;
                // Alternative pairings (a,c)(b,d) and (a,d)(b,c).
                const int64_t current = w[a][b] + w[c][d];
                if (w[a][c] >= 0 && w[b][d] >= 0) {
                    ASSERT_GE(w[a][c] + w[b][d], current)
                        << "2-exchange improves the matching";
                }
                if (w[a][d] >= 0 && w[b][c] >= 0) {
                    ASSERT_GE(w[a][d] + w[b][c], current);
                }
            }
        }
    }
}

TEST(MatchingProperty, DuplicateEdgesHandled)
{
    // Parallel edges with different weights: the lighter one wins.
    std::vector<MatchEdge> edges = {
        {0, 1, 9}, {0, 1, 2}, {2, 3, 5}};
    auto partner = minWeightPerfectMatching(4, edges);
    EXPECT_EQ(partner[0], 1);
    EXPECT_EQ(partner[2], 3);
}

class DemEdgeStructure : public ::testing::TestWithParam<int>
{
  protected:
    DemEdgeStructure()
        : code_(GetParam()),
          dem_(buildDetectorModelDirect(CircuitCompiler::surfaceMemory(
              code_, 5, Basis::Z, IrTailKind::SwapLrc)))
    {
    }

    bool
    hasEdge(int a, int b) const
    {
        for (const auto &e : dem_.edges) {
            if ((e.a == a && e.b == b) || (e.a == b && e.b == a))
                return true;
        }
        return false;
    }

    RotatedSurfaceCode code_;
    DetectorModel dem_;
};

TEST_P(DemEdgeStructure, TimeLikeEdgesEverywhere)
{
    // Measurement errors give every detector a time-like partner in
    // the next round.
    const int n_s = dem_.stabsPerRound;
    for (int s = 0; s < n_s; ++s) {
        for (int r = 0; r + 1 <= dem_.rounds; ++r) {
            EXPECT_TRUE(hasEdge(r * n_s + s, (r + 1) * n_s + s))
                << "missing time edge s=" << s << " r=" << r;
        }
    }
}

TEST_P(DemEdgeStructure, SpaceLikeEdgesBetweenSharedSupport)
{
    // Two Z stabilizers sharing a data qubit must be connected by a
    // same-round edge (the data error mechanism).
    const int n_s = dem_.stabsPerRound;
    const auto &zstabs = code_.zStabilizers();
    for (int q = 0; q < code_.numData(); ++q) {
        std::vector<int> z_neighbors;
        for (int s : code_.stabilizersOfData(q)) {
            if (code_.stabilizer(s).type == StabType::Z)
                z_neighbors.push_back(code_.stabilizer(s).basisIndex);
        }
        if (z_neighbors.size() == 2) {
            EXPECT_TRUE(hasEdge(2 * n_s + z_neighbors[0],
                                2 * n_s + z_neighbors[1]))
                << "missing space edge via data " << q;
        }
    }
    (void)zstabs;
}

TEST_P(DemEdgeStructure, BoundaryEdgesOnlyNearBoundary)
{
    // Boundary edges belong to stabilizers whose data errors can
    // terminate on the lattice boundary: those adjacent to a data
    // qubit with a single Z-stabilizer neighbour.
    const int n_s = dem_.stabsPerRound;
    std::set<int> boundary_stabs;
    for (int q = 0; q < code_.numData(); ++q) {
        std::vector<int> z_neighbors;
        for (int s : code_.stabilizersOfData(q)) {
            if (code_.stabilizer(s).type == StabType::Z)
                z_neighbors.push_back(code_.stabilizer(s).basisIndex);
        }
        if (z_neighbors.size() == 1)
            boundary_stabs.insert(z_neighbors[0]);
    }
    ASSERT_FALSE(boundary_stabs.empty());
    for (const auto &e : dem_.edges) {
        if (e.b != kBoundary)
            continue;
        const int s = e.a % n_s;
        EXPECT_TRUE(boundary_stabs.count(s))
            << "unexpected boundary edge at stab " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, DemEdgeStructure,
                         ::testing::Values(3, 5, 7));

TEST(FrameProperty, CnotPropagationExhaustive)
{
    // All 16 input frame combinations against the symplectic rule
    // x_c -> x_t, z_t -> z_c.
    for (int mask = 0; mask < 16; ++mask) {
        const bool xc = mask & 1;
        const bool zc = mask & 2;
        const bool xt = mask & 4;
        const bool zt = mask & 8;
        FrameSimulator sim(2, ErrorModel::noiseless(), Rng(1));
        if (xc)
            sim.injectPauli(0, Pauli::X);
        if (zc)
            sim.injectPauli(0, Pauli::Z);
        if (xt)
            sim.injectPauli(1, Pauli::X);
        if (zt)
            sim.injectPauli(1, Pauli::Z);
        Op cnot;
        cnot.type = OpType::Cnot;
        cnot.q0 = 0;
        cnot.q1 = 1;
        sim.execute(cnot);
        EXPECT_EQ(sim.xFrame(0), xc);
        EXPECT_EQ(sim.zFrame(0), zc ^ zt);
        EXPECT_EQ(sim.xFrame(1), xt ^ xc);
        EXPECT_EQ(sim.zFrame(1), zt);
    }
}

TEST(FrameProperty, MeasurementErrorRate)
{
    ErrorModel em = ErrorModel::noiseless();
    em.p = 0.05;   // only measurement/H/reset/depol channels use p
    em.leakageEnabled = false;
    FrameSimulator sim(1, em, Rng(55));
    int flips = 0;
    const int n = 40000;
    Op m;
    m.type = OpType::Measure;
    m.q0 = 0;
    for (int i = 0; i < n; ++i) {
        sim.execute(m);
        flips += sim.record().back().flip ? 1 : 0;
    }
    EXPECT_NEAR(flips, n * em.p, 5 * std::sqrt(n * em.p));
}

TEST(FrameProperty, RandomOpStreamKeepsStateConsistent)
{
    // Fuzz: random ops over a small register; leakage flags and
    // frames must stay within bounds and resets must clear.
    Rng rng(77);
    ErrorModel em = ErrorModel::standard(0.01);
    FrameSimulator sim(6, em, Rng(78));
    for (int step = 0; step < 20000; ++step) {
        Op op;
        const int kind = (int)rng.randint(6);
        op.q0 = (int)rng.randint(6);
        switch (kind) {
          case 0: op.type = OpType::DataNoise; break;
          case 1: op.type = OpType::Reset; break;
          case 2: op.type = OpType::H; break;
          case 3:
            op.type = OpType::Cnot;
            op.q1 = (op.q0 + 1 + (int)rng.randint(5)) % 6;
            break;
          case 4: op.type = OpType::Measure; break;
          default:
            op.type = OpType::LeakageIswap;
            op.q1 = (op.q0 + 1 + (int)rng.randint(5)) % 6;
            break;
        }
        sim.execute(op);
        if (op.type == OpType::Reset) {
            // Leakage must clear; the frame may carry the p-rate
            // initialization error, so only leakage is asserted.
            ASSERT_FALSE(sim.leaked(op.q0));
        }
    }
    ASSERT_LE(sim.countLeaked(0, 6), 6);
}

TEST(ExperimentProperty, LprComponentsAddUp)
{
    RotatedSurfaceCode code(5);
    ExperimentConfig cfg;
    cfg.rounds = 12;
    cfg.shots = 150;
    cfg.seed = 200;
    cfg.decode = false;
    cfg.trackLpr = true;
    MemoryExperiment exp(code, cfg);
    auto r = exp.run(PolicyKind::Eraser);
    for (int round = 0; round < cfg.rounds; ++round) {
        const double total = r.lprTotal(round) *
                             (code.numData() + code.numStabilizers());
        const double parts =
            r.lprData(round) * code.numData() +
            r.lprParity(round) * code.numStabilizers();
        EXPECT_NEAR(total, parts, 1e-9);
    }
}

TEST(ExperimentProperty, DecisionAccountingStableAcrossPolicies)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 10;
    cfg.shots = 80;
    cfg.seed = 201;
    cfg.decode = false;
    MemoryExperiment exp(code, cfg);
    const uint64_t denom =
        cfg.shots * (uint64_t)cfg.rounds * code.numData();
    for (PolicyKind kind : {PolicyKind::Never, PolicyKind::Always,
                            PolicyKind::Eraser, PolicyKind::EraserM,
                            PolicyKind::Optimal}) {
        auto r = exp.run(kind);
        EXPECT_EQ(r.tp + r.fp + r.tn + r.fn, denom);
        EXPECT_EQ(r.tp + r.fp, r.lrcsScheduled);
    }
}

TEST(ExperimentProperty, NeverPolicyLeakageMonotoneInP)
{
    // More physical error -> more leakage left on the device.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 15;
    cfg.shots = 400;
    cfg.seed = 202;
    cfg.decode = false;
    cfg.trackLpr = true;

    cfg.em = ErrorModel::standard(5e-4);
    auto low = MemoryExperiment(code, cfg).run(PolicyKind::Never);
    cfg.em = ErrorModel::standard(4e-3);
    auto high = MemoryExperiment(code, cfg).run(PolicyKind::Never);
    EXPECT_GT(high.lprTotal(cfg.rounds - 1),
              low.lprTotal(cfg.rounds - 1));
}

TEST(DecoderProperty, WeightsRespondToP)
{
    // The same defect pattern can decode differently under different
    // priors; at minimum the decoder must stay consistent and the
    // graph must rebuild cleanly for several p values.
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 4, Basis::Z);
    for (double p : {1e-4, 1e-3, 1e-2}) {
        MwpmDecoder decoder(dem, p);
        EXPECT_FALSE(decoder.decode({}));
        EXPECT_GT(decoder.numGraphEdges(), 0u);
    }
}

TEST(DecoderProperty, MemoryXSingleFaultsSampled)
{
    RotatedSurfaceCode code(5);
    const int rounds = 2;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::X);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::X);
    MwpmDecoder decoder(dem, 1e-3);

    int checked = 0;
    for (size_t k = 0; k < circuit.ops.size(); k += 5) {
        const Op &op = circuit.ops[k];
        if (op.type != OpType::Cnot && op.type != OpType::DataNoise)
            continue;
        FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                           Rng(3));
        sim.reset();
        const Op *ops = circuit.ops.data();
        sim.executeRange(ops, ops + k + 1);
        sim.injectPauli(op.q0, Pauli::Z);
        sim.executeRange(ops + k + 1, ops + circuit.ops.size());
        auto outcome =
            extractDefects(code, Basis::X, rounds, sim.record());
        ASSERT_EQ(decoder.decode(outcome.defects),
                  outcome.observableFlip)
            << "op " << k;
        ++checked;
    }
    EXPECT_GT(checked, 30);
}

TEST(PolicyProperty, SchedulesAlwaysValidForBuilder)
{
    // Whatever a policy emits must be accepted by the round builder:
    // fuzz ERASER with random syndromes.
    RotatedSurfaceCode code(7);
    SwapLookupTable lookup(code);
    EraserPolicy policy(code, lookup, false);
    Rng rng(303);
    RoundObservation obs;
    obs.events.assign(code.numStabilizers(), 0);
    obs.leakedLabels.assign(code.numStabilizers(), 0);
    obs.hadLrc.assign(code.numData(), 0);

    for (int round = 0; round < 200; ++round) {
        for (auto &event : obs.events)
            event = rng.bernoulli(0.2) ? 1 : 0;
        obs.round = round;
        auto lrcs = policy.nextRound(obs);
        // Throws/aborts if invalid (duplicate parity, non-adjacent).
        RoundSchedule sched = buildRoundSchedule(code, round, lrcs);
        ASSERT_EQ(sched.lrcs.size(), lrcs.size());
        std::fill(obs.hadLrc.begin(), obs.hadLrc.end(), 0);
        for (const auto &pair : lrcs)
            obs.hadLrc[pair.data] = 1;
    }
}

TEST(PolicyProperty, EraserDeterministicGivenSameSyndromes)
{
    RotatedSurfaceCode code(5);
    SwapLookupTable lookup(code);
    EraserPolicy a(code, lookup, false);
    EraserPolicy b(code, lookup, false);
    Rng rng(404);
    RoundObservation obs;
    obs.events.assign(code.numStabilizers(), 0);
    obs.leakedLabels.assign(code.numStabilizers(), 0);
    obs.hadLrc.assign(code.numData(), 0);
    for (int round = 0; round < 60; ++round) {
        for (auto &event : obs.events)
            event = rng.bernoulli(0.15) ? 1 : 0;
        obs.round = round;
        auto la = a.nextRound(obs);
        auto lb = b.nextRound(obs);
        ASSERT_EQ(la.size(), lb.size());
        for (size_t i = 0; i < la.size(); ++i) {
            ASSERT_EQ(la[i].data, lb[i].data);
            ASSERT_EQ(la[i].stab, lb[i].stab);
        }
        std::fill(obs.hadLrc.begin(), obs.hadLrc.end(), 0);
        for (const auto &pair : la)
            obs.hadLrc[pair.data] = 1;
    }
}

} // namespace
} // namespace qec
