/**
 * @file
 * Behavioral tests of the closed control loop: forced leakage bursts
 * must be detected and removed within a few rounds (the paper's core
 * promise), boundary stabilizers must support LRCs with the right op
 * accounting, and the decoder stack must stay fast on storm-sized
 * inputs.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "exp/memory_experiment.h"
#include "frame_simulator.h"
#include "matching.h"
#include "qsg.h"

namespace qec
{
namespace
{

/** Drive ERASER manually for `rounds`; force-leak `burst` data qubits
 *  at `storm_round`; return rounds until all data leakage is gone. */
int
stormRecoveryRounds(int d, const std::vector<int> &burst,
                    int storm_round, int rounds, bool multi_level,
                    uint64_t seed)
{
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;   // keep the burst from re-spreading
    FrameSimulator sim(code.numQubits(), em, Rng(seed));
    QecScheduleGenerator qsg(code, RemovalProtocol::SwapLrc);
    EraserPolicy policy(code, lookup, multi_level);

    std::vector<LrcPair> lrcs;
    std::vector<uint8_t> prev(code.numStabilizers(), 0);
    RoundObservation obs;
    obs.events.resize(code.numStabilizers());
    obs.leakedLabels.assign(code.numStabilizers(), 0);
    obs.hadLrc.resize(code.numData());

    int cleared_at = -1;
    for (int r = 0; r < rounds; ++r) {
        if (r == storm_round) {
            for (int q : burst)
                sim.setLeaked(q, true);
        }
        const size_t mark = sim.record().size();
        RoundSchedule sched = qsg.generate(r, lrcs);
        sim.executeRange(sched.ops.data(),
                         sched.ops.data() + sched.ops.size());

        std::vector<uint8_t> flips(code.numStabilizers(), 0);
        std::fill(obs.leakedLabels.begin(), obs.leakedLabels.end(), 0);
        for (size_t i = mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab >= 0) {
                flips[rec.stab] = rec.flip ? 1 : 0;
                if (!rec.lrcData)
                    obs.leakedLabels[rec.stab] =
                        rec.leakedLabel ? 1 : 0;
            }
        }
        for (int s = 0; s < code.numStabilizers(); ++s)
            obs.events[s] = r == 0 ? 0 : (flips[s] ^ prev[s]);
        prev = flips;

        std::fill(obs.hadLrc.begin(), obs.hadLrc.end(), 0);
        for (const auto &pair : lrcs)
            obs.hadLrc[pair.data] = 1;
        obs.round = r;
        lrcs = policy.nextRound(obs);

        if (r >= storm_round && cleared_at < 0 &&
            sim.countLeaked(0, code.numData()) == 0) {
            cleared_at = r - storm_round;
        }
    }
    return cleared_at;
}

TEST(Storm, SingleLeakClearedWithinFewRounds)
{
    RotatedSurfaceCode code(5);
    // A bulk data qubit; visibility per round is 15/16, so with 20
    // rounds of margin the controller must catch it.
    const int q = code.dataId(2, 2);
    const int cleared =
        stormRecoveryRounds(5, {q}, 5, 30, false, 1234);
    ASSERT_GE(cleared, 0) << "leakage never removed";
    EXPECT_LE(cleared, 8);
}

TEST(Storm, ClusterClearedDespiteSwapConflicts)
{
    RotatedSurfaceCode code(7);
    std::vector<int> burst = {
        code.dataId(2, 2), code.dataId(2, 3), code.dataId(3, 2),
        code.dataId(3, 3)};
    const int cleared =
        stormRecoveryRounds(7, burst, 6, 40, false, 99);
    ASSERT_GE(cleared, 0);
    // Four adjacent leaks contend for shared parity qubits; the DLI
    // plus PUTT cooldown still clears the cluster within ~10 rounds.
    EXPECT_LE(cleared, 12);
}

TEST(Storm, MultiLevelReadoutClearsAtLeastAsFast)
{
    RotatedSurfaceCode code(5);
    std::vector<int> burst = {code.dataId(1, 1), code.dataId(3, 3)};
    int base_total = 0;
    int m_total = 0;
    for (uint64_t seed = 0; seed < 10; ++seed) {
        base_total +=
            stormRecoveryRounds(5, burst, 4, 40, false, 500 + seed);
        m_total +=
            stormRecoveryRounds(5, burst, 4, 40, true, 500 + seed);
    }
    EXPECT_LE(m_total, base_total + 6);
}

TEST(Storm, CornerQubitLeakIsClearable)
{
    // Corner data qubits have only two parity neighbours — the hard
    // case for the >=2-flips rule (both must fire).
    RotatedSurfaceCode code(5);
    const int corner = code.dataId(0, 0);
    const int cleared =
        stormRecoveryRounds(5, {corner}, 5, 60, false, 77);
    ASSERT_GE(cleared, 0) << "corner leakage never removed";
}

TEST(BoundaryLrc, WeightTwoStabilizerOpAccounting)
{
    // An LRC on a weight-2 boundary stabilizer: 2 stabilizer CNOTs + 5
    // LRC CNOTs = 7 two-qubit ops touching its ancilla.
    RotatedSurfaceCode code(5);
    int stab_w2 = -1;
    for (const auto &stab : code.stabilizers()) {
        if (stab.support.size() == 2)
            stab_w2 = stab.index;
    }
    ASSERT_GE(stab_w2, 0);
    const int data = code.stabilizer(stab_w2).support.front();
    const int parity = code.stabilizer(stab_w2).ancilla;

    RoundSchedule round =
        buildRoundSchedule(code, 0, {{data, stab_w2}});
    int touching = 0;
    for (const auto &op : round.ops) {
        if (op.type == OpType::Cnot &&
            (op.q0 == parity || op.q1 == parity))
            ++touching;
    }
    EXPECT_EQ(touching, 7);
}

TEST(BoundaryLrc, LeakRemovedViaWeightTwoStabilizer)
{
    RotatedSurfaceCode code(3);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;

    int stab_w2 = -1;
    for (const auto &stab : code.stabilizers()) {
        if (stab.support.size() == 2)
            stab_w2 = stab.index;
    }
    const int data = code.stabilizer(stab_w2).support.front();

    FrameSimulator sim(code.numQubits(), em, Rng(3));
    sim.setLeaked(data, true);
    RoundSchedule round =
        buildRoundSchedule(code, 0, {{data, stab_w2}});
    sim.executeRange(round.ops.data(),
                     round.ops.data() + round.ops.size());
    EXPECT_FALSE(sim.leaked(data));
}

TEST(Stress, BlossomStormSizedInstanceFast)
{
    // A storm shot can put ~200 defects into the matcher; it must
    // finish in well under a second.
    const int n = 200;
    Rng rng(8);
    std::vector<MatchEdge> edges;
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n && j < i + 10; ++j) {
            edges.push_back({i, j, (int64_t)(1 + rng.randint(3000))});
            edges.push_back({n + i, n + j, 0});
        }
        edges.push_back({i, n + i, (int64_t)(1 + rng.randint(3000))});
    }
    const auto start = std::chrono::steady_clock::now();
    auto partner = minWeightPerfectMatching(2 * n, edges);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    for (int v = 0; v < 2 * n; ++v)
        ASSERT_NE(partner[v], -1);
    EXPECT_LT(elapsed.count(), 2000);
}

TEST(Stress, ExperimentWithHeavyLeakageTerminates)
{
    // 10x the paper's leakage rate: decoders see defect storms.
    RotatedSurfaceCode code(5);
    ExperimentConfig cfg;
    cfg.rounds = 15;
    cfg.shots = 60;
    cfg.seed = 606;
    cfg.em = ErrorModel::standard(1e-3);
    cfg.em.leakFraction = 1.0;   // leakage injection at p itself
    MemoryExperiment exp(code, cfg);
    for (PolicyKind kind :
         {PolicyKind::Never, PolicyKind::Always, PolicyKind::Eraser}) {
        auto result = exp.run(kind);
        EXPECT_EQ(result.shots, cfg.shots);
    }
}

} // namespace
} // namespace qec
