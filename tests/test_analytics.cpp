/**
 * @file
 * Closed-form leakage-model tests against the numbers quoted in the
 * paper (Sections 3.1, 4.1; Tables 1-2), plus Monte-Carlo
 * cross-checks of the transport asymmetry and of first-round
 * invisibility using the scalar frame simulator and the batch engine's
 * program replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analytics/leakage_math.h"
#include "base/rng.h"
#include "code/builder.h"
#include "code/circuit_ir.h"
#include "code/rotated_surface_code.h"
#include "frame_simulator.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{
namespace
{

TEST(Analytics, Equation1MatchesPaper)
{
    // "we estimate this quantity to be about 10%".
    const double p = pDataGivenParityLeaked();
    EXPECT_NEAR(p, 0.10, 0.005);
    EXPECT_GT(p, 0.1);   // transport term alone is 0.1
}

TEST(Analytics, Equation2MatchesPaper)
{
    // "which we estimated to be about 34%".
    const double p = pParityGivenDataLeaked();
    EXPECT_NEAR(p, 0.34, 0.01);
}

TEST(Analytics, TransportAsymmetryIsAboutThreeX)
{
    // Section 3.1.3: P(L_parity | L_data) is about 3x larger.
    const double ratio =
        pParityGivenDataLeaked() / pDataGivenParityLeaked();
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 4.0);
}

TEST(Analytics, Table2InvisibleProbabilities)
{
    EXPECT_NEAR(pInvisible(0) * 100.0, 93.8, 0.05);
    EXPECT_NEAR(pInvisible(1) * 100.0, 5.90, 0.05);
    EXPECT_NEAR(pInvisible(2) * 100.0, 0.36, 0.05);
    EXPECT_NEAR(pInvisible(3) * 100.0, 0.02, 0.01);
}

TEST(Analytics, InvisibilityDistributionNormalizes)
{
    double total = 0.0;
    for (int r = 0; r < 50; ++r)
        total += pInvisible(r);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Analytics, ExpectedInvisibleRoundsTiny)
{
    // 99%+ of leakage is visible within two rounds (Section 4.1.1).
    EXPECT_LT(expectedInvisibleRounds(), 0.1);
    EXPECT_GT(pInvisible(0) + pInvisible(1) + pInvisible(2), 0.99);
}

TEST(Analytics, CustomConstantsPropagate)
{
    LeakageConstants heavy;
    heavy.pTransport = 0.3;
    EXPECT_GT(pDataGivenParityLeaked(heavy),
              pDataGivenParityLeaked());
    EXPECT_GT(pParityGivenDataLeaked(heavy),
              pParityGivenDataLeaked());
}

TEST(Analytics, MonteCarloParityLeakMatchesEquation2)
{
    // Cross-check Eq. (2)'s transport component with the simulator: a
    // leaked bulk data qubit undergoing an LRC leaks its parity qubit
    // at a rate near the closed-form transport term.
    RotatedSurfaceCode code(3);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;

    const int q = code.dataId(1, 1);
    const int stab = code.stabilizersOfData(q).front();
    const int parity = code.stabilizer(stab).ancilla;

    int leaked = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(code.numQubits(), em, Rng(42 + i));
        sim.setLeaked(q, true);
        RoundSchedule round = buildRoundSchedule(code, 0, {{q, stab}});
        sim.executeRange(round.ops.data(),
                         round.ops.data() + round.ops.size());
        leaked += sim.leaked(parity) ? 1 : 0;
    }
    // Transport term of Eq. (2): 1 - 0.9^4 = 0.3439 (operation-induced
    // leakage is disabled here).
    const double expected = 1.0 - std::pow(0.9, 4);
    EXPECT_NEAR((double)leaked / n, expected, 0.02);
}

TEST(Analytics, MonteCarloInvisibilityFirstRound)
{
    // A leaked bulk data qubit disturbs at least one of its four
    // checks in a round with probability ~15/16 (Section 4.1.1).
    RotatedSurfaceCode code(5);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;

    const int q = code.dataId(2, 2);
    const auto &stabs = code.stabilizersOfData(q);
    int visible = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(code.numQubits(), em, Rng(99 + i));
        sim.setLeaked(q, true);
        RoundSchedule round = buildRoundSchedule(code, 0, {});
        sim.executeRange(round.ops.data(),
                         round.ops.data() + round.ops.size());
        bool flipped = false;
        for (const auto &rec : sim.record()) {
            for (int s : stabs)
                flipped |= (rec.stab == s && rec.flip);
        }
        visible += flipped ? 1 : 0;
    }
    EXPECT_NEAR((double)visible / n, 15.0 / 16.0, 0.02);

    // The same trials as the batch engine runs them: round 0 of the
    // compiled program replayed on 64-lane word-groups.
    std::vector<uint8_t> is_check(code.numStabilizers(), 0);
    for (int s : stabs)
        is_check[s] = 1;
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 1, Basis::Z, IrTailKind::SwapLrc);
    int replay_visible = 0;
    for (int first = 0; first < n; first += 64) {
        BatchFrameSimulator sim(prog.numQubits, em,
                                std::min(64, n - first), 99, first);
        sim.setLeaked(q, true, sim.liveMask());
        sim.executeProgramRound(prog, 0, sim.liveMask());
        uint64_t flipped = 0;
        for (const auto &rec : sim.record())
            if (rec.stab >= 0 && is_check[rec.stab])
                flipped |= rec.flips;
        replay_visible += popcountLanes(flipped);
    }
    EXPECT_NEAR((double)replay_visible / n, 15.0 / 16.0, 0.02);
}

} // namespace
} // namespace qec
