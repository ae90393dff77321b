/**
 * @file
 * Reproduces Table 2 (invisible-leakage probabilities, Eq. 3) and the
 * Section 3.1 closed-form transport asymmetry (Eqs. 1-2), each
 * cross-checked against Monte-Carlo runs of the batch frame simulator
 * replaying the compiled memory program.
 */

#include <cstdio>
#include <vector>

#include "analytics/leakage_math.h"
#include "bench_util.h"
#include "code/circuit_ir.h"
#include "sim/batch_frame_simulator.h"

using namespace qec;

namespace
{

/** Rounds simulated per trial; a lane still invisible after them
 *  counts as invisible for kRounds rounds. */
constexpr int kRounds = 12;

/**
 * Histogram of the number of rounds a leaked bulk data qubit stays
 * invisible (none of its checks flips), over `trials` trials run 64
 * lanes per word-group: entry r is the fraction that first became
 * visible in round r.
 */
std::vector<double>
monteCarloInvisible(int trials)
{
    RotatedSurfaceCode code(5);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, kRounds, Basis::Z, IrTailKind::SwapLrc);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;
    const int q = code.dataId(2, 2);
    std::vector<uint8_t> is_check(code.numStabilizers(), 0);
    for (int s : code.stabilizersOfData(q))
        is_check[s] = 1;

    std::vector<double> first_visible(kRounds + 1, 0.0);
    for (const auto &[first, lanes] :
         batchGroupSpans((uint64_t)trials, 64)) {
        BatchFrameSimulator sim(prog.numQubits, em, lanes, 31, first);
        const uint64_t live = sim.liveMask();
        sim.setLeaked(q, true, live);
        uint64_t seen = 0;
        for (int r = 0; r < kRounds && seen != live; ++r) {
            uint64_t visible = 0;
            sim.executeProgramRound(prog, r, live);
            for (const auto &rec : sim.record())
                if (rec.stab >= 0 && is_check[rec.stab])
                    visible |= rec.flips;
            sim.clearRecord();
            first_visible[r] += popcountLanes(visible & ~seen);
            seen |= visible;
        }
        first_visible[kRounds] += popcountLanes(live & ~seen);
    }
    for (double &f : first_visible)
        f /= trials;
    return first_visible;
}

} // namespace

int
main()
{
    banner("Invisible leakage probabilities and transport asymmetry",
           "Table 2 (Eq. 3) and Eqs. 1-2, Sections 3.1 / 4.1");

    const int trials = (int)scaledShots(30000);
    std::printf("Table 2: probability a leaked data qubit stays\n"
                "invisible for r rounds\n");
    std::printf("%8s %14s %16s\n", "rounds", "Eq.(3) %", "MonteCarlo %");
    const std::vector<double> invisible = monteCarloInvisible(trials);
    for (int r = 0; r <= 3; ++r) {
        std::printf("%8d %14.2f %16.2f\n", r, pInvisible(r) * 100.0,
                    invisible[r] * 100.0);
    }
    std::printf("(paper: 93.8 / 5.90 / 0.36 / 0.02)\n\n");

    std::printf("Section 3.1 transport asymmetry:\n");
    std::printf("  P(L_data | L_parity), Eq. (1):  %.4f  (paper ~0.10)\n",
                pDataGivenParityLeaked());
    std::printf("  P(L_parity | L_data), Eq. (2):  %.4f  (paper ~0.34)\n",
                pParityGivenDataLeaked());
    std::printf("  asymmetry ratio:                %.2fx (paper ~3x)\n",
                pParityGivenDataLeaked() / pDataGivenParityLeaked());
    std::printf("  expected invisible rounds:      %.4f\n",
                expectedInvisibleRounds());
    return 0;
}
