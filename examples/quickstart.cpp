/**
 * @file
 * Quickstart: declare a one-point sweep over the scheduling policies
 * of a distance-5 memory experiment and print the headline metrics.
 * This is the smallest end-to-end use of the library:
 *
 *   code   -> lattice + syndrome extraction schedule
 *   sweep  -> SweepPlan (axes + policies) run by SweepRunner
 *   policy -> ERASER (speculates leakage, inserts LRCs on demand)
 *
 * The plan derives a deterministic seed for the point from its
 * physical axis tuple (sweepPointSeed), builds the experiment and
 * decoder once, and runs every policy on the same noise streams.
 */

#include <cstdio>

#include "base/simd_word.h"
#include "exp/sweep_runner.h"

using namespace qec;

int
main()
{
    SweepPlan plan;
    plan.name = "quickstart";
    // A distance-5 rotated surface code (25 data + 24 parity qubits),
    // 10 QEC cycles at the paper's noise model.
    plan.distances = {5};
    plan.ps = {1e-3};
    plan.rounds = {SweepRounds::cycles(10)};
    plan.policies = {PolicyKind::Always, PolicyKind::Eraser,
                     PolicyKind::EraserM, PolicyKind::Optimal};
    plan.base.shots = 2000;
    plan.base.trackLpr = true;
    // Shots per simulator word-group: 1..64 = one 64-bit word per
    // bit-plane, 256/512 = the 4-/8-word SIMD engine. Results are
    // bit-identical across 64/256/512 (each 64-lane block keeps its
    // own noise streams); recommendedBatchWidth() picks the host's
    // throughput sweet spot.
    plan.base.batchWidth = (unsigned)recommendedBatchWidth();

    SweepRunner runner(plan);
    CollectSink results;
    runner.addSink(results);
    runner.run();

    const PointResult &point = results.points.front();
    std::printf("distance-5 memory experiment, %llu shots, %d rounds,"
                " p = %.0e, seed %llu\n\n",
                (unsigned long long)point.point.shots,
                point.point.rounds, point.point.p,
                (unsigned long long)point.point.seed);
    std::printf("%-12s %12s %12s %12s %10s\n", "policy", "LER",
                "LRCs/round", "accuracy", "LPR(end)");
    for (const ExperimentResult &r : point.results) {
        std::printf("%-12s %12s %12.2f %11.1f%% %10.5f\n",
                    r.policy.c_str(), r.lerString().c_str(),
                    r.avgLrcsPerRound(),
                    r.speculationAccuracy() * 100.0,
                    r.lprTotal(point.point.rounds - 1));
    }

    std::printf("\nERASER removes leakage with a fraction of"
                " Always-LRCs' operations;\nsee bench/ for the full"
                " paper reproduction.\n");
    return 0;
}
