/**
 * @file
 * Decoder playground: inject hand-picked Pauli errors into a noiseless
 * distance-5 memory run and watch the MWPM decoder work — which
 * detectors fire, what gets matched, whether the logical observable is
 * recovered. Also shows the failure mode the paper builds on
 * (Fig. 2(b) Case-2): a leaked qubit suppressing a parity check makes
 * the decoder mis-pair a real error with the boundary.
 */

#include <cstdio>
#include <vector>

#include "code/circuit_ir.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "sim/batch_frame_simulator.h"

using namespace qec;

namespace
{

struct Injection
{
    int round;
    int qubit;
    Pauli pauli;
    bool leak = false;
};

void
runCase(const char *title, const RotatedSurfaceCode &code, int rounds,
        const MwpmDecoder &decoder,
        const std::vector<Injection> &injections)
{
    // One noiseless shot: a 1-lane word-group replaying the compiled
    // program, with each injection applied before its round.
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, rounds, Basis::Z, IrTailKind::SwapLrc);
    BatchFrameSimulator sim(prog.numQubits, ErrorModel::noiseless(),
                            /*num_lanes=*/1, /*seed=*/11,
                            /*first_shot=*/0);
    const uint64_t lane = sim.liveMask();
    for (int r = 0; r < rounds; ++r) {
        for (const auto &inj : injections) {
            if (inj.round == r) {
                if (inj.leak)
                    sim.setLeaked(inj.qubit, true, lane);
                else
                    sim.injectPauli(inj.qubit, inj.pauli, lane);
            }
        }
        sim.executeProgramRound(prog, r, lane);
    }
    sim.executeProgramFinal(prog, lane);

    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    extractor.extract(prog.detectors, rounds, sim.record(), 1, syndrome);
    const std::vector<int> defects(syndrome.laneBegin(0),
                                   syndrome.laneBegin(0) +
                                       syndrome.laneSize(0));
    const bool observable_flip = syndrome.laneObservable(0);
    const bool predicted = decoder.decode(defects);

    std::printf("--- %s ---\n", title);
    std::printf("fired detectors (stab, round): ");
    const int n_s = code.numZStabilizers();
    for (int det : defects)
        std::printf("(%d, %d) ", det % n_s, det / n_s);
    std::printf("\nactual logical flip: %s   decoder prediction: %s"
                "   -> %s\n\n",
                observable_flip ? "YES" : "no",
                predicted ? "YES" : "no",
                predicted == observable_flip
                    ? "corrected"
                    : "LOGICAL ERROR");
}

} // namespace

int
main()
{
    RotatedSurfaceCode code(5);
    const int rounds = 6;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    std::printf("distance-5 memory-Z, %d rounds, %d detectors,"
                " %zu graph edges\n\n",
                rounds, dem.numDetectors(), decoder.numGraphEdges());

    runCase("single X on a bulk data qubit", code, rounds, decoder,
            {{2, code.dataId(2, 2), Pauli::X}});

    runCase("two X errors in the same round", code, rounds, decoder,
            {{2, code.dataId(1, 1), Pauli::X},
             {2, code.dataId(3, 3), Pauli::X}});

    runCase("X chain of length 2 (still correctable at d=5)", code,
            rounds, decoder,
            {{2, code.dataId(1, 2), Pauli::X},
             {2, code.dataId(2, 2), Pauli::X}});

    runCase("Y error (visible to both bases; Z graph sees its X part)",
            code, rounds, decoder,
            {{3, code.dataId(2, 3), Pauli::Y}});

    runCase("leaked neighbour obfuscating an X error (Fig. 2(b))",
            code, rounds, decoder,
            {{2, code.dataId(0, 1), Pauli::X},
             {2, code.dataId(1, 1), Pauli::I, /*leak=*/true}});

    std::printf("The last case shows why leakage is pernicious: the\n"
                "leaked qubit randomizes nearby checks, so even exact\n"
                "MWPM may pair the real defect with the boundary --\n"
                "exactly the paper's Case-2 narrative.\n");
    return 0;
}
