#include "memory_circuit.h"

#include "base/logging.h"

namespace qec
{

Circuit
buildMemoryCircuit(const RotatedSurfaceCode &code, int rounds,
                   Basis basis)
{
    panicIf(rounds < 1, "memory circuit needs at least one round");

    Circuit circuit;
    circuit.numQubits = code.numQubits();
    circuit.numRounds = rounds;
    circuit.basis = basis;

    for (int r = 0; r < rounds; ++r) {
        circuit.roundBegin.push_back(circuit.ops.size());
        RoundSchedule round = buildRoundSchedule(code, r, {});
        circuit.ops.insert(circuit.ops.end(), round.ops.begin(),
                           round.ops.end());
    }
    circuit.roundBegin.push_back(circuit.ops.size());
    auto final_ops = buildFinalMeasurement(code, rounds, basis);
    circuit.ops.insert(circuit.ops.end(), final_ops.begin(),
                       final_ops.end());
    return circuit;
}

} // namespace qec
