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

std::vector<Op>
buildDqlrSegment(const RotatedSurfaceCode &code,
                 const std::vector<LrcPair> &pairs)
{
    std::vector<Op> ops;
    for (const auto &pair : pairs) {
        const auto &stab = code.stabilizer(pair.stab);
        ops.push_back(makeOp(OpType::LeakageIswap, pair.data,
                             stab.ancilla));
        ops.push_back(makeOp(OpType::Reset, stab.ancilla));
    }
    return ops;
}

} // namespace qec
