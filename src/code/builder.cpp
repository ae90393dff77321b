#include "code/builder.h"

#include <algorithm>

#include "base/logging.h"

namespace qec
{

Op
makeOp(OpType type, int q0, int q1)
{
    Op op;
    op.type = type;
    op.q0 = q0;
    op.q1 = q1;
    return op;
}

namespace
{

/** Append the plain measure+reset tail for one stabilizer. */
void
appendPlainReadout(std::vector<Op> &ops, const Stabilizer &stab,
                   int round)
{
    Op m = makeOp(OpType::Measure, stab.ancilla);
    m.stab = stab.index;
    m.round = round;
    ops.push_back(m);
    ops.push_back(makeOp(OpType::Reset, stab.ancilla));
}

/** Append the LRC tail for one stabilizer; returns the span record. */
LrcSpan
appendLrcReadout(std::vector<Op> &ops, const Stabilizer &stab,
                 int data, int round)
{
    LrcSpan span;
    span.data = data;
    span.stab = stab.index;
    span.parity = stab.ancilla;

    // SWAP D <-> P: three CNOTs. Afterwards (when neither qubit is
    // leaked) D holds the parity state and P holds the data state.
    ops.push_back(makeOp(OpType::Cnot, data, stab.ancilla));
    ops.push_back(makeOp(OpType::Cnot, stab.ancilla, data));
    ops.push_back(makeOp(OpType::Cnot, data, stab.ancilla));

    // Measure the data qubit: this reports the parity check for this
    // round. Resetting it afterwards clears any leakage it carried.
    Op m = makeOp(OpType::Measure, data);
    m.stab = stab.index;
    m.round = round;
    m.lrcData = true;
    span.measureIndex = ops.size();
    ops.push_back(m);
    ops.push_back(makeOp(OpType::Reset, data));

    // MOV the stored data state back from P into D (2 CNOTs suffice
    // because D is freshly reset). P is left in |0>, so it needs no
    // separate reset before the next round.
    span.movBegin = ops.size();
    ops.push_back(makeOp(OpType::Cnot, stab.ancilla, data));
    ops.push_back(makeOp(OpType::Cnot, data, stab.ancilla));
    span.movEnd = ops.size();
    return span;
}

} // namespace

RoundSchedule
buildRoundSchedule(const RotatedSurfaceCode &code, int round,
                   const std::vector<LrcPair> &lrcs)
{
    RoundSchedule sched;
    auto &ops = sched.ops;

    // Validate the LRC assignment: unique parity qubits, unique data
    // qubits, adjacency.
    std::vector<uint8_t> stab_used(code.numStabilizers(), 0);
    std::vector<uint8_t> data_used(code.numData(), 0);
    std::vector<int> lrc_of_stab(code.numStabilizers(), -1);
    for (size_t i = 0; i < lrcs.size(); ++i) {
        const auto &pair = lrcs[i];
        panicIf(pair.stab < 0 || pair.stab >= code.numStabilizers(),
                "LRC references an invalid stabilizer");
        panicIf(stab_used[pair.stab]++,
                "two LRCs share one parity qubit in the same round");
        panicIf(data_used[pair.data]++,
                "one data qubit has two LRCs in the same round");
        const auto &support = code.stabilizer(pair.stab).support;
        panicIf(std::find(support.begin(), support.end(), pair.data)
                    == support.end(),
                "LRC data qubit is not adjacent to its parity qubit");
        lrc_of_stab[pair.stab] = (int)i;
    }

    // RoundStart, idles, two H layers, at most four CNOTs and a
    // measure+reset per stabilizer, and seven ops per LRC.
    ops.reserve(1 + (size_t)code.numData() +
                2 * code.xStabilizers().size() +
                6 * (size_t)code.numStabilizers() + 7 * lrcs.size());
    Op start = makeOp(OpType::RoundStart, -1);
    start.round = round;
    ops.push_back(start);

    // Round-start data noise: idle depolarizing + leakage injection.
    for (int q = 0; q < code.numData(); ++q)
        ops.push_back(makeOp(OpType::DataNoise, q));

    // Basis change for X stabilizers.
    for (int s : code.xStabilizers())
        ops.push_back(makeOp(OpType::H, code.stabilizer(s).ancilla));

    // Four CNOT layers; X stabilizers drive ancilla->data, Z
    // stabilizers data->ancilla.
    for (int layer = 0; layer < 4; ++layer) {
        for (const auto &stab : code.stabilizers()) {
            const int data = stab.dataInLayer[layer];
            if (data < 0)
                continue;
            if (stab.type == StabType::X)
                ops.push_back(makeOp(OpType::Cnot, stab.ancilla, data));
            else
                ops.push_back(makeOp(OpType::Cnot, data, stab.ancilla));
        }
    }

    for (int s : code.xStabilizers())
        ops.push_back(makeOp(OpType::H, code.stabilizer(s).ancilla));

    // Readout: plain stabilizers first, then LRC tails (their SWAPs
    // reuse data qubits whose stabilizer CNOTs are all complete).
    for (const auto &stab : code.stabilizers()) {
        if (lrc_of_stab[stab.index] < 0)
            appendPlainReadout(ops, stab, round);
    }
    for (const auto &pair : lrcs) {
        const auto &stab = code.stabilizer(pair.stab);
        sched.lrcs.push_back(
            appendLrcReadout(ops, stab, pair.data, round));
    }
    return sched;
}

std::vector<Op>
buildFinalMeasurement(const RotatedSurfaceCode &code, int rounds,
                      Basis basis)
{
    std::vector<Op> ops;
    const OpType type =
        basis == Basis::Z ? OpType::Measure : OpType::MeasureX;
    for (int q = 0; q < code.numData(); ++q) {
        Op m = makeOp(type, q);
        m.round = rounds;
        m.finalData = true;
        ops.push_back(m);
    }
    return ops;
}

} // namespace qec
