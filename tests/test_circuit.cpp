/**
 * @file
 * Circuit-builder tests: the op structure of plain rounds, the paper's
 * LRC cost accounting (4 -> 9 two-qubit ops per stabilizer, Fig. 1(b)
 * and Section 3.1.2), DQLR segments, and assignment validation.
 */

#include <gtest/gtest.h>

#include <set>

#include "code/builder.h"
#include "code/rotated_surface_code.h"
#include "memory_circuit.h"

namespace qec
{
namespace
{

int
countCnotsTouching(const std::vector<Op> &ops, int qubit)
{
    int n = 0;
    for (const auto &op : ops) {
        if (op.type == OpType::Cnot &&
            (op.q0 == qubit || op.q1 == qubit))
            ++n;
    }
    return n;
}

class RoundSweep : public ::testing::TestWithParam<int>
{
  protected:
    RotatedSurfaceCode code_{GetParam()};
};

TEST_P(RoundSweep, PlainRoundOpCounts)
{
    const int d = GetParam();
    RoundSchedule round = buildRoundSchedule(code_, 0, {});

    Circuit c;
    c.ops = round.ops;
    EXPECT_EQ(c.countOps(OpType::DataNoise), d * d);
    // One H before and one after the CNOT layers per X stabilizer.
    EXPECT_EQ(c.countOps(OpType::H), 2 * code_.numXStabilizers());
    // One CNOT per (stabilizer, support qubit).
    int expected_cnots = 0;
    for (const auto &stab : code_.stabilizers())
        expected_cnots += (int)stab.support.size();
    EXPECT_EQ(c.countOps(OpType::Cnot), expected_cnots);
    EXPECT_EQ(c.countOps(OpType::Measure), code_.numStabilizers());
    EXPECT_EQ(c.countOps(OpType::Reset), code_.numStabilizers());
    EXPECT_TRUE(round.lrcs.empty());
}

TEST_P(RoundSweep, PlainRoundMeasuresEveryStabilizerOnce)
{
    RoundSchedule round = buildRoundSchedule(code_, 3, {});
    std::set<int> measured;
    for (const auto &op : round.ops) {
        if (op.type != OpType::Measure)
            continue;
        EXPECT_TRUE(measured.insert(op.stab).second);
        EXPECT_EQ(op.round, 3);
        EXPECT_EQ(op.q0, code_.stabilizer(op.stab).ancilla);
    }
    EXPECT_EQ((int)measured.size(), code_.numStabilizers());
}

TEST_P(RoundSweep, LrcAddsFiveTwoQubitOps)
{
    // Paper Fig. 1(b): LRCs take a stabilizer from 4 to 9 two-qubit
    // operations.
    RoundSchedule plain = buildRoundSchedule(code_, 0, {});
    const int stab = code_.stabilizersOfData(0).front();
    RoundSchedule with_lrc = buildRoundSchedule(code_, 0, {{0, stab}});

    Circuit a;
    a.ops = plain.ops;
    Circuit b;
    b.ops = with_lrc.ops;
    EXPECT_EQ(b.countTwoQubitOps(), a.countTwoQubitOps() + 5);
    ASSERT_EQ(with_lrc.lrcs.size(), 1u);
}

TEST_P(RoundSweep, LrcParityQubitUsage)
{
    // Section 3.1.2: with an LRC, the parity qubit takes part in 9
    // CNOTs, 6 of them with the swapped data qubit, 4 of those before
    // the data qubit's reset.
    const int stab = code_.stabilizersOfData(0).front();
    const int parity = code_.stabilizer(stab).ancilla;
    RoundSchedule round = buildRoundSchedule(code_, 0, {{0, stab}});

    const int weight = (int)code_.stabilizer(stab).support.size();
    // The parity qubit sees its stabilizer CNOTs plus the 5 LRC CNOTs.
    EXPECT_EQ(countCnotsTouching(round.ops, parity), weight + 5);

    int pd_before_reset = 0;
    int pd_total = 0;
    bool reset_seen = false;
    for (const auto &op : round.ops) {
        if (op.type == OpType::Reset && op.q0 == 0)
            reset_seen = true;
        if (op.type == OpType::Cnot &&
            ((op.q0 == 0 && op.q1 == parity) ||
             (op.q0 == parity && op.q1 == 0))) {
            ++pd_total;
            if (!reset_seen)
                ++pd_before_reset;
        }
    }
    // Bulk data qubit: 1 stabilizer CNOT + 3 SWAP + 2 MOV = 6; the
    // stabilizer CNOT + SWAP happen before the reset.
    EXPECT_EQ(pd_total, 6);
    EXPECT_EQ(pd_before_reset, 4);
}

TEST_P(RoundSweep, LrcMeasuresDataInsteadOfParity)
{
    const int stab = code_.stabilizersOfData(0).front();
    RoundSchedule round = buildRoundSchedule(code_, 2, {{0, stab}});

    bool parity_measured = false;
    bool data_measured = false;
    for (const auto &op : round.ops) {
        if (op.type != OpType::Measure)
            continue;
        if (op.q0 == code_.stabilizer(stab).ancilla)
            parity_measured = true;
        if (op.q0 == 0) {
            data_measured = true;
            EXPECT_TRUE(op.lrcData);
            EXPECT_EQ(op.stab, stab);
            EXPECT_EQ(op.round, 2);
        }
    }
    EXPECT_FALSE(parity_measured);
    EXPECT_TRUE(data_measured);
}

TEST_P(RoundSweep, LrcSpanIndicesConsistent)
{
    const int stab = code_.stabilizersOfData(0).front();
    RoundSchedule round = buildRoundSchedule(code_, 0, {{0, stab}});
    ASSERT_EQ(round.lrcs.size(), 1u);
    const LrcSpan &span = round.lrcs[0];
    EXPECT_EQ(span.data, 0);
    EXPECT_EQ(span.stab, stab);
    EXPECT_EQ(span.parity, code_.stabilizer(stab).ancilla);
    EXPECT_EQ(round.ops[span.measureIndex].type, OpType::Measure);
    EXPECT_EQ(round.ops[span.measureIndex].q0, 0);
    EXPECT_EQ(span.movEnd - span.movBegin, 2u);
    for (size_t i = span.movBegin; i < span.movEnd; ++i)
        EXPECT_EQ(round.ops[i].type, OpType::Cnot);
    EXPECT_GT(span.movBegin, span.measureIndex);
}

TEST_P(RoundSweep, ManyLrcsInOneRound)
{
    // Schedule an LRC on every stabilizer using the perfect pairing
    // structure: pick for each stabilizer one support qubit, all
    // distinct, via first-fit.
    std::vector<LrcPair> pairs;
    std::vector<uint8_t> data_used(code_.numData(), 0);
    for (const auto &stab : code_.stabilizers()) {
        for (int q : stab.support) {
            if (!data_used[q]) {
                data_used[q] = 1;
                pairs.push_back({q, stab.index});
                break;
            }
        }
    }
    RoundSchedule round = buildRoundSchedule(code_, 0, pairs);
    EXPECT_EQ(round.lrcs.size(), pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Distances, RoundSweep,
                         ::testing::Values(3, 5, 7));

TEST(Builder, RejectsDuplicateParity)
{
    RotatedSurfaceCode code(3);
    const int stab = code.stabilizersOfData(4).front();
    const auto &support = code.stabilizer(stab).support;
    ASSERT_GE(support.size(), 2u);
    EXPECT_DEATH(
        {
            buildRoundSchedule(code, 0,
                               {{support[0], stab}, {support[1], stab}});
        },
        "");
}

TEST(Builder, RejectsNonAdjacentPair)
{
    RotatedSurfaceCode code(5);
    // Find a stabilizer not adjacent to data qubit 0.
    int far_stab = -1;
    for (const auto &stab : code.stabilizers()) {
        bool adjacent = false;
        for (int q : stab.support)
            adjacent |= (q == 0);
        if (!adjacent) {
            far_stab = stab.index;
            break;
        }
    }
    ASSERT_GE(far_stab, 0);
    EXPECT_DEATH({ buildRoundSchedule(code, 0, {{0, far_stab}}); }, "");
}

TEST(Builder, MemoryCircuitShape)
{
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, 5, Basis::Z);
    EXPECT_EQ(circuit.numRounds, 5);
    EXPECT_EQ(circuit.numQubits, code.numQubits());
    EXPECT_EQ((int)circuit.roundBegin.size(), 6);
    EXPECT_EQ(circuit.countOps(OpType::RoundStart), 5);
    // Final transversal measurement: one per data qubit.
    int finals = 0;
    for (const auto &op : circuit.ops)
        finals += (op.finalData ? 1 : 0);
    EXPECT_EQ(finals, code.numData());
}

TEST(Builder, MemoryXUsesXBasisFinals)
{
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, 2, Basis::X);
    int mx = 0;
    for (const auto &op : circuit.ops) {
        if (op.finalData) {
            EXPECT_EQ(op.type, OpType::MeasureX);
            ++mx;
        }
    }
    EXPECT_EQ(mx, code.numData());
}

TEST(Builder, DqlrSegmentShape)
{
    RotatedSurfaceCode code(3);
    const int stab = code.stabilizersOfData(0).front();
    auto ops = buildDqlrSegment(code, {{0, stab}});
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].type, OpType::LeakageIswap);
    EXPECT_EQ(ops[0].q0, 0);
    EXPECT_EQ(ops[0].q1, code.stabilizer(stab).ancilla);
    EXPECT_EQ(ops[1].type, OpType::Reset);
    EXPECT_EQ(ops[1].q0, code.stabilizer(stab).ancilla);
}

TEST(Builder, CircuitToStringMentionsOps)
{
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, 1, Basis::Z);
    const std::string dump = circuit.toString();
    EXPECT_NE(dump.find("ROUND 0"), std::string::npos);
    EXPECT_NE(dump.find("CX"), std::string::npos);
    EXPECT_NE(dump.find("final"), std::string::npos);
}

} // namespace
} // namespace qec
