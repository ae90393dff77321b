/**
 * @file
 * Circuit-IR tests: validation must reject malformed programs, the
 * program's base circuit must equal the lattice-walked memory circuit
 * op for op, and the repetition-code compiler path must produce sane
 * logical error rates. Replay itself is pinned lane by lane against
 * the scalar oracle (test_batch_sim's EngineOracle.*), across widths,
 * and by the golden corpus (test_golden).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "code/circuit_ir.h"
#include "exp/memory_experiment.h"
#include "memory_circuit.h"

namespace qec
{
namespace
{

// ------------------------------------------------------- compilation

TEST(CircuitIr, CompiledSurfaceProgramsValidate)
{
    for (int d : {3, 5}) {
        RotatedSurfaceCode code(d);
        for (Basis basis : {Basis::Z, Basis::X}) {
            for (IrTailKind tail :
                 {IrTailKind::SwapLrc, IrTailKind::Dqlr}) {
                CircuitProgram prog = CircuitCompiler::surfaceMemory(
                    code, 3 * d, basis, tail);
                EXPECT_TRUE(prog.validate().isOk())
                    << prog.validate().toString();
                EXPECT_EQ(prog.family, CircuitFamily::SurfaceMemory);
                EXPECT_EQ(prog.numData, code.numData());
                EXPECT_EQ(prog.numStabs, code.numStabilizers());
                EXPECT_EQ(prog.numQubits, code.numQubits());
                EXPECT_EQ(prog.rounds, 3 * d);
            }
        }
    }
}

TEST(CircuitIr, CompiledRepetitionProgramsValidate)
{
    for (int d : {2, 3, 5, 9}) {
        CircuitProgram prog =
            CircuitCompiler::repetitionMemory(d, 2 * d);
        EXPECT_TRUE(prog.validate().isOk())
            << prog.validate().toString();
        EXPECT_EQ(prog.family, CircuitFamily::RepetitionMemory);
        EXPECT_EQ(prog.numData, d);
        EXPECT_EQ(prog.numStabs, d - 1);
        EXPECT_EQ(prog.numQubits, 2 * d - 1);
        // Check s acts on data {s, s+1} — the line graph.
        for (int s = 0; s < d - 1; ++s) {
            EXPECT_TRUE(prog.supportContains(s, s));
            EXPECT_TRUE(prog.supportContains(s, s + 1));
            EXPECT_FALSE(prog.supportContains(s, s + 2));
        }
        // Every round-0 detector column is deterministic.
        for (int s = 0; s < d - 1; ++s)
            EXPECT_TRUE(prog.detR0[s]);
    }
}

/** The program's base circuit is the lattice-walked memory circuit,
 *  op for op. Rounds 1 and 8 take the DEM's direct path (8 is the
 *  tiler's short template), 9 the tiled path; 3d is a typical
 *  experiment. */
TEST(CircuitIr, BaseCircuitMatchesLatticeCircuit)
{
    for (int d : {3, 5, 7, 9, 11}) {
        RotatedSurfaceCode code(d);
        for (Basis basis : {Basis::Z, Basis::X})
            for (int rounds : {1, 8, 9, 3 * d}) {
                SCOPED_TRACE("d=" + std::to_string(d) + " rounds=" +
                             std::to_string(rounds) +
                             (basis == Basis::Z ? " Z" : " X"));
                const Circuit got =
                    CircuitCompiler::surfaceMemory(code, rounds, basis,
                                                   IrTailKind::SwapLrc)
                        .baseCircuit();
                const Circuit want =
                    buildMemoryCircuit(code, rounds, basis);
                EXPECT_EQ(got.numQubits, want.numQubits);
                EXPECT_EQ(got.numRounds, want.numRounds);
                EXPECT_EQ(got.basis, want.basis);
                EXPECT_EQ(got.roundBegin, want.roundBegin);
                ASSERT_EQ(got.ops.size(), want.ops.size());
                for (size_t i = 0; i < got.ops.size(); ++i) {
                    const Op &a = got.ops[i];
                    const Op &b = want.ops[i];
                    ASSERT_TRUE(a.type == b.type && a.q0 == b.q0 &&
                                a.q1 == b.q1 && a.stab == b.stab &&
                                a.round == b.round &&
                                a.finalData == b.finalData &&
                                a.lrcData == b.lrcData)
                        << "op " << i;
                }
            }
    }
}

/** The run table's runs are maximal, single-kind and operand-disjoint,
 *  cover every body op but RoundStart in order, and own every site. */
void
expectRunTableWellFormed(const CircuitProgram &prog)
{
    const IrRunTable &t = prog.runTable;
    ASSERT_TRUE(t.compiledFrom(prog));
    int next = 0;
    for (size_t r = 0; r < t.runs.size(); ++r) {
        const IrRun &run = t.runs[r];
        EXPECT_EQ(run.begin, next);
        ASSERT_LT(run.begin, run.end);
        next = run.end;
        std::vector<int> seen;
        for (int i = run.begin; i < run.end; ++i) {
            if (run.op == IrOpcode::LrcSlot)
                break;
            seen.push_back(t.q0[i]);
            if (run.op == IrOpcode::Gate && t.q1[i] >= 0)
                seen.push_back(t.q1[i]);
        }
        std::sort(seen.begin(), seen.end());
        EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
                  seen.end())
            << "run " << r << " reuses a qubit";
        for (int i = run.begin; i < run.end; ++i)
            for (int k = 0; k < run.perOp.pauli; ++k)
                EXPECT_EQ(t.pauliSiteOp[run.pauliSite +
                                        (i - run.begin) * run.perOp.pauli +
                                        k],
                          i);
    }
    EXPECT_EQ(next, t.numOps());
}

TEST(CircuitIr, RunTableSplitsTheD11BodyIntoDisjointLayers)
{
    RotatedSurfaceCode code(11);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 3, Basis::Z, IrTailKind::SwapLrc);
    expectRunTableWellFormed(prog);
    const std::vector<IrRun> &runs = prog.runTable.runs;
    // DataNoise x121 | H x60 | four CNOT layers | H x60 | Readout x120
    // | LrcSlot.
    ASSERT_EQ(runs.size(), 9u);
    const auto size = [](const IrRun &run) { return run.end - run.begin; };
    EXPECT_EQ(runs[0].type, OpType::DataNoise);
    EXPECT_EQ(size(runs[0]), 121);
    EXPECT_EQ(runs[1].type, OpType::H);
    EXPECT_EQ(size(runs[1]), 60);
    int cnots = 0;
    for (int layer = 2; layer < 6; ++layer) {
        EXPECT_EQ(runs[layer].type, OpType::Cnot);
        EXPECT_GE(size(runs[layer]), 109);
        EXPECT_LE(size(runs[layer]), 111);
        cnots += size(runs[layer]);
    }
    EXPECT_EQ(cnots, 440);
    EXPECT_EQ(runs[6].type, OpType::H);
    EXPECT_EQ(size(runs[6]), 60);
    EXPECT_EQ(runs[7].op, IrOpcode::Readout);
    EXPECT_EQ(size(runs[7]), 120);
    EXPECT_EQ(runs[7].perOp.pauli, 2);
    EXPECT_EQ(runs[8].op, IrOpcode::LrcSlot);

    // Sites: one Pauli site per op (two per readout pair), leak sites
    // for the idles and two per CNOT.
    EXPECT_EQ(prog.runTable.pauliSiteOp.size(),
              (size_t)(121 + 60 + 440 + 60 + 2 * 120));
    EXPECT_EQ(prog.runTable.leakSiteOp.size(), (size_t)(121 + 2 * 440));
}

TEST(CircuitIr, RunTablesOfShippedProgramsAreWellFormed)
{
    for (int d : {3, 5}) {
        RotatedSurfaceCode code(d);
        for (IrTailKind tail : {IrTailKind::SwapLrc, IrTailKind::Dqlr})
            expectRunTableWellFormed(
                CircuitCompiler::surfaceMemory(code, d, Basis::X, tail));
        expectRunTableWellFormed(CircuitCompiler::repetitionMemory(d, d));
    }
}

// -------------------------------------------------------- validation

CircuitProgram
surfaceProgram()
{
    RotatedSurfaceCode code(3);
    return CircuitCompiler::surfaceMemory(code, 4, Basis::Z,
                                          IrTailKind::SwapLrc);
}

TEST(CircuitIrValidate, RejectsDanglingGateQubit)
{
    CircuitProgram prog = surfaceProgram();
    // Find a qubit-bearing Gate (RoundStart markers carry none) and
    // point its pool op off the lattice.
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        if (prog.instrs[i].op == IrOpcode::Gate &&
            prog.pool[prog.instrs[i].a].type != OpType::RoundStart) {
            prog.pool[prog.instrs[i].a].q0 = prog.numQubits;
            break;
        }
    }
    const Status st = prog.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
}

TEST(CircuitIrValidate, RejectsDanglingReadoutStab)
{
    CircuitProgram prog = surfaceProgram();
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        if (prog.instrs[i].op == IrOpcode::Readout) {
            prog.instrs[i].a = prog.numStabs;
            break;
        }
    }
    const Status st = prog.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
}

TEST(CircuitIrValidate, RejectsUnclosedRoundLoop)
{
    CircuitProgram prog = surfaceProgram();
    // Drop the RoundEnd marker: the loop never closes.
    prog.instrs.erase(prog.instrs.begin() + (ptrdiff_t)prog.bodyEnd);
    const Status st = prog.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("unclosed"), std::string::npos)
        << st.toString();
}

TEST(CircuitIrValidate, RejectsDuplicateLrcSlotIds)
{
    CircuitProgram prog = surfaceProgram();
    // A second slot with id 0 inside the round body.
    IrInst dup;
    dup.op = IrOpcode::LrcSlot;
    dup.a = 0;
    prog.instrs.insert(prog.instrs.begin() + (ptrdiff_t)prog.bodyEnd,
                       dup);
    prog.bodyEnd += 1;
    const Status st = prog.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
}

TEST(CircuitIrValidate, RejectsBadRoundCount)
{
    CircuitProgram prog = surfaceProgram();
    prog.rounds = 0;
    EXPECT_FALSE(prog.validate().isOk());
}

// ------------------------------------------------- repetition memory

ExperimentResult
runRepetition(int distance, double p, uint64_t shots)
{
    RotatedSurfaceCode code(distance);
    ExperimentConfig cfg;
    cfg.family = CircuitFamily::RepetitionMemory;
    cfg.rounds = 5;
    cfg.basis = Basis::Z;
    cfg.em = ErrorModel::withoutLeakage(p);
    cfg.shots = shots;
    cfg.seed = 1234;
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.batchWidth = 256;
    cfg.threads = 1;
    MemoryExperiment exp(code, cfg);
    return exp.run(PolicyKind::Never);
}

TEST(CircuitIrRepetition, LerSanity)
{
    // Below threshold, the repetition code's logical error rate must
    // fall with distance; at p = 5e-3 and 5 rounds the analytic
    // leading order (~ rounds * C(d, ceil(d/2)) p^ceil(d/2) per
    // majority fault path) puts d=3 well above d=5 and both far
    // below 50%.
    const ExperimentResult d3 = runRepetition(3, 5e-3, 1 << 14);
    const ExperimentResult d5 = runRepetition(5, 5e-3, 1 << 14);
    EXPECT_GT(d3.logicalErrors, 0u);
    EXPECT_LT(d3.ler(), 0.2);
    EXPECT_LT(d5.ler(), d3.ler());
}

TEST(CircuitIrRepetition, RejectsXBasis)
{
    ExperimentConfig cfg;
    cfg.family = CircuitFamily::RepetitionMemory;
    cfg.rounds = 3;
    cfg.basis = Basis::X;
    EXPECT_FALSE(validateExperimentConfig(cfg).isOk());
}

} // namespace
} // namespace qec
