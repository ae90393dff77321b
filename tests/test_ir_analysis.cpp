/**
 * @file
 * IR static-analyzer tests: every shipped family/basis/protocol
 * combination analyzes with zero Error diagnostics, each hand-seeded
 * malformed program triggers exactly its one specific Error, the
 * dead-gate pass produces the machine-readable removable list, the
 * tail templates pin the engine's hardcoded executeLrcTail expansion,
 * and the checked compilers / sweep build cache refuse Error-severity
 * programs recoverably (Status, not panic).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "code/builder.h"
#include "code/ir_analysis.h"
#include "exp/sweep_exec.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{
namespace
{

int
errorsFromPass(const IrAnalysisReport &report, const char *pass)
{
    int n = 0;
    for (const IrDiagnostic &d : report.diagnostics)
        if (d.severity == IrSeverity::Error &&
            std::string(d.pass) == pass)
            ++n;
    return n;
}

std::string
errorText(const IrAnalysisReport &report)
{
    std::string out;
    for (const IrDiagnostic &d : report.diagnostics)
        if (d.severity == IrSeverity::Error)
            out += d.toString() + "\n";
    return out;
}

// ------------------------------------------------- shipped programs

TEST(IrAnalysis, AllShippedProgramsAnalyzeErrorFree)
{
    for (int d : {3, 5}) {
        RotatedSurfaceCode code(d);
        for (Basis basis : {Basis::Z, Basis::X}) {
            for (IrTailKind tail :
                 {IrTailKind::SwapLrc, IrTailKind::Dqlr}) {
                const CircuitProgram prog =
                    CircuitCompiler::surfaceMemory(code, 3 * d,
                                                   basis, tail);
                const IrAnalysisReport report =
                    IrAnalyzer::analyze(prog);
                EXPECT_EQ(report.errorCount(), 0)
                    << "surface d=" << d << ": "
                    << errorText(report);
                // Shipped programs also carry no dead gates.
                EXPECT_TRUE(report.removableInstructions.empty());
                EXPECT_TRUE(IrAnalyzer::verify(prog).isOk());
            }
        }
    }
    for (int d : {3, 5}) {
        const CircuitProgram prog =
            CircuitCompiler::repetitionMemory(d, 3 * d);
        const IrAnalysisReport report = IrAnalyzer::analyze(prog);
        EXPECT_EQ(report.errorCount(), 0)
            << "repetition d=" << d << ": " << errorText(report);
        EXPECT_TRUE(report.removableInstructions.empty());
        EXPECT_TRUE(IrAnalyzer::verify(prog).isOk());
    }
    {
        // The paper's headline distance, under the error model its
        // decoded d=11 experiments run with.
        RotatedSurfaceCode code(11);
        const CircuitProgram prog = CircuitCompiler::surfaceMemory(
            code, 33, Basis::Z, IrTailKind::SwapLrc);
        const IrAnalysisReport report =
            IrAnalyzer::analyze(prog, ErrorModel::standard(1e-3));
        EXPECT_EQ(report.errorCount(), 0)
            << "surface d=11: " << errorText(report);
        EXPECT_TRUE(report.removableInstructions.empty());
    }
}

TEST(IrAnalysis, AnalysisHoldsUnderEveryShippedErrorModel)
{
    RotatedSurfaceCode code(3);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    for (const ErrorModel &em :
         {ErrorModel::standard(1e-3), ErrorModel::standard(1e-4),
          ErrorModel::withoutLeakage(1e-3),
          ErrorModel::noiseless()}) {
        EXPECT_EQ(IrAnalyzer::analyze(prog, em).errorCount(), 0);
    }
}

// ------------------------------------------- seeded malformed programs
// Each seeds exactly one defect and must see exactly one Error, from
// the expected pass.

TEST(IrAnalysis, OrphanReadoutIsDetected)
{
    RotatedSurfaceCode code(3);
    CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    // Mark one column-less stabilizer (an X check in a Z-memory
    // program) round-0 deterministic: its readout becomes an orphan
    // the detector map cannot consume.
    int victim = -1;
    for (int s = 0; s < prog.numStabs; ++s)
        if (prog.detectors.stabColumn[s] < 0) {
            victim = s;
            break;
        }
    ASSERT_GE(victim, 0);
    prog.detR0[victim] = 1;
    ASSERT_TRUE(prog.validate().isOk());

    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_EQ(report.errorCount(), 1) << errorText(report);
    EXPECT_EQ(errorsFromPass(report, "detector-coverage"), 1);
}

TEST(IrAnalysis, DeadGateIsDetectedAndListedRemovable)
{
    // A repetition program widened by one idle qubit that nothing
    // measures or couples: a gate on it can never reach a readout.
    CircuitProgram prog = CircuitCompiler::repetitionMemory(3, 6);
    const int idle = prog.numQubits;
    ++prog.numQubits;
    const size_t at = prog.bodyBegin + 1;
    prog.instrs.insert(prog.instrs.begin() + (long)at,
                       {IrOpcode::Gate, (int32_t)prog.pool.size(),
                        -1});
    prog.pool.push_back(makeOp(OpType::H, idle));
    ++prog.bodyEnd;
    ASSERT_TRUE(prog.validate().isOk());

    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_EQ(report.errorCount(), 0) << errorText(report);
    EXPECT_EQ(report.warningCount(), 1);
    ASSERT_EQ(report.removableInstructions.size(), 1u);
    EXPECT_EQ(report.removableInstructions[0], (int32_t)at);
    EXPECT_EQ(report.diagnostics.front().pass,
              std::string("qubit-liveness"));
}

TEST(IrAnalysis, StreamDesyncTailIsDetected)
{
    RotatedSurfaceCode code(3);
    CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    // DataNoise is outside the LRC-tail repertoire: the engine's tail
    // expansion never issues it, so the template's site count would
    // not match the sites a tail consumes.
    prog.tailTemplates[0].ops.push_back(
        makeOp(OpType::DataNoise, kTailDataQubit));
    ASSERT_TRUE(prog.validate().isOk());

    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_EQ(report.errorCount(), 1) << errorText(report);
    EXPECT_EQ(errorsFromPass(report, "stream-sync"), 1);
}

TEST(IrAnalysis, DuplicateSlotIdIsDetected)
{
    RotatedSurfaceCode code(3);
    CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    // A second slot with the already-used id 0. (validate() rejects
    // this too; the analyzer must diagnose it independently.)
    prog.instrs.insert(prog.instrs.begin() + (long)prog.bodyEnd,
                       {IrOpcode::LrcSlot, 0, -1});
    ++prog.bodyEnd;

    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_EQ(report.errorCount(), 1) << errorText(report);
    EXPECT_EQ(errorsFromPass(report, "lrc-legality"), 1);
    EXPECT_FALSE(prog.validate().isOk());
}

TEST(IrAnalysis, UnreachableObservableIsDetected)
{
    CircuitProgram prog = CircuitCompiler::repetitionMemory(3, 6);
    // Drop the final readout of the observable's data qubit 0.
    const int obs = prog.detectors.observable.front();
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i) {
        if (prog.pool[prog.instrs[i].a].q0 == obs) {
            prog.instrs.erase(prog.instrs.begin() + (long)i);
            break;
        }
    }
    ASSERT_TRUE(prog.validate().isOk());

    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_EQ(report.errorCount(), 1) << errorText(report);
    EXPECT_EQ(errorsFromPass(report, "observable-reachability"), 1);
    // The missing readout also leaves a detector column's final row
    // incomplete — flagged, but as a Warning.
    EXPECT_GE(report.warningCount(), 1);
}

// ------------------------------------------------ more pass coverage

TEST(IrAnalysis, MaskingMismatchIsDetected)
{
    RotatedSurfaceCode code(3);
    CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::Dqlr);
    prog.maskReadoutOnLrc = true; // DQLR is additive: illegal.
    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_GE(errorsFromPass(report, "lrc-legality"), 1)
        << errorText(report);
}

TEST(IrAnalysis, WrongBasisFinalsAreDetected)
{
    RotatedSurfaceCode code(3);
    CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    // Flip every final readout into the X basis: memory-Z cannot be
    // reconstructed from them.
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i) {
        Op &op = prog.pool[prog.instrs[i].a];
        if (op.type == OpType::Measure)
            op.type = OpType::MeasureX;
    }
    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_EQ(errorsFromPass(report, "observable-reachability"),
              (int)prog.detectors.observable.size());
}

const IrStreamUsage *
channelRow(const IrAnalysisReport &report, NoiseChannel channel)
{
    for (const IrStreamUsage &row : report.streams)
        if (row.channel == channel)
            return &row;
    return nullptr;
}

TEST(IrAnalysis, StreamTableMatchesTheErrorModel)
{
    RotatedSurfaceCode code(3);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    const ErrorModel em = ErrorModel::standard(1e-3);
    const IrAnalysisReport report = IrAnalyzer::analyze(prog, em);
    ASSERT_EQ(report.streams.size(), 3u);

    const IrStreamUsage *pauli = channelRow(report, NoiseChannel::Pauli);
    ASSERT_NE(pauli, nullptr);
    EXPECT_EQ(pauli->probability, em.p);
    // One flip site per final transversal readout.
    EXPECT_EQ(pauli->finalSites, prog.numData);
    // The swap-LRC tail: 5 CNOTs, a measurement and 2 resets.
    EXPECT_EQ(pauli->tailSites, 8);

    // Per-round p-sites: every body op draws once (RoundStart
    // excepted), and each Readout adds measure + reset.
    int expected = 0, expected_leak = 0;
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        if (inst.op == IrOpcode::Gate) {
            const OpType type = prog.pool[inst.a].type;
            expected += type != OpType::RoundStart;
            expected_leak += type == OpType::DataNoise ? 1
                             : type == OpType::Cnot    ? 2
                                                       : 0;
        } else if (inst.op == IrOpcode::Readout) {
            expected += 2;
        }
    }
    EXPECT_EQ(pauli->sitesPerRound, expected);

    // Leak injection: one site per idle, two per CNOT; none at readout.
    const IrStreamUsage *leak =
        channelRow(report, NoiseChannel::LeakInjection);
    ASSERT_NE(leak, nullptr);
    EXPECT_EQ(leak->probability, em.leakInjectProb());
    EXPECT_EQ(leak->sitesPerRound, expected_leak);
    EXPECT_EQ(leak->tailSites, 10);
    EXPECT_EQ(leak->finalSites, 0);
    // Seepage trials sit at the injection sites.
    const IrStreamUsage *seep = channelRow(report, NoiseChannel::Seepage);
    ASSERT_NE(seep, nullptr);
    EXPECT_EQ(seep->probability, em.seepageProb());
    EXPECT_EQ(seep->sitesPerRound, leak->sitesPerRound);
    EXPECT_EQ(seep->tailSites, leak->tailSites);
    EXPECT_EQ(seep->finalSites, 0);

    // Leakage off: the Pauli channel only. Noiseless: no streams.
    const IrAnalysisReport off =
        IrAnalyzer::analyze(prog, ErrorModel::withoutLeakage(1e-3));
    ASSERT_EQ(off.streams.size(), 1u);
    EXPECT_EQ(off.streams[0].channel, NoiseChannel::Pauli);
    EXPECT_TRUE(IrAnalyzer::analyze(prog, ErrorModel::noiseless())
                    .streams.empty());
}

/** The engine's hit-table sizes (bindProgramStreams) equal the
 *  analyzer's stream-sync site counts, channel by channel, for the
 *  round body, one tail and the final layer. */
void
expectEngineSitesMatchAnalyzer(const CircuitProgram &prog,
                               const ErrorModel &em)
{
    BatchFrameSimulator sim(prog.numQubits, em, 64, 1, 0);
    sim.bindProgramStreams(prog);
    const IrAnalysisReport report = IrAnalyzer::analyze(prog, em);
    EXPECT_EQ(report.errorCount(), 0) << errorText(report);
    for (int c = 0; c < kNoiseChannels; ++c) {
        const NoiseChannel channel = (NoiseChannel)c;
        SCOPED_TRACE(noiseChannelName(channel));
        const IrStreamUsage *row = channelRow(report, channel);
        const int round = row ? row->sitesPerRound : 0;
        const int tail = row ? row->tailSites : 0;
        const int final_sites = row ? row->finalSites : 0;
        EXPECT_EQ(sim.roundSites().of(channel), round);
        EXPECT_EQ(sim.tailSites().of(channel), tail);
        EXPECT_EQ(sim.finalSites().of(channel), final_sites);
        if (em.channelProb(channel) > 0.0 &&
            (channel == NoiseChannel::Pauli || em.leakageEnabled))
            EXPECT_NE(row, nullptr);
    }
}

TEST(IrAnalysis, EngineTableSizesMatchStreamSync)
{
    for (int d : {3, 5}) {
        RotatedSurfaceCode code(d);
        for (IrTailKind tail : {IrTailKind::SwapLrc, IrTailKind::Dqlr})
            for (Basis basis : {Basis::Z, Basis::X}) {
                SCOPED_TRACE("surface d=" + std::to_string(d));
                const CircuitProgram prog =
                    CircuitCompiler::surfaceMemory(code, d, basis, tail);
                expectEngineSitesMatchAnalyzer(
                    prog, ErrorModel::standard(1e-3));
                expectEngineSitesMatchAnalyzer(
                    prog, ErrorModel::withoutLeakage(2e-3));
            }
    }
    for (int d : {3, 5}) {
        SCOPED_TRACE("repetition d=" + std::to_string(d));
        const CircuitProgram prog =
            CircuitCompiler::repetitionMemory(d, d);
        expectEngineSitesMatchAnalyzer(prog, ErrorModel::standard(1e-3));
        expectEngineSitesMatchAnalyzer(prog,
                                       ErrorModel::withoutLeakage(1e-3));
    }
}

// -------------------------------------------------- tail templates

TEST(IrAnalysis, TailTemplatesPinTheEngineExpansion)
{
    constexpr int D = kTailDataQubit, P = kTailParityQubit;
    RotatedSurfaceCode code(3);

    // executeLrcTail's swap-LRC expansion, op for op (the ERASER+M
    // squash suffix included).
    const CircuitProgram swap = CircuitCompiler::surfaceMemory(
        code, 3, Basis::Z, IrTailKind::SwapLrc);
    ASSERT_EQ(swap.tailTemplates.size(), 1u);
    const std::vector<Op> &ops = swap.tailTemplates[0].ops;
    ASSERT_EQ(ops.size(), 8u);
    const std::tuple<OpType, int, int> expected[8] = {
        {OpType::Cnot, D, P},    {OpType::Cnot, P, D},
        {OpType::Cnot, D, P},    {OpType::Measure, D, -1},
        {OpType::Reset, D, -1},  {OpType::Cnot, P, D},
        {OpType::Cnot, D, P},    {OpType::Reset, P, -1},
    };
    for (size_t k = 0; k < 8; ++k) {
        EXPECT_EQ(ops[k].type, std::get<0>(expected[k])) << k;
        EXPECT_EQ(ops[k].q0, std::get<1>(expected[k])) << k;
        EXPECT_EQ(ops[k].q1, std::get<2>(expected[k])) << k;
    }
    EXPECT_TRUE(ops[3].lrcData);

    const CircuitProgram dqlr = CircuitCompiler::surfaceMemory(
        code, 3, Basis::Z, IrTailKind::Dqlr);
    ASSERT_EQ(dqlr.tailTemplates.size(), 1u);
    const std::vector<Op> &dops = dqlr.tailTemplates[0].ops;
    ASSERT_EQ(dops.size(), 2u);
    EXPECT_EQ(dops[0].type, OpType::LeakageIswap);
    EXPECT_EQ(dops[0].q0, D);
    EXPECT_EQ(dops[0].q1, P);
    EXPECT_EQ(dops[1].type, OpType::Reset);
    EXPECT_EQ(dops[1].q0, P);

    const CircuitProgram rep = CircuitCompiler::repetitionMemory(3, 3);
    ASSERT_EQ(rep.tailTemplates.size(), 1u);
    EXPECT_EQ(rep.tailTemplates[0].kind, IrTailKind::SwapLrc);
}

TEST(IrAnalysis, MissingTailTemplateIsDetected)
{
    RotatedSurfaceCode code(3);
    CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 9, Basis::Z, IrTailKind::SwapLrc);
    prog.tailTemplates.clear();
    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_GE(errorsFromPass(report, "lrc-legality"), 1);
}

// ------------------------------------------------- checked compile

TEST(IrAnalysis, CheckedCompilersAcceptShippedProtocols)
{
    RotatedSurfaceCode code(3);
    EXPECT_TRUE(CircuitCompiler::surfaceMemoryChecked(
                    code, 9, Basis::X, IrTailKind::Dqlr)
                    .ok());
    EXPECT_TRUE(CircuitCompiler::repetitionMemoryChecked(5, 15).ok());
}

TEST(IrAnalysis, CheckedCompilersRefuseBadArgsWithStatusNotPanic)
{
    RotatedSurfaceCode code(3);
    const StatusOr<CircuitProgram> bad_rounds =
        CircuitCompiler::surfaceMemoryChecked(code, 0, Basis::Z,
                                              IrTailKind::SwapLrc);
    EXPECT_FALSE(bad_rounds.ok());
    EXPECT_EQ(bad_rounds.status().code(),
              StatusCode::InvalidArgument);
    EXPECT_FALSE(
        CircuitCompiler::repetitionMemoryChecked(1, 5).ok());
}

TEST(IrAnalysis, SweepBuildCacheAnalyzesAndCachesPrograms)
{
    SweepPlan plan;
    plan.distances = {3};
    plan.ps = {1e-3};
    plan.rounds = {SweepRounds::exactly(3)};
    plan.policies = {PolicyKind::Never};
    plan.base.decode = false; // program cache only; no decoder build
    const std::vector<SweepPoint> points = plan.points();
    ASSERT_FALSE(points.empty());

    SweepBuildCache cache;
    SweepSummary summary;
    const StatusOr<SweepBuildCache::Components> first =
        cache.build(points[0], DecoderOptions{}, summary);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    ASSERT_NE(first.value().program, nullptr);

    // Same key: the analyzed program is reused, not recompiled.
    const StatusOr<SweepBuildCache::Components> second =
        cache.build(points[0], DecoderOptions{}, summary);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().program.get(),
              second.value().program.get());
}

// ------------------------------------------------------- formatting

TEST(IrAnalysis, ListingAndDiagnosticsFormat)
{
    const CircuitProgram prog = CircuitCompiler::repetitionMemory(3, 3);
    const std::string listing = formatProgramListing(prog);
    EXPECT_NE(listing.find("repetition_memory"), std::string::npos);
    EXPECT_NE(listing.find("LrcSlot id=0"), std::string::npos);
    EXPECT_NE(listing.find("tail swap-lrc"), std::string::npos);

    IrDiagnostic d;
    d.severity = IrSeverity::Error;
    d.pass = "detector-coverage";
    d.instr = 12;
    d.round = 0;
    d.message = "boom";
    EXPECT_EQ(d.toString(), "error[detector-coverage] @12 r0: boom");

    const IrAnalysisReport report = IrAnalyzer::analyze(prog);
    EXPECT_TRUE(report.toStatus().isOk());
    EXPECT_FALSE(report.toString().empty());
}

} // namespace
} // namespace qec
