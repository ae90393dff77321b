#include "code/ir_analysis.h"

#include <algorithm>
#include <sstream>

namespace qec
{

namespace
{

const char *
opTypeName(OpType type)
{
    switch (type) {
      case OpType::RoundStart: return "RoundStart";
      case OpType::DataNoise: return "DataNoise";
      case OpType::Reset: return "Reset";
      case OpType::H: return "H";
      case OpType::Cnot: return "Cnot";
      case OpType::Measure: return "Measure";
      case OpType::MeasureX: return "MeasureX";
      case OpType::LeakageIswap: return "LeakageIswap";
    }
    return "?";
}

const char *
tailKindName(IrTailKind kind)
{
    return kind == IrTailKind::SwapLrc ? "swap-lrc" : "dqlr";
}

std::string
placeholderName(int q)
{
    if (q == kTailDataQubit)
        return "D";
    if (q == kTailParityQubit)
        return "P";
    return "q" + std::to_string(q);
}

/** Diagnostic sink shared by the passes. */
struct PassContext
{
    const CircuitProgram &prog;
    const ErrorModel &em;
    IrAnalysisReport &report;

    void
    diag(IrSeverity severity, const char *pass, int32_t instr,
         std::string message, int32_t round = -1)
    {
        report.diagnostics.push_back(
            {severity, pass, instr, round, std::move(message)});
    }
};

// ---------------------------------------------------------------------
// Pass 1: qubit def-use / liveness.
//
// Backward dataflow over {finals; round body as a loop}. A qubit is
// live when some later instruction can propagate its frame/leak state
// into a measurement record. The round loop is solved as a fixpoint:
// live-out(body) = live-in(finals) ∪ live-in(body), iterated until the
// body's live-in stabilizes (monotone, so it terminates).
//
// Removability is a circuit-semantics statement: a dead gate cannot
// change any measurement outcome's distribution. Removal still shifts
// raw noise-stream positions (every noisy op consumes draws), so a
// peephole pass applying the list re-baselines per-shot fingerprints —
// it does not silently keep them.
// ---------------------------------------------------------------------

constexpr const char *kLiveness = "qubit-liveness";

using LiveSet = std::vector<uint8_t>;

/** Backward transfer for one pool op; returns live-before. */
void
transferOp(const Op &op, LiveSet &live)
{
    switch (op.type) {
      case OpType::RoundStart:
        break;
      case OpType::DataNoise:
      case OpType::H:
        // Pure use+def of q0: liveness unchanged.
        break;
      case OpType::Reset:
        // Defines q0 from nothing: kills its liveness.
        live[op.q0] = 0;
        break;
      case OpType::Cnot:
      case OpType::LeakageIswap:
        // Frames, leakage transport, and two-qubit noise couple the
        // operands both ways: either live-after makes both live-before.
        if (live[op.q0] || live[op.q1]) {
            live[op.q0] = 1;
            live[op.q1] = 1;
        }
        break;
      case OpType::Measure:
      case OpType::MeasureX:
        // Produces a record: uses q0, state survives.
        live[op.q0] = 1;
        break;
    }
}

bool
opIsDead(const Op &op, const LiveSet &live)
{
    switch (op.type) {
      case OpType::RoundStart:
      case OpType::Measure:
      case OpType::MeasureX:
        return false;
      case OpType::DataNoise:
      case OpType::Reset:
      case OpType::H:
        return !live[op.q0];
      case OpType::Cnot:
      case OpType::LeakageIswap:
        return !live[op.q0] && !live[op.q1];
    }
    return false;
}

/** The conservative use+def set of an LrcSlot branch: any scheduled
 *  tail touches one support data qubit and one parity qubit, so the
 *  branch may touch all of them. */
void
markSlotQubitsLive(const CircuitProgram &prog, LiveSet &live)
{
    for (int q : prog.supportData)
        live[q] = 1;
    for (int a : prog.stabAncilla)
        live[a] = 1;
}

/** One backward sweep over instrs[begin, end); when `ctx` is given,
 *  dead gates are reported and recorded. */
void
sweepBackward(const CircuitProgram &prog, size_t begin, size_t end,
              LiveSet &live, PassContext *ctx)
{
    for (size_t i = end; i-- > begin;) {
        const IrInst &inst = prog.instrs[i];
        switch (inst.op) {
          case IrOpcode::Gate: {
            const Op &op = prog.pool[inst.a];
            if (ctx && opIsDead(op, live)) {
                ctx->diag(IrSeverity::Warning, kLiveness, (int32_t)i,
                          std::string("dead gate: ") +
                              opTypeName(op.type) + " on qubit " +
                              std::to_string(op.q0) +
                              " can never reach a readout (removable)");
                ctx->report.removableInstructions.push_back(
                    (int32_t)i);
            }
            transferOp(op, live);
            break;
          }
          case IrOpcode::Readout:
            // Backward: the reset kills the ancilla, then the
            // measurement uses it — net live.
            live[prog.pool[inst.b].q0] = 1;
            break;
          case IrOpcode::LrcSlot:
            markSlotQubitsLive(prog, live);
            break;
          case IrOpcode::RoundBegin:
          case IrOpcode::RoundEnd:
            break;
        }
    }
}

void
passLiveness(PassContext &ctx)
{
    const CircuitProgram &prog = ctx.prog;
    LiveSet finals_in((size_t)prog.numQubits, 0);
    sweepBackward(prog, prog.bodyEnd + 1, prog.instrs.size(),
                  finals_in, nullptr);

    LiveSet body_in((size_t)prog.numQubits, 0);
    for (;;) {
        LiveSet out = finals_in;
        for (int q = 0; q < prog.numQubits; ++q)
            out[q] |= body_in[q];
        LiveSet next = out;
        sweepBackward(prog, prog.bodyBegin, prog.bodyEnd, next,
                      nullptr);
        if (next == body_in)
            break;
        body_in = std::move(next);
    }

    LiveSet out = finals_in;
    for (int q = 0; q < prog.numQubits; ++q)
        out[q] |= body_in[q];
    sweepBackward(prog, prog.bodyBegin, prog.bodyEnd, out, &ctx);
    LiveSet end_live((size_t)prog.numQubits, 0);
    sweepBackward(prog, prog.bodyEnd + 1, prog.instrs.size(), end_live,
                  &ctx);
    std::sort(ctx.report.removableInstructions.begin(),
              ctx.report.removableInstructions.end());
}

// ---------------------------------------------------------------------
// Pass 2: detector coverage.
// ---------------------------------------------------------------------

constexpr const char *kCoverage = "detector-coverage";

void
passDetectorCoverage(PassContext &ctx)
{
    const CircuitProgram &prog = ctx.prog;
    const IrDetectorMap &map = prog.detectors;

    // Column ownership must be a bijection: detector id r*cols + c
    // reads exactly one stabilizer's round-r outcome.
    std::vector<int> owner((size_t)map.cols, -1);
    for (int s = 0; s < prog.numStabs; ++s) {
        const int c = map.stabColumn[s];
        if (c < 0)
            continue;
        if (owner[c] >= 0)
            ctx.diag(IrSeverity::Error, kCoverage, -1,
                     "detector column " + std::to_string(c) +
                         " is claimed by stabilizers " +
                         std::to_string(owner[c]) + " and " +
                         std::to_string(s) +
                         "; each detector reads exactly one "
                         "measurement per round");
        else
            owner[c] = s;
    }
    for (int c = 0; c < map.cols; ++c)
        if (owner[c] < 0)
            ctx.diag(IrSeverity::Error, kCoverage, -1,
                     "detector column " + std::to_string(c) +
                         " is owned by no stabilizer: its detectors "
                         "reference measurements that are never "
                         "performed");

    // Per-round readout schedule: each column-bearing stabilizer must
    // be read out exactly once per round body (the detector window is
    // one round wide).
    std::vector<int> readouts((size_t)prog.numStabs, 0);
    std::vector<int32_t> first_readout((size_t)prog.numStabs, -1);
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        if (prog.instrs[i].op != IrOpcode::Readout)
            continue;
        const int s = prog.instrs[i].a;
        if (first_readout[s] < 0)
            first_readout[s] = (int32_t)i;
        ++readouts[s];
    }
    int auxiliary = 0;
    for (int s = 0; s < prog.numStabs; ++s) {
        const int c = map.stabColumn[s];
        if (c >= 0) {
            if (readouts[s] == 0)
                ctx.diag(IrSeverity::Error, kCoverage, -1,
                         "stabilizer " + std::to_string(s) +
                             " owns detector column " +
                             std::to_string(c) +
                             " but the round body never reads it "
                             "out");
            else if (readouts[s] > 1)
                ctx.diag(IrSeverity::Error, kCoverage,
                         first_readout[s],
                         "stabilizer " + std::to_string(s) +
                             " is read out " +
                             std::to_string(readouts[s]) +
                             " times per round; its one-round "
                             "detector window admits exactly one "
                             "measurement");
        } else if (prog.detR0[s]) {
            ctx.diag(IrSeverity::Error, kCoverage, first_readout[s],
                     "stabilizer " + std::to_string(s) +
                         " is marked round-0 deterministic (detR0) "
                         "but owns no detector column: orphan "
                         "readout, detR0 mask inconsistent with the "
                         "detector map",
                     0);
        } else if (readouts[s] > 0) {
            ++auxiliary;
        }
    }
    if (auxiliary > 0)
        ctx.diag(IrSeverity::Note, kCoverage, -1,
                 std::to_string(auxiliary) +
                     " auxiliary readout(s) feed the adaptive "
                     "controller only (no detector column; round-0 "
                     "random in the memory basis)");

    // Column support must equal the owning stabilizer's support: the
    // final detector row is reconstructed from exactly those data
    // readouts.
    for (int c = 0; c < map.cols; ++c) {
        if (owner[c] < 0)
            continue;
        const int s = owner[c];
        std::vector<int> col(map.colSupportData.begin() +
                                 map.colSupportOffset[c],
                             map.colSupportData.begin() +
                                 map.colSupportOffset[(size_t)c + 1]);
        std::vector<int> stab(prog.supportData.begin() +
                                  prog.supportOffset[s],
                              prog.supportData.begin() +
                                  prog.supportOffset[(size_t)s + 1]);
        std::sort(col.begin(), col.end());
        std::sort(stab.begin(), stab.end());
        if (col != stab)
            ctx.diag(IrSeverity::Error, kCoverage, -1,
                     "detector column " + std::to_string(c) +
                         "'s data support differs from its owning "
                         "stabilizer " + std::to_string(s) +
                         "'s support CSR: the final detector row "
                         "would be reconstructed from the wrong "
                         "qubits");
    }

    // Every qubit a final detector row reads must be measured in the
    // final layer. (Observable qubits escalate to Errors in the
    // observable-reachability pass.)
    std::vector<uint8_t> final_measured((size_t)prog.numData, 0);
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i) {
        const Op &op = prog.pool[prog.instrs[i].a];
        if ((op.type == OpType::Measure ||
             op.type == OpType::MeasureX) &&
            op.q0 >= 0 && op.q0 < prog.numData)
            final_measured[op.q0] = 1;
    }
    std::vector<uint8_t> flagged((size_t)prog.numData, 0);
    for (int q : map.colSupportData) {
        if (final_measured[q] || flagged[q])
            continue;
        flagged[q] = 1;
        ctx.diag(IrSeverity::Warning, kCoverage, -1,
                 "data qubit " + std::to_string(q) +
                     " appears in a detector column's support but "
                     "has no final readout; the last detector row "
                     "cannot be completed");
    }
}

// ---------------------------------------------------------------------
// Pass 3: noise-stream site accounting.
//
// The engine's fixed-probability noise (depolarizing/flip at p, leak
// injection at leakFraction*p, seepage at seepFraction*p) is a
// per-64-lane-block stream per channel, consumed as "sites" in op
// order by every issued op whatever its lane mask; the engine fills
// its hit tables once per replayed round, once per LrcSlot on each
// block for that block's tails, and once for the final layer. The pass
// tabulates the site counts per round, per tail and for the final
// layer with the engine's per-op site rule (irOpSites).
// Round-invariance is structural: the body is replayed verbatim, so
// the per-round site sequence cannot vary. State-conditional events draw per lane from the lane's own
// stream and need no accounting.
//
// Branch independence — the "W=256/512 == concatenation of W=64
// sub-runs" contract — requires each LrcSlot tail to advance only its
// own block's streams by a fixed site count. The engine's tail
// expansion issues only Reset/Cnot/LeakageIswap/Measure/MeasureX; a
// template op outside that repertoire would give the template a site
// count the expansion never consumes, so it is an Error.
// ---------------------------------------------------------------------

constexpr const char *kStreamSync = "stream-sync";

/** Hit-table sites one op consumes per channel under `em` (the
 *  engine's per-op rule, irOpSites). */
void
accountOpSites(const Op &op, const ErrorModel &em,
               int (&sites)[kNoiseChannels])
{
    const IrOpSites s = irOpSites(op.type);
    sites[(int)NoiseChannel::Pauli] += s.pauli;
    if (em.leakageEnabled) {
        sites[(int)NoiseChannel::LeakInjection] += s.leak;
        sites[(int)NoiseChannel::Seepage] += s.leak;
    }
}

bool
inTailRepertoire(OpType type)
{
    switch (type) {
      case OpType::Reset:
      case OpType::Cnot:
      case OpType::LeakageIswap:
      case OpType::Measure:
      case OpType::MeasureX:
        return true;
      default:
        return false;
    }
}

void
passStreamSync(PassContext &ctx)
{
    const CircuitProgram &prog = ctx.prog;
    const ErrorModel &em = ctx.em;
    int round[kNoiseChannels] = {}, tail[kNoiseChannels] = {},
        final_layer[kNoiseChannels] = {};

    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        if (inst.op == IrOpcode::Gate) {
            accountOpSites(prog.pool[inst.a], em, round);
        } else if (inst.op == IrOpcode::Readout) {
            accountOpSites(prog.pool[inst.b], em, round);
            accountOpSites(prog.pool[(size_t)inst.b + 1], em, round);
        }
    }
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i)
        accountOpSites(prog.pool[prog.instrs[i].a], em, final_layer);

    bool tails_confined = true;
    for (const IrTailTemplate &tmpl : prog.tailTemplates) {
        for (size_t k = 0; k < tmpl.ops.size(); ++k) {
            const Op &op = tmpl.ops[k];
            if (!inTailRepertoire(op.type)) {
                tails_confined = false;
                ctx.diag(
                    IrSeverity::Error, kStreamSync, -1,
                    std::string(tailKindName(tmpl.kind)) +
                        " tail template op " + std::to_string(k) +
                        " (" + opTypeName(op.type) +
                        ") is outside the LRC-tail repertoire: the "
                        "engine's tail expansion never issues it, so "
                        "the template's per-tail site count would "
                        "desynchronize the block noise streams");
                continue;
            }
            if (tmpl.kind == prog.tail)
                accountOpSites(op, em, tail);
        }
    }

    for (int c = 0; c < kNoiseChannels; ++c) {
        const NoiseChannel channel = (NoiseChannel)c;
        IrStreamUsage row;
        row.channel = channel;
        row.probability = em.channelProb(channel);
        row.sitesPerRound = round[c];
        row.tailSites = tail[c];
        row.finalSites = final_layer[c];
        if (row.probability <= 0.0 ||
            row.sitesPerRound + row.tailSites + row.finalSites == 0)
            continue; // No hits: the channel never fires.
        ctx.report.streams.push_back(row);
    }

    std::ostringstream summary;
    summary << "noise sites:";
    for (const IrStreamUsage &row : ctx.report.streams)
        summary << " " << noiseChannelName(row.channel)
                << " p=" << row.probability << " ("
                << row.sitesPerRound << "/round, " << row.tailSites
                << "/tail, " << row.finalSites << " final)";
    ctx.diag(IrSeverity::Note, kStreamSync, -1, summary.str());
    ctx.diag(IrSeverity::Note, kStreamSync, -1,
             "round body replays verbatim for " +
                 std::to_string(prog.rounds) +
                 " rounds: the per-round site sequence is "
                 "round-invariant by construction");
    if (tails_confined)
        ctx.diag(IrSeverity::Note, kStreamSync, -1,
                 "every LrcSlot tail advances only its own block's "
                 "streams by a fixed site count: wide-batch replay "
                 "equals the concatenation of its 64-lane sub-runs "
                 "regardless of branches taken");
}

// ---------------------------------------------------------------------
// Pass 4: LRC slot / tail legality.
// ---------------------------------------------------------------------

constexpr const char *kLrcLegality = "lrc-legality";

void
passLrcLegality(PassContext &ctx)
{
    const CircuitProgram &prog = ctx.prog;

    std::vector<int32_t> slot_ids;
    int slots = 0;
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        if (inst.op != IrOpcode::LrcSlot)
            continue;
        ++slots;
        if (inst.a < 0) {
            ctx.diag(IrSeverity::Error, kLrcLegality, (int32_t)i,
                     "LRC-slot id must be non-negative, got " +
                         std::to_string(inst.a));
            continue;
        }
        if (std::find(slot_ids.begin(), slot_ids.end(), inst.a) !=
            slot_ids.end())
            ctx.diag(IrSeverity::Error, kLrcLegality, (int32_t)i,
                     "duplicate LRC-slot id " +
                         std::to_string(inst.a) +
                         ": the controller's fill for this id would "
                         "replay twice per round");
        else
            slot_ids.push_back(inst.a);
    }
    if (slots == 0)
        ctx.diag(IrSeverity::Note, kLrcLegality, -1,
                 "program has no LrcSlot branch point; adaptive LRC "
                 "policies cannot act on it");

    // Tail templates: exactly one per kind, and exactly one for the
    // kind the program's slots request.
    int for_tail = 0;
    for (size_t t = 0; t < prog.tailTemplates.size(); ++t) {
        const IrTailTemplate &tmpl = prog.tailTemplates[t];
        if (tmpl.kind == prog.tail)
            ++for_tail;
        for (size_t u = 0; u < t; ++u)
            if (prog.tailTemplates[u].kind == tmpl.kind) {
                ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                         std::string("duplicate ") +
                             tailKindName(tmpl.kind) +
                             " tail template: the branch expansion "
                             "would be ambiguous");
                break;
            }
    }
    if (slots > 0 && for_tail == 0)
        ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                 std::string("program requests ") +
                     tailKindName(prog.tail) +
                     " tails but carries no template of that kind: "
                     "the LrcSlot branch is uncheckable");

    // Template well-formedness: ops act on the D/P placeholders only.
    for (const IrTailTemplate &tmpl : prog.tailTemplates) {
        const char *kind = tailKindName(tmpl.kind);
        bool measures_data = false;
        for (size_t k = 0; k < tmpl.ops.size(); ++k) {
            const Op &op = tmpl.ops[k];
            const bool two = op.type == OpType::Cnot ||
                             op.type == OpType::LeakageIswap;
            const auto placeholder = [](int q) {
                return q == kTailDataQubit || q == kTailParityQubit;
            };
            if (!placeholder(op.q0) || (two && !placeholder(op.q1)))
                ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                         std::string(kind) + " tail template op " +
                             std::to_string(k) +
                             " references a concrete qubit instead "
                             "of the D/P placeholders");
            else if (two && op.q0 == op.q1)
                ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                         std::string(kind) + " tail template op " +
                             std::to_string(k) +
                             " uses one placeholder for both "
                             "operands");
            if ((op.type == OpType::Measure ||
                 op.type == OpType::MeasureX) &&
                op.q0 == kTailDataQubit && op.lrcData)
                measures_data = true;
        }
        if (prog.maskReadoutOnLrc && tmpl.kind == prog.tail &&
            !measures_data)
            ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                     std::string(kind) +
                         " tail template never measures the data "
                         "qubit, but the program masks the plain "
                         "readout on LRC'd lanes: their syndrome "
                         "would be lost");
    }

    // Readout masking must match the tail kind's semantics: swap-LRC
    // replaces the plain readout (measures through D); DQLR is purely
    // additive (the normal ancilla readout still reports).
    const bool replaces = prog.tail == IrTailKind::SwapLrc;
    if (prog.maskReadoutOnLrc != replaces)
        ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                 replaces
                     ? std::string(
                           "swap-lrc tails replace the plain readout "
                           "but maskReadoutOnLrc is false: LRC'd "
                           "lanes would be measured twice per round")
                     : std::string(
                           "dqlr tails are additive but "
                           "maskReadoutOnLrc is true: LRC'd lanes "
                           "would lose their plain readout"));

    // The support CSR the tails index into: distinct parity qubits in
    // the ancilla region, non-empty supports.
    std::vector<int> seen_ancilla;
    for (int s = 0; s < prog.numStabs; ++s) {
        const int a = prog.stabAncilla[s];
        if (a < prog.numData)
            ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                     "stabilizer " + std::to_string(s) +
                         "'s parity qubit " + std::to_string(a) +
                         " lies in the data region; a tail would "
                         "swap data state into a data qubit");
        if (std::find(seen_ancilla.begin(), seen_ancilla.end(), a) !=
            seen_ancilla.end())
            ctx.diag(IrSeverity::Error, kLrcLegality, -1,
                     "two stabilizers share parity qubit " +
                         std::to_string(a) +
                         "; concurrent tails on them would collide");
        else
            seen_ancilla.push_back(a);
        if (prog.supportOffset[s] ==
            prog.supportOffset[(size_t)s + 1])
            ctx.diag(IrSeverity::Warning, kLrcLegality, -1,
                     "stabilizer " + std::to_string(s) +
                         " has empty support: no LRC pair can ever "
                         "be scheduled for it");
    }
}

// ---------------------------------------------------------------------
// Pass 5: observable reachability.
// ---------------------------------------------------------------------

constexpr const char *kObservable = "observable-reachability";

void
passObservableReachability(PassContext &ctx)
{
    const CircuitProgram &prog = ctx.prog;
    if (prog.detectors.observable.empty()) {
        ctx.diag(IrSeverity::Error, kObservable, -1,
                 "the logical observable has empty support: no final "
                 "readout can determine the logical outcome");
        return;
    }

    const OpType expected =
        prog.basis == Basis::Z ? OpType::Measure : OpType::MeasureX;
    std::vector<int> in_basis((size_t)prog.numData, 0);
    std::vector<int32_t> wrong_basis((size_t)prog.numData, -1);
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i) {
        const Op &op = prog.pool[prog.instrs[i].a];
        if (op.q0 < 0 || op.q0 >= prog.numData)
            continue;
        if (op.type == expected)
            ++in_basis[op.q0];
        else if (op.type == OpType::Measure ||
                 op.type == OpType::MeasureX)
            wrong_basis[op.q0] = (int32_t)i;
    }

    const char *basis_name = prog.basis == Basis::Z ? "Z" : "X";
    for (int q : prog.detectors.observable) {
        if (in_basis[q] == 1)
            continue;
        if (in_basis[q] > 1)
            ctx.diag(IrSeverity::Error, kObservable, -1,
                     "observable data qubit " + std::to_string(q) +
                         " is measured " +
                         std::to_string(in_basis[q]) +
                         " times in the final layer; the observable "
                         "parity would double-count it");
        else if (wrong_basis[q] >= 0)
            ctx.diag(IrSeverity::Error, kObservable, wrong_basis[q],
                     "observable data qubit " + std::to_string(q) +
                         "'s final readout is not in the memory-" +
                         basis_name + " basis");
        else
            ctx.diag(IrSeverity::Error, kObservable, -1,
                     "logical observable requires data qubit " +
                         std::to_string(q) +
                         ", which the final readout layer never "
                         "measures: the observable is unreachable");
    }
}

} // namespace

// ---------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------

const char *
noiseChannelName(NoiseChannel channel)
{
    switch (channel) {
      case NoiseChannel::Pauli: return "pauli";
      case NoiseChannel::LeakInjection: return "leak";
      case NoiseChannel::Seepage: return "seep";
    }
    return "?";
}

const char *
irSeverityName(IrSeverity severity)
{
    switch (severity) {
      case IrSeverity::Error: return "error";
      case IrSeverity::Warning: return "warning";
      case IrSeverity::Note: return "note";
    }
    return "?";
}

std::string
IrDiagnostic::toString() const
{
    std::string out = irSeverityName(severity);
    out += "[";
    out += pass;
    out += "]";
    if (instr >= 0) {
        out += " @";
        out += std::to_string(instr);
    }
    if (round >= 0) {
        out += " r";
        out += std::to_string(round);
    }
    out += ": ";
    out += message;
    return out;
}

int
IrAnalysisReport::errorCount() const
{
    int n = 0;
    for (const IrDiagnostic &d : diagnostics)
        n += d.severity == IrSeverity::Error ? 1 : 0;
    return n;
}

int
IrAnalysisReport::warningCount() const
{
    int n = 0;
    for (const IrDiagnostic &d : diagnostics)
        n += d.severity == IrSeverity::Warning ? 1 : 0;
    return n;
}

Status
IrAnalysisReport::toStatus() const
{
    if (!hasErrors())
        return okStatus();
    std::string message = "circuit program fails static analysis:";
    for (const IrDiagnostic &d : diagnostics)
        if (d.severity == IrSeverity::Error)
            message += " [" + d.toString() + "]";
    return invalidArgument(std::move(message));
}

std::string
IrAnalysisReport::toString() const
{
    std::string out;
    for (const IrDiagnostic &d : diagnostics) {
        out += d.toString();
        out += "\n";
    }
    return out;
}

IrAnalysisReport
IrAnalyzer::analyze(const CircuitProgram &prog, const ErrorModel &em)
{
    IrAnalysisReport report;
    PassContext ctx{prog, em, report};
    passLiveness(ctx);
    passDetectorCoverage(ctx);
    passStreamSync(ctx);
    passLrcLegality(ctx);
    passObservableReachability(ctx);
    return report;
}

IrAnalysisReport
IrAnalyzer::analyze(const CircuitProgram &prog)
{
    return analyze(prog, ErrorModel::standard(1e-3));
}

Status
IrAnalyzer::verify(const CircuitProgram &prog, const ErrorModel &em)
{
    Status st = prog.validate();
    if (!st.isOk())
        return st;
    return analyze(prog, em).toStatus();
}

Status
IrAnalyzer::verify(const CircuitProgram &prog)
{
    return verify(prog, ErrorModel::standard(1e-3));
}

// ---------------------------------------------------------------------
// Listing formatter (the irlint dump).
// ---------------------------------------------------------------------

namespace
{

std::string
formatOp(const Op &op)
{
    std::string out = opTypeName(op.type);
    if (op.type == OpType::RoundStart)
        return out;
    out += " " + placeholderName(op.q0);
    if (op.type == OpType::Cnot || op.type == OpType::LeakageIswap)
        out += " " + placeholderName(op.q1);
    if (op.stab >= 0)
        out += " stab=" + std::to_string(op.stab);
    if (op.finalData)
        out += " final";
    if (op.lrcData)
        out += " lrc";
    return out;
}

} // namespace

std::string
formatProgramListing(const CircuitProgram &prog)
{
    std::ostringstream out;
    out << "program " << circuitFamilyName(prog.family) << " d="
        << prog.distance << " rounds=" << prog.rounds << " basis="
        << (prog.basis == Basis::Z ? "Z" : "X") << " tail="
        << tailKindName(prog.tail) << "\n";
    out << "  qubits=" << prog.numQubits << " (data=" << prog.numData
        << ") stabs=" << prog.numStabs << " detectorCols="
        << prog.detectors.cols << " maskReadoutOnLrc="
        << (prog.maskReadoutOnLrc ? "yes" : "no") << "\n";
    for (size_t i = 0; i < prog.instrs.size(); ++i) {
        const IrInst &inst = prog.instrs[i];
        out << (i == prog.bodyBegin ? " body>" : "      ");
        out << " " << i << ": ";
        switch (inst.op) {
          case IrOpcode::RoundBegin:
            out << "RoundBegin x" << inst.a;
            break;
          case IrOpcode::RoundEnd:
            out << "RoundEnd";
            break;
          case IrOpcode::Gate:
            out << formatOp(prog.pool[inst.a]);
            break;
          case IrOpcode::Readout:
            out << "Readout stab=" << inst.a << " ["
                << formatOp(prog.pool[inst.b]) << "; "
                << formatOp(prog.pool[(size_t)inst.b + 1]) << "]";
            break;
          case IrOpcode::LrcSlot:
            out << "LrcSlot id=" << inst.a;
            break;
        }
        out << "\n";
    }
    for (const IrTailTemplate &tmpl : prog.tailTemplates) {
        out << "  tail " << tailKindName(tmpl.kind) << ":";
        for (const Op &op : tmpl.ops)
            out << " [" << formatOp(op) << "]";
        out << "\n";
    }
    out << "  observable:";
    for (int q : prog.detectors.observable)
        out << " q" << q;
    out << "\n";
    return out.str();
}

} // namespace qec
