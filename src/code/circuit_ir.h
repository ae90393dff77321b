#pragma once

/** Circuit IR: a flat, replayable instruction stream compiled from a
 *  protocol description and executed by the batch frame simulator.
 *
 *  The IR decouples "what circuit" from "how fast": a CircuitProgram
 *  holds one round body plus the final transversal readout as indices
 *  into an op pool, and the engine replays that body `rounds` times
 *  with its word-level op/noise helpers. Divergent adaptive-LRC tails
 *  are IR branch points (LrcSlot instructions) that the controller
 *  fills per lane/word at replay time, so adding a protocol means
 *  adding a compiler path — not an engine edit.
 *
 *  Instruction set:
 *
 *  | opcode     | a                  | b              | effect at replay |
 *  |------------|--------------------|----------------|------------------|
 *  | Gate       | op-pool index      | —              | execute pool[a] verbatim on the masked lanes (gates carry their own noise: each consumes its unconditional noise sites from the round's hit tables) |
 *  | Readout    | stabilizer index   | op-pool index  | stamp pool[b] (Measure) with the current round, mask out LRC'd lanes when the protocol replaces the plain readout, measure + reset |
 *  | LrcSlot    | slot id (== round-relative slot) | — | branch point: the controller supplies per-64-lane-block divergent tails (swap-LRC or DQLR) that the engine expands with block-local masks |
 *  | RoundBegin | trip count (rounds)| —              | marks the start of the replayed round body |
 *  | RoundEnd   | —                  | —              | marks the end of the round body; instructions after it are the final transversal measurement |
 *
 *  Draw-order contract (see BatchFrameSimulatorT, kNoiseContract):
 *  every issued op consumes a fixed number of noise sites per channel
 *  (depolarizing/flip at p, leak injection, seepage; see irOpSites)
 *  from its 64-lane block's streams, whatever its lane mask; the engine fills a round's
 *  sites with one hit-table advance per channel, the tails of one
 *  LrcSlot on a block (each the tail template's ops, conditional
 *  suffix included) with one advance of that block's streams, and the
 *  final layer's with one more. State-conditional events draw per lane
 *  from the lane's own stream. A block's draws therefore depend only
 *  on its own op sequence, so per-shot results are bit-identical at
 *  every batch width. The compiler emits the round body in schedule
 *  order; the stream-sync analyzer pass tabulates the site counts.
 *
 *  Run table: the compiler also lowers the round body once into an
 *  IrRunTable, the form the engine replays. A run is a maximal stretch
 *  of consecutive body ops of one kind (one gate type, Readout pairs,
 *  or a single LrcSlot) whose qubits are pairwise disjoint; RoundStart
 *  markers (no sites, no effect) are dropped. For the d=11 surface
 *  body the runs are DataNoise x121 | H x60 | four CNOT layers of
 *  109-111 | H x60 | Readout x120 | LrcSlot. Disjointness is what lets
 *  the engine run a whole run as one kernel: ops on disjoint qubits
 *  commute, so their draw-free frame updates may all go first, and
 *  each lane's draws still follow op order when the ops that draw are
 *  then visited in order.
 */

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "code/circuit.h"
#include "code/rotated_surface_code.h"
#include "code/types.h"

namespace qec
{

/** Hit-table sites one op consumes: `pauli` on the depolarizing/flip
 *  channel, and `leak` on each of the leak-injection and seepage
 *  channels (seepage trials sit at the injection sites) when the error
 *  model enables leakage. Every op but RoundStart has one Pauli site;
 *  DataNoise has one leak site, and two-qubit gates one per operand.
 *  This is the one definition of the per-op site rule of the engine's
 *  draw contract (kNoiseContract); the engine, the run table and the
 *  stream-sync pass all count with it. */
struct IrOpSites
{
    int pauli = 0;
    int leak = 0;
};

constexpr IrOpSites
irOpSites(OpType type)
{
    switch (type) {
      case OpType::RoundStart:
        return {0, 0};
      case OpType::DataNoise:
        return {1, 1};
      case OpType::Cnot:
      case OpType::LeakageIswap:
        return {1, 2};
      case OpType::Reset:
      case OpType::H:
      case OpType::Measure:
      case OpType::MeasureX:
        break;
    }
    return {1, 0};
}

/** Which protocol family a program encodes. Families other than the
 *  rotated-surface-code memory experiment exist purely as compiler
 *  paths over the same engine. */
enum class CircuitFamily : uint8_t
{
    SurfaceMemory,
    RepetitionMemory,
};

/** How an LrcSlot branch removes leakage when the controller fills it. */
enum class IrTailKind : uint8_t
{
    SwapLrc, ///< swap-based LRC: 3 CNOTs + multi-level readout + resets
    Dqlr,    ///< iSWAP-in-|2> DQLR: LeakageIswap + parity reset
};

enum class IrOpcode : uint8_t
{
    Gate,
    Readout,
    LrcSlot,
    RoundBegin,
    RoundEnd,
};

struct IrInst
{
    IrOpcode op;
    int32_t a = -1;
    int32_t b = -1;
};

/** One divergent LRC tail the controller scheduled for a 64-lane block:
 *  stabilizer `stab` redirects its readout through data qubit `data` on
 *  the lanes in `mask` (a block-local 64-bit lane mask). */
struct IrLrcTail
{
    int stab = -1;
    int data = -1;
    uint64_t mask = 0;
};

/** Placeholder qubit ids inside IrTailTemplate ops, resolved at replay
 *  time to the scheduled pair's data / parity qubit. */
constexpr int kTailDataQubit = -2;
constexpr int kTailParityQubit = -3;

/** The op sequence a filled LrcSlot branch expands to for one tail
 *  kind, written against the kTailDataQubit/kTailParityQubit
 *  placeholders. Conditional suffix ops (the ERASER+M MOV squash) are
 *  listed unconditionally — the template describes the superset of ops
 *  a tail may run, which is what static analysis needs, and each tail
 *  issues all of them (on an empty mask where skipped). The engine's
 *  executeLrcTail is the hardcoded expansion; the engine counts each
 *  tail's noise sites from the template, checks that the expansion
 *  consumed exactly that, and test_ir_analysis pins the template ops
 *  op for op. */
struct IrTailTemplate
{
    IrTailKind kind = IrTailKind::SwapLrc;
    std::vector<Op> ops;
};

/** The measure→detector/observable binding the extractor reads instead
 *  of lattice-walking the code. Columns index detectors within one
 *  round (detector id = round * cols + column). */
struct IrDetectorMap
{
    int cols = 0;
    int numData = 0;
    /** Per stabilizer: detector column, or -1 when the stabilizer's
     *  basis does not produce detectors for this memory basis. */
    std::vector<int> stabColumn;
    /** CSR over columns -> data-qubit support, used to reconstruct the
     *  final detector row from the transversal data readout. */
    std::vector<int> colSupportOffset;
    std::vector<int> colSupportData;
    /** Data qubits whose final readouts XOR into the logical observable. */
    std::vector<int> observable;
};

struct CircuitProgram;

/** One run of a compiled round body (see IrRunTable). */
struct IrRun
{
    /** Gate, Readout or LrcSlot. */
    IrOpcode op = IrOpcode::Gate;
    /** Gate runs: the ops' type. Readout runs: the measurement's. */
    OpType type = OpType::RoundStart;
    /** The run's ops are [begin, end) of the table's op arrays. */
    int32_t begin = 0;
    int32_t end = 0;
    /** First hit-table site of the run on the Pauli channel, and on
     *  the leak-injection and seepage channels when leakage is on. */
    int32_t pauliSite = 0;
    int32_t leakSite = 0;
    /** Sites each op of the run consumes (a Readout pair: both). */
    IrOpSites perOp;
};

/**
 * A round body compiled into typed runs of disjoint-operand ops, with
 * flat operand arrays and each site's owning op. Built once per
 * program (O(instructions)); the engine binds it per word-group in
 * O(1). Ops are numbered in body order, RoundStart markers excluded.
 */
struct IrRunTable
{
    std::vector<IrRun> runs;
    /** Per op. Gate: its qubits (q1 = -1 for one-qubit ops). Readout:
     *  the measured qubit and the stabilizer. LrcSlot: the slot id. */
    std::vector<int32_t> q0;
    std::vector<int32_t> q1;
    /** Per op: the pool index of the Gate op or of the Readout's
     *  measurement (its reset follows it); -1 for an LrcSlot. */
    std::vector<int32_t> pool;
    /** Per site of one round, the op that consumes it: on the Pauli
     *  channel, and on the leak-injection and seepage channels (the
     *  sites they have when leakage is on). */
    std::vector<int32_t> pauliSiteOp;
    std::vector<int32_t> leakSiteOp;
    /** Shape of the program the table was compiled from. */
    size_t bodyBegin = 0;
    size_t bodyEnd = 0;
    size_t numInstrs = 0;
    size_t poolSize = 0;

    int numOps() const { return (int)q0.size(); }

    /** Compile a program's round body. */
    static IrRunTable compile(const CircuitProgram &prog);

    /** True when the table was compiled from a program of `prog`'s
     *  shape (body span, instruction and pool counts): an O(1) check
     *  that catches programs assembled by hand (no table) and edits
     *  that add or remove instructions. An op edited in place keeps
     *  the shape: recompile the table after such an edit. */
    bool compiledFrom(const CircuitProgram &prog) const;
};

struct CircuitProgram
{
    CircuitFamily family = CircuitFamily::SurfaceMemory;
    IrTailKind tail = IrTailKind::SwapLrc;
    Basis basis = Basis::Z;
    int distance = 0;
    int rounds = 0;
    int numQubits = 0;
    int numData = 0;
    int numStabs = 0;
    /** True when a filled LrcSlot replaces the plain readout of its
     *  stabilizer (swap-LRC); false when the tail is purely additive
     *  (DQLR measures through the normal ancilla readout). */
    bool maskReadoutOnLrc = false;

    /** Op pool referenced by Gate/Readout instructions. Pool ops are
     *  executed verbatim (rounds are NOT restamped for body gates —
     *  the engine's gate/noise helpers ignore Op::round); Readout
     *  measurement ops are copied and stamped per round. */
    std::vector<Op> pool;
    /** [RoundBegin, body..., RoundEnd, final gates...] */
    std::vector<IrInst> instrs;
    /** Index of the first body instruction (after RoundBegin). */
    size_t bodyBegin = 0;
    /** Index of the RoundEnd instruction. */
    size_t bodyEnd = 0;

    /** Per stabilizer: its ancilla qubit (parity qubit for LRC tails). */
    std::vector<int> stabAncilla;
    /** CSR over stabilizers -> data-qubit support (LRC-pair validity). */
    std::vector<int> supportOffset;
    std::vector<int> supportData;
    /** Per stabilizer: 1 when its first-round outcome is deterministic
     *  in the memory basis (so round 0 raises a detection event on a
     *  nonzero readout). */
    std::vector<uint8_t> detR0;

    IrDetectorMap detectors;

    /** Tail expansions for the LrcSlot branch points (one per
     *  IrTailKind the program's slots can request). */
    std::vector<IrTailTemplate> tailTemplates;

    /** The round body as the engine replays it. The compilers fill
     *  it. For a program assembled by hand, or edited so that its
     *  shape changed (see IrRunTable::compiledFrom), the engine
     *  compiles a private copy per simulator; after an edit in place,
     *  set `runTable = IrRunTable::compile(prog)`. */
    IrRunTable runTable;

    /** Structural validation: dangling qubit/stabilizer indices,
     *  unclosed or misplaced round-loop markers, duplicate LRC-slot
     *  ids, detector-map shape. Returns the first violation found.
     *  Semantic checks (detector coverage, stream sync, tail
     *  legality, observable reachability) live in IrAnalyzer. */
    [[nodiscard]] Status validate() const;

    /** True when `data` lies in `stab`'s support (valid LRC pairing). */
    bool supportContains(int stab, int data) const;

    /** Reconstruct the LRC-free flat circuit this program replays —
     *  round bodies restamped per round plus the final transversal
     *  measurement — for detector-model enumeration. For the surface
     *  family it equals, op for op, the lattice walk of
     *  buildRoundSchedule rounds plus buildFinalMeasurement (pinned by
     *  CircuitIr.BaseCircuitMatchesLatticeCircuit). A non-negative
     *  `rounds_override` rebuilds the same body for a different round
     *  count (the DEM tiler's short template). */
    Circuit baseCircuit(int rounds_override = -1) const;
};

/** Lowers protocol descriptions into CircuitPrograms. */
class CircuitCompiler
{
  public:
    /** Lower the rotated-surface-code memory protocol (any basis, any
     *  LRC tail kind). The emitted round body replays bit-identically
     *  to buildRoundSchedule()-driven execution. */
    static CircuitProgram surfaceMemory(const RotatedSurfaceCode &code,
                                        int rounds, Basis basis,
                                        IrTailKind tail);

    /** Lower a distance-d repetition-code (bit-flip) memory protocol:
     *  d data qubits in a line, d-1 ZZ checks, Z memory only. Exists
     *  entirely as a compiler path — no engine changes. */
    static CircuitProgram repetitionMemory(int distance, int rounds);

    /** Checked lowering: compile, then run validate() and the full
     *  IrAnalyzer pass stack, refusing (InvalidArgument, never panic)
     *  any program carrying Error-severity diagnostics. The form the
     *  sweep executor and other recoverable callers use. */
    [[nodiscard]] static StatusOr<CircuitProgram>
    surfaceMemoryChecked(const RotatedSurfaceCode &code, int rounds,
                         Basis basis, IrTailKind tail);
    [[nodiscard]] static StatusOr<CircuitProgram>
    repetitionMemoryChecked(int distance, int rounds);
};

const char *circuitFamilyName(CircuitFamily family);

} // namespace qec
