/**
 * @file
 * Static analysis over the circuit IR: an IrAnalyzer pass manager that
 * runs dataflow passes over a CircuitProgram and emits structured
 * diagnostics, without ever executing (or mutating) the program.
 *
 * Passes (names are stable — CI and tests key on them):
 *
 *  | pass                     | proves |
 *  |--------------------------|--------|
 *  | qubit-liveness           | every gate's effect can reach a Readout; dead gates are reported with a machine-readable removable-instruction list (the peephole input) |
 *  | detector-coverage        | every detector column owns exactly one per-round Readout, no orphan measurements, round-0 mask consistent with detR0, column supports match the stabilizer CSR |
 *  | stream-sync              | per-channel noise sites per round, per LrcSlot tail and in the final layer (the engine's hit-table sizes); rounds are site-invariant and every tail advances only its own 64-lane block's streams — the static form of the "W=256/512 ≡ concatenation of W=64 sub-runs" contract |
 *  | lrc-legality             | unique slot ids, tail templates well-formed against the stabilizer-support CSR, readout masking consistent with the tail kind |
 *  | observable-reachability  | the logical observable's support is measured, in the memory basis, in the final readout layer |
 *
 * Severity policy: Error = replay or decode would be wrong (checked
 * compilation refuses the program); Warning = suspicious but runnable
 * (dead gates, unmeasured detector support); Note = analysis evidence
 * (stream tables, auxiliary readouts).
 */

#ifndef QEC_CODE_IR_ANALYSIS_H
#define QEC_CODE_IR_ANALYSIS_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "code/circuit_ir.h"
#include "sim/error_model.h"

namespace qec
{

enum class IrSeverity : uint8_t
{
    Error,   ///< The program must not be executed.
    Warning, ///< Runnable, but something is wasted or unprotected.
    Note,    ///< Analysis evidence; no action needed.
};

const char *irSeverityName(IrSeverity severity);
/** "pauli" / "leak" / "seep", as the stream-sync note prints them. */
const char *noiseChannelName(NoiseChannel channel);

/** One analyzer finding, anchored to an instruction when possible. */
struct IrDiagnostic
{
    IrSeverity severity = IrSeverity::Note;
    /** Stable pass name (see the file header's table). */
    const char *pass = "";
    /** Instruction index into CircuitProgram::instrs, -1 when the
     *  finding is program-wide. */
    int32_t instr = -1;
    /** Round the finding is specific to, -1 when it holds for every
     *  replayed round (the body is round-invariant, so most do). */
    int32_t round = -1;
    std::string message;

    /** "error[pass] @12 r0: message" for logs and irlint. */
    std::string toString() const;
};

/** Static site accounting for one hit-table noise channel
 *  (stream-sync evidence): how many sites of the channel's per-block
 *  stream the batch engine's hit tables hold per replayed round body,
 *  per LrcSlot tail of the program's tail kind, and for the final
 *  readout layer. Every issued op consumes its sites whatever its lane
 *  mask, so these counts are the whole block-stream skeleton;
 *  state-conditional events (transport, leaked readouts, label misses,
 *  DQLR excitation) draw per lane and need no table. */
struct IrStreamUsage
{
    NoiseChannel channel = NoiseChannel::Pauli;
    double probability = 0.0;
    int sitesPerRound = 0;
    int tailSites = 0;
    int finalSites = 0;
};

struct IrAnalysisReport
{
    std::vector<IrDiagnostic> diagnostics;
    /** qubit-liveness output: instruction indices whose removal
     *  provably cannot change any Readout record. Sorted ascending;
     *  the input the ROADMAP peephole passes consume. */
    std::vector<int32_t> removableInstructions;
    /** stream-sync output: one row per hit-table channel that can fire
     *  under the analyzed model. */
    std::vector<IrStreamUsage> streams;

    int errorCount() const;
    int warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }
    /** OK, or InvalidArgument naming every Error-severity finding. */
    [[nodiscard]] Status toStatus() const;
    /** All diagnostics, one per line. */
    std::string toString() const;
};

/** The pass manager. Stateless; all entry points are read-only over
 *  the program. */
class IrAnalyzer
{
  public:
    /** Run every pass under `em` (stream probabilities and leakage
     *  gating come from the model; all Error conditions are
     *  model-independent). */
    static IrAnalysisReport analyze(const CircuitProgram &prog,
                                    const ErrorModel &em);
    /** analyze() under the paper's standard model at p = 1e-3. */
    static IrAnalysisReport analyze(const CircuitProgram &prog);

    /** validate() + analyze(), collapsed to a Status: OK exactly when
     *  the program is structurally valid and analyzes Error-free. */
    [[nodiscard]] static Status verify(const CircuitProgram &prog,
                                       const ErrorModel &em);
    [[nodiscard]] static Status verify(const CircuitProgram &prog);
};

/** Human-readable instruction listing (the irlint dump): header,
 *  per-instruction decode with body markers, detector-map and
 *  tail-template summaries. */
std::string formatProgramListing(const CircuitProgram &prog);

} // namespace qec

#endif // QEC_CODE_IR_ANALYSIS_H
