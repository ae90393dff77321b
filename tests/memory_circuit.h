/**
 * @file
 * The lattice-walked static memory circuit, kept as a test reference.
 *
 * Test support, linked into every test binary and not part of the
 * library: experiments, post-selection and the detector model all run
 * on the compiled CircuitProgram (code/circuit_ir.h), whose
 * baseCircuit() reproduces this circuit op for op
 * (CircuitIr.BaseCircuitMatchesLatticeCircuit) and whose replay
 * reproduces its op-level execution record for record
 * (CompiledRound.ExecuteProgramMatchesOpLevelCircuit). Tests that drive
 * the scalar FrameSimulator or op-level executeRange use it as their
 * circuit. The lattice-walked DQLR segment lives here too: the op-level
 * QecScheduleGenerator (qsg.h) appends it to DQLR rounds.
 */

#ifndef QEC_TESTS_MEMORY_CIRCUIT_H
#define QEC_TESTS_MEMORY_CIRCUIT_H

#include <vector>

#include "code/builder.h"
#include "code/circuit.h"
#include "code/rotated_surface_code.h"

namespace qec
{

/**
 * Build the complete static (no-LRC) memory circuit by walking the
 * lattice: `rounds` plain buildRoundSchedule rounds followed by the
 * final transversal data measurement.
 */
Circuit buildMemoryCircuit(const RotatedSurfaceCode &code, int rounds,
                           Basis basis);

/**
 * Build the DQLR leakage-removal segment appended after a round
 * (Section A.2): for each pair, LeakageISWAP(D, P) then reset P.
 */
std::vector<Op> buildDqlrSegment(const RotatedSurfaceCode &code,
                                 const std::vector<LrcPair> &pairs);

} // namespace qec

#endif // QEC_TESTS_MEMORY_CIRCUIT_H
