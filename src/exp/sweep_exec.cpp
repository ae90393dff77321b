#include "exp/sweep_exec.h"

#include <cstring>
#include <utility>

#include "code/circuit_ir.h"

namespace qec
{

namespace
{

uint64_t
doubleKeyBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

StatusOr<SweepBuildCache::Components>
SweepBuildCache::build(const SweepPoint &point,
                       const DecoderOptions &decoder_options,
                       SweepSummary &summary)
{
    Components out;

    auto code_it = codes_.find(point.distance);
    if (code_it == codes_.end()) {
        CodeEntry entry;
        entry.code = std::make_unique<RotatedSurfaceCode>(point.distance);
        entry.lookup =
            std::make_shared<const SwapLookupTable>(*entry.code);
        code_it = codes_.emplace(point.distance, std::move(entry)).first;
        ++summary.codesBuilt;
    } else {
        ++summary.codesReused;
    }
    out.code = code_it->second.code.get();
    out.lookup = code_it->second.lookup;

    const CircuitFamily family = point.config.family;
    const ProgramKey prog_key{(int)family, point.distance,
                              point.rounds, (int)point.config.basis,
                              (int)point.protocol};
    auto prog_it = programs_.find(prog_key);
    if (prog_it == programs_.end()) {
        // Checked compile: validate() plus the IrAnalyzer pass stack
        // run exactly once per cached program; every later point that
        // shares the key reuses the analyzed program.
        StatusOr<CircuitProgram> prog = compileExperimentProgram(
            *out.code, family, point.rounds, point.config.basis,
            point.protocol);
        if (!prog.ok())
            return prog.status();
        prog_it = programs_
                      .emplace(prog_key,
                               std::make_shared<const CircuitProgram>(
                                   std::move(prog).value()))
                      .first;
    }
    out.program = prog_it->second;

    if (!point.config.decode)
        return out;

    // The key omits the protocol (tail kind): the model comes from
    // the program's base circuit, which leaves every LrcSlot branch
    // empty, so the swap and DQLR programs of one shape share it.
    const DemKey dem_key{(int)family, point.distance, point.rounds,
                         (int)point.config.basis};
    auto dem_it = dems_.find(dem_key);
    if (dem_it == dems_.end()) {
        dem_it = dems_
                     .emplace(dem_key,
                              std::make_shared<DetectorModel>(
                                  buildDetectorModel(*out.program)))
                     .first;
        ++summary.demsBuilt;
    } else {
        ++summary.demsReused;
    }
    out.dem = dem_it->second;

    const DecoderKey dec_key{(int)family, point.distance, point.rounds,
                             (int)point.config.basis,
                             (int)point.decoderKind,
                             doubleKeyBits(point.p)};
    auto dec_it = decoders_.find(dec_key);
    if (dec_it == decoders_.end()) {
        dec_it = decoders_
                     .emplace(dec_key,
                              makeDecoder(point.decoderKind, *out.dem,
                                          point.p, decoder_options))
                     .first;
        ++summary.decodersBuilt;
    } else {
        ++summary.decodersReused;
    }
    out.decoder = dec_it->second;
    return out;
}

bool
prepareSweepCheckpoint(const CheckpointOptions &options,
                       SweepCheckpoint &ckpt, SweepSummary &summary)
{
    if (!options.enabled() || !options.resume)
        return true;
    StatusOr<SweepCheckpoint> loaded =
        SweepCheckpoint::load(options.path);
    if (loaded.ok()) {
        if (loaded.value().planFingerprint != ckpt.planFingerprint) {
            summary.resumeStatus = failedPrecondition(
                "checkpoint " + options.path +
                " was written by a different sweep plan or noise "
                "contract (fingerprint mismatch); delete it or point "
                "this sweep at a fresh checkpoint path");
            summary.status = summary.resumeStatus;
            return false;
        }
        ckpt = std::move(loaded).value();
        summary.resumed = !ckpt.points.empty();
    } else if (loaded.status().code() != StatusCode::NotFound) {
        // A corrupt or version-skewed checkpoint is evidence of
        // real progress; refuse to clobber it silently.
        summary.resumeStatus = loaded.status();
        summary.status = loaded.status();
        return false;
    }
    return true;
}

} // namespace qec
