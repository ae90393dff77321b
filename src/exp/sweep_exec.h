/**
 * @file
 * Execution plumbing of SweepRunner::run: the cross-point component
 * caches and the checkpoint load/verify preamble. Exposed so that
 * benchmarks can build exactly the components a sweep builds.
 */

#ifndef QEC_EXP_SWEEP_EXEC_H
#define QEC_EXP_SWEEP_EXEC_H

#include <map>
#include <memory>
#include <tuple>

#include "exp/checkpoint.h"
#include "exp/sweep_runner.h"

namespace qec
{

/**
 * Cross-point component caches: the expensive builds (lattice,
 * detector model, decoder structure) are keyed by exactly what they
 * depend on, so a grid that revisits them pays once. Builds happen on
 * the calling thread in request order — the runner requests points
 * in plan-index order at any window, keeping the built/reused
 * accounting identical.
 */
class SweepBuildCache
{
  public:
    /** The shared components one point's MemoryExperiment needs. */
    struct Components
    {
        const RotatedSurfaceCode *code = nullptr;
        /** SWAP lookup table of `code` (always set; one per
         *  distance). */
        std::shared_ptr<const SwapLookupTable> lookup;
        /** Compiled circuit program (always set; see circuit_ir.h). */
        std::shared_ptr<const CircuitProgram> program;
        std::shared_ptr<const DetectorModel> dem;
        std::shared_ptr<const Decoder> decoder;
    };

    /**
     * Build or reuse the point's components, counting builds/reuses
     * into `summary`. dem/decoder stay null when the point does not
     * decode. Freshly compiled programs run the full IrAnalyzer pass
     * stack once (cache hits reuse the verdict along with the
     * program); an Error-severity program comes back as a non-OK
     * Status, never a panic. May throw std::bad_alloc (callers map it
     * to a retryable Status). The returned code pointer stays valid
     * for the cache's lifetime.
     */
    [[nodiscard]] StatusOr<Components>
    build(const SweepPoint &point,
          const DecoderOptions &decoder_options,
          SweepSummary &summary);

  private:
    /** Per distance: the code and its SWAP lookup table. */
    struct CodeEntry
    {
        std::unique_ptr<RotatedSurfaceCode> code;
        std::shared_ptr<const SwapLookupTable> lookup;
    };
    std::map<int, CodeEntry> codes_;
    /** (family, distance, rounds, basis, protocol) */
    using ProgramKey = std::tuple<int, int, int, int, int>;
    std::map<ProgramKey, std::shared_ptr<const CircuitProgram>>
        programs_;
    /** (family, distance, rounds, basis) */
    using DemKey = std::tuple<int, int, int, int>;
    std::map<DemKey, std::shared_ptr<const DetectorModel>> dems_;
    /** (family, distance, rounds, basis, decoder kind, bits(p)) */
    using DecoderKey = std::tuple<int, int, int, int, int, uint64_t>;
    std::map<DecoderKey, std::shared_ptr<const Decoder>> decoders_;
};

/**
 * The sweep's checkpoint preamble: when resume is requested, load
 * `options.path`, verify its plan fingerprint, and adopt it into
 * `ckpt` (whose planFingerprint must be preset).
 * Returns false when the sweep must not proceed — fingerprint
 * mismatch, or a corrupt/version-skewed file that is evidence of real
 * progress — with summary.status / summary.resumeStatus set.
 */
bool prepareSweepCheckpoint(const CheckpointOptions &options,
                            SweepCheckpoint &ckpt,
                            SweepSummary &summary);

} // namespace qec

#endif // QEC_EXP_SWEEP_EXEC_H
