#include "exp/postselection.h"

#include <algorithm>
#include <mutex>

#include "base/parallel.h"
#include "decoder/batch_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{

namespace
{

/** Per-worker scratch for the batched suspicion scan. */
struct SuspectScratch
{
    std::vector<uint64_t> flips;    ///< [round][stab][word] planes.
    std::vector<uint64_t> evRing;   ///< Last `window` event planes.
};

/**
 * Offline leakage flagging, word-parallel: one bit per lane, any
 * group width. A lane is suspect when any stabilizer accumulates
 * `eventThreshold` detection events within a `window`-round span
 * (leaked qubits randomize their checks at ~50% per round, so
 * persistent activity is the leakage signature prior work keys on).
 * Event words are mostly zero at the rates of interest, so the
 * per-lane window counters are only touched on set bits.
 */
template <int NW>
void
suspectMaskBatched(const CircuitProgram &prog,
                   const std::vector<BatchMeasureRecordT<NW>> &record,
                   int num_lanes, const PostSelectOptions &options,
                   SuspectScratch &scratch,
                   uint64_t suspect[kMaxBatchWords])
{
    const int n_stabs = prog.numStabs;
    const int rounds = prog.rounds;
    const int nw = (num_lanes + 63) / 64;
    scratch.flips.assign((size_t)n_stabs * rounds * nw, 0);
    for (const auto &rec : record) {
        if (rec.stab >= 0 && !rec.finalData) {
            uint64_t *word =
                scratch.flips.data() +
                ((size_t)rec.round * n_stabs + rec.stab) * nw;
            for (int b = 0; b < nw; ++b)
                word[b] = (word[b] & ~laneWord(rec.mask, b)) |
                          laneWord(rec.flips, b);
        }
    }

    const int window = std::max(options.window, 1);
    scratch.evRing.assign((size_t)window * nw, 0);
    for (int b = 0; b < nw; ++b)
        suspect[b] = 0;
    for (int s = 0; s < n_stabs; ++s) {
        uint8_t counts[kMaxBatchLanes] = {0};
        std::fill(scratch.evRing.begin(), scratch.evRing.end(), 0);
        uint64_t prev[kMaxBatchWords] = {0};
        for (int r = 0; r < rounds; ++r) {
            const uint64_t *cur =
                scratch.flips.data() + ((size_t)r * n_stabs + s) * nw;
            uint64_t *ring = scratch.evRing.data() + (r % window) * nw;
            for (int b = 0; b < nw; ++b) {
                const uint64_t ev =
                    (cur[b] ^ prev[b]) & laneMask64(num_lanes - 64 * b);
                prev[b] = cur[b];
                uint64_t leaving = ring[b];
                ring[b] = ev;
                const int base = 64 * b;
                while (leaving) {
                    --counts[base + __builtin_ctzll(leaving)];
                    leaving &= leaving - 1;
                }
                uint64_t arriving = ev;
                while (arriving) {
                    const int l = base + __builtin_ctzll(arriving);
                    arriving &= arriving - 1;
                    if (++counts[l] >= options.eventThreshold)
                        suspect[b] |= uint64_t{1} << (l - base);
                }
            }
        }
    }
}

/** Per-worker decode and scan context. */
struct PostSelectContext
{
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    SuspectScratch suspect;
    std::unique_ptr<BatchDecoder> pipeline;
};

/** Tallies of one word-group, merged under the caller's mutex. */
struct GroupTally
{
    uint64_t errorsAll = 0;
    uint64_t kept = 0;
    uint64_t errorsKept = 0;
};

template <int NW>
GroupTally
runPostSelectGroup(const CircuitProgram &prog,
                   const ExperimentConfig &config,
                   const PostSelectOptions &options,
                   PostSelectContext &ctx, uint64_t first, int W)
{
    using Lane = LaneWord<NW>;
    const int nw = (W + 63) / 64;
    const Lane live = laneMaskOf<Lane>(W);

    BatchFrameSimulatorT<NW> sim(prog.numQubits, config.em, W,
                                 config.seed, first);
    sim.reserveRecord((size_t)prog.rounds * prog.numStabs +
                      prog.numData);
    sim.executeProgram(prog);

    uint64_t suspect[kMaxBatchWords];
    suspectMaskBatched(prog, sim.record(), W, options, ctx.suspect,
                       suspect);
    ctx.extractor.extract(prog.detectors, prog.rounds, sim.record(), W,
                          ctx.syndrome);
    uint64_t predictions[kMaxBatchWords];
    ctx.pipeline->decodeBatch(ctx.syndrome, predictions);

    GroupTally tally;
    for (int b = 0; b < nw; ++b) {
        const uint64_t live_b = laneWord(live, b);
        const uint64_t errors =
            (predictions[b] ^ ctx.syndrome.observableWords[b]) &
            live_b;
        tally.errorsAll += (uint64_t)__builtin_popcountll(errors);
        tally.kept +=
            (uint64_t)__builtin_popcountll(~suspect[b] & live_b);
        tally.errorsKept +=
            (uint64_t)__builtin_popcountll(errors & ~suspect[b]);
    }
    return tally;
}

} // namespace

PostSelectResult
runPostSelectedExperiment(const RotatedSurfaceCode &code,
                          const ExperimentConfig &config,
                          const PostSelectOptions &options)
{
    // The experiment supplies the program, its detector model and the
    // configured decoder; post-selection always decodes.
    ExperimentConfig decoding = config;
    decoding.decode = true;
    const MemoryExperiment exp(code, decoding);
    const CircuitProgram &prog = *exp.program();

    const uint64_t width = std::min<uint64_t>(
        std::max<unsigned>(config.batchWidth, 1),
        (unsigned)kMaxBatchLanes);
    const auto spans = batchGroupSpans(config.shots, width);

    const unsigned workers =
        resolveThreadCount(spans.size(), config.threads);
    std::vector<PostSelectContext> contexts(workers);
    for (auto &ctx : contexts)
        ctx.pipeline = std::make_unique<BatchDecoder>(
            *exp.decoder(), config.syndromeCache);

    PostSelectResult result;
    result.shots = config.shots;

    std::mutex merge;
    parallelForWorkers(
        spans.size(),
        [&](unsigned worker, uint64_t group) {
            PostSelectContext &ctx = contexts[worker];
            const auto [first, W] = spans[group];

            GroupTally tally;
            if (width <= 64)
                tally = runPostSelectGroup<1>(prog, config, options,
                                              ctx, first, W);
            else if (width <= 256)
                tally = runPostSelectGroup<4>(prog, config, options,
                                              ctx, first, W);
            else
                tally = runPostSelectGroup<8>(prog, config, options,
                                              ctx, first, W);

            std::lock_guard<std::mutex> lock(merge);
            result.logicalErrorsAll += tally.errorsAll;
            result.kept += tally.kept;
            result.logicalErrorsKept += tally.errorsKept;
        },
        config.threads);
    return result;
}

} // namespace qec
