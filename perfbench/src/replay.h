/**
 * @file
 * The benchmark's traced replay: a word-group driver of its own that
 * re-executes a finished sweep's (point, policy) work through the
 * library's public layer entry points and times every call into them.
 *
 * Spans are recorded around the calls, never inside the library:
 *
 *   setup   CircuitCompiler::surfaceMemoryChecked (with the lattice and
 *           swap lookup), buildDetectorModel, the decoder constructor,
 *           the ComponentGraph constructor;
 *   group   BatchFrameSimulatorT construction + executeProgramRound
 *           (sim.round), executeProgramFinal (sim.final), the policy /
 *           BatchEraserController nextRound calls (core.controller),
 *           SparseSyndromeExtractor::extract, BatchDecoder::decodeBatch,
 *           and Decoder::decodeSparse through a timing forwarder.
 *
 * The driver's own time inside a group (schedule masks, syndrome
 * gather, event planes, accounting, per-lane observation scatter) is
 * the group span minus its children. Spans are aggregated per name in
 * memory and reported when the run ends.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/swap_lookup.h"
#include "decoder/component_decoder.h"
#include "decoder/decoder_base.h"
#include "decoder/detector_model.h"
#include "exp/sweep_runner.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Span totals (wall seconds) and counters of one traced run. */
struct LayerTrace
{
    // Setup spans, summed over every component the workload builds.
    double compileS = 0.0;
    double demBuildS = 0.0;
    uint64_t demEdges = 0;
    double decoderBuildS = 0.0;
    double componentGraphS = 0.0;

    // Execution spans, summed over every replayed word-group.
    double groupS = 0.0;
    double simRoundS = 0.0;
    double simFinalS = 0.0;
    double controllerS = 0.0;
    double extractS = 0.0;
    double decodeBatchS = 0.0;
    double decodeSparseS = 0.0;

    uint64_t shots = 0;
    uint64_t shotRounds = 0;
    uint64_t lrcs = 0;
    /** Divergent LRC-slot tails replayed, and the (64-lane block,
     *  round) slots they were replayed in. */
    uint64_t tails = 0;
    uint64_t blockRounds = 0;
    uint64_t decodeCalls = 0;
    uint64_t decodeDefects = 0;
    /** Lanes the decode pipeline saw, skipped as zero-defect, answered
     *  from the dedup cache, and decoded past both. */
    uint64_t pipelineLanes = 0;
    uint64_t zeroDefectLanes = 0;
    uint64_t cacheHits = 0;
    uint64_t decodedLanes = 0;
};

/**
 * Decoder forwarder that times decodeSparse and passes the
 * composition and streaming probes through unchanged, so the pipeline
 * takes exactly the path it takes on the wrapped decoder.
 * Single-threaded: one forwarder per replayed (point, policy).
 */
class TimedDecoder : public qec::Decoder
{
  public:
    explicit TimedDecoder(const qec::Decoder &inner) : inner_(inner) {}

    bool
    decodeSparse(const int *defects, size_t count,
                 qec::DecodeWorkspace &workspace) const override
    {
        const auto start = Clock::now();
        const bool verdict =
            inner_.decodeSparse(defects, count, workspace);
        seconds_ += secondsSince(start);
        ++calls_;
        defects_ += count;
        return verdict;
    }

    int
    componentSlackHops(const int *defects, size_t count) const override
    {
        return inner_.componentSlackHops(defects, count);
    }

    int
    windowCommitBound() const override
    {
        return inner_.windowCommitBound();
    }

    double seconds() const { return seconds_; }
    uint64_t calls() const { return calls_; }
    uint64_t defects() const { return defects_; }

  private:
    const qec::Decoder &inner_;
    mutable double seconds_ = 0.0;
    mutable uint64_t calls_ = 0;
    mutable uint64_t defects_ = 0;
};

/** The counters the correctness gate compares for one (point,
 *  policy): every result field the untraced run fills per shot. */
struct ReplayResult
{
    uint64_t shots = 0;
    uint64_t logicalErrors = 0;
    uint64_t fingerprint = 0;
    uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
    uint64_t lrcsScheduled = 0;
    std::vector<double> lprData;
    std::vector<double> lprParity;
};

/** Empty when equal, else the first field that differs. */
std::string compareResult(const ReplayResult &replayed,
                          const qec::ExperimentResult &reference);

/** One point's components, built with timed spans. */
struct ReplayPoint
{
    qec::SweepPoint point;
    const qec::RotatedSurfaceCode *code = nullptr;
    std::shared_ptr<const qec::CircuitProgram> program;
    std::shared_ptr<const qec::DetectorModel> dem;
    std::shared_ptr<const qec::Decoder> decoder;
    std::shared_ptr<const qec::ComponentGraph> graph;
    std::unique_ptr<qec::SwapLookupTable> lookup;
};

/**
 * Builds replay points with the same sharing the sweep's build cache
 * applies (lattices per distance, programs per shape, detector models
 * per (distance, rounds, basis), decoders per (model, kind, p)) and,
 * as each MemoryExperiment does, a swap lookup and a ComponentGraph
 * per point. Every build is timed into the trace's setup spans.
 */
class ReplayBuilder
{
  public:
    /** Throws std::runtime_error when a program fails its checks. */
    ReplayPoint build(const qec::SweepPoint &point,
                      const qec::DecoderOptions &decoder_options,
                      LayerTrace &trace);

  private:
    std::map<int, std::unique_ptr<qec::RotatedSurfaceCode>> codes_;
    std::map<std::tuple<int, int, int, int>,
             std::shared_ptr<const qec::CircuitProgram>>
        programs_;
    std::map<std::tuple<int, int, int>,
             std::shared_ptr<const qec::DetectorModel>>
        dems_;
    std::map<std::tuple<int, int, int, int, double>,
             std::shared_ptr<const qec::Decoder>>
        decoders_;
};

/**
 * Replay the first `shots` shots of one (point, policy) through the
 * traced word-group driver: the same word-group decomposition, seeds
 * and layer calls the library's session makes. Throws
 * std::runtime_error on a policy schedule the library would refuse.
 */
ReplayResult replayPolicy(const ReplayPoint &rp,
                          const qec::SweepPolicy &policy,
                          uint64_t shots, LayerTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
