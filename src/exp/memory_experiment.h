/**
 * @file
 * Memory (state-preservation) experiment harness.
 *
 * Drives the full closed loop of the paper: execute a syndrome
 * extraction round, hand the syndrome to the scheduling policy, let it
 * adapt the next round's schedule (Fig. 9), and finally decode the
 * whole shot with the leakage-unaware MWPM decoder. Collects every
 * metric used in the evaluation: logical error rate (Eq. 4), leakage
 * population ratio (Eq. 5), speculation accuracy / FPR / FNR
 * (Fig. 16) and LRCs per round (Table 4).
 */

#ifndef QEC_EXP_MEMORY_EXPERIMENT_H
#define QEC_EXP_MEMORY_EXPERIMENT_H

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "code/circuit_ir.h"
#include "code/rotated_surface_code.h"
#include "core/policies.h"
#include "core/swap_lookup.h"
#include "decoder/batch_decoder.h"
#include "decoder/component_decoder.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/syndrome_cache.h"
#include "decoder/union_find_decoder.h"
#include "sim/error_model.h"

namespace qec
{

/** Selectable decoder implementations. */
enum class DecoderKind
{
    Mwpm,
    UnionFind,
};

/** Everything needed to run one experiment configuration. */
struct ExperimentConfig
{
    int rounds = 0;
    Basis basis = Basis::Z;
    /**
     * Which circuit family the harness compiles and replays (see
     * code/circuit_ir.h). SurfaceMemory is the paper's protocol;
     * RepetitionMemory is a pure compiler path — same engine, same
     * decode pipeline, no lattice anywhere — protecting the Z basis
     * only.
     */
    CircuitFamily family = CircuitFamily::SurfaceMemory;
    ErrorModel em = ErrorModel::standard(1e-3);
    RemovalProtocol protocol = RemovalProtocol::SwapLrc;
    uint64_t shots = 1000;
    uint64_t seed = 1;
    /** Decode and count logical errors (slowest part; LPR-only
     *  studies turn it off). */
    bool decode = true;
    /** Which decoder to use (the paper uses MWPM; Union-Find is the
     *  faster comparison point). */
    DecoderKind decoderKind = DecoderKind::Mwpm;
    /** Collect the per-round leakage population series. */
    bool trackLpr = false;
    unsigned threads = 0;
    /**
     * Shots packed per simulator word-group (1..512; 0 counts as 1).
     * Every width replays the compiled program on the bit-packed
     * batch engine. Widths up to 64 use one plane word; widths above
     * 64 run the SIMD multi-word engine (64 lanes per plane word, up
     * to 8 words). Every 64-lane block keeps its own noise streams,
     * so 256- and 512-wide runs are bit-identical to the
     * corresponding 64-wide runs; widths that are not a multiple of
     * 64 cut the blocks differently and draw different streams.
     * 256/512 are the throughput sweet spots on AVX2/AVX-512 hosts
     * (see recommendedBatchWidth()). The default is fixed rather than
     * host-dependent because checkpoint plan identity includes it.
     */
    unsigned batchWidth = 64;
    DecoderOptions decoderOptions;
    /**
     * Drive the batched engine's decode step through the BatchDecoder
     * pipeline (sparse syndromes, zero-defect fast path, dedup cache,
     * reusable workspaces). Verdict-identical to the per-shot decode
     * loop it replaces (pinned by the golden corpus); off runs that
     * loop, which hands every shot to the decoder.
     */
    bool batchDecode = true;
    /** Dedup-cache sizing for the batched decode pipeline. */
    SyndromeCacheOptions syndromeCache;
    /** No settable value; perfbench/src/replay.cpp:481 reads it.
     *  Removed with ROADMAP item 1. */
    ComponentDecodeOptions componentDecode;
    /**
     * Sliding-window streaming decode on the batched pipeline: decode
     * each shot's rounds in windows of this many detector rows
     * (0 = whole-history decode, the default), committing whole grown
     * clusters once they are provably beyond the decoder's certified
     * growth bound from every unseen row, and deferring the rest
     * (see batch_decoder.h). Verdicts are bit-identical to the
     * full-history decode at every window shape; sizing only trades
     * the deferral rate against peak decoder state, which is bounded
     * by the window content rather than the run length.
     */
    int windowLength = 0;
    /** Rows the window advances per step (1..windowLength). */
    int windowSlideLength = 0;
};

/** Aggregated outcome of an experiment. */
struct ExperimentResult
{
    std::string policy;
    uint64_t shots = 0;
    uint64_t logicalErrors = 0;

    /** Per-(data qubit, round) scheduling decision counters. */
    uint64_t tp = 0;
    uint64_t fp = 0;
    uint64_t tn = 0;
    uint64_t fn = 0;

    uint64_t lrcsScheduled = 0;
    uint64_t roundsTotal = 0;

    /** Per-round leaked-qubit count sums (divide by shots). */
    std::vector<double> lprDataSum;
    std::vector<double> lprParitySum;

    int numDataQubits = 0;
    int numParityQubits = 0;

    /** Batched decode pipeline counters (zero with batchDecode off). */
    uint64_t decodedShots = 0;        ///< Shots that ran a real decode.
    uint64_t zeroDefectShots = 0;     ///< Shots skipped (no defects).
    uint64_t syndromeCacheHits = 0;   ///< Shots replayed from cache.
    uint64_t windowsDecoded = 0;      ///< Sliding windows decoded.

    /**
     * Order-independent XOR of a per-(shot id, logical-error bit)
     * mix, accumulated on every decoded path at any thread count.
     * Two runs of the same shot set have equal fingerprints iff every
     * individual shot's verdict matches — a strictly stronger check
     * than comparing logicalErrors counts, which compensating flips
     * leave unchanged (the golden corpus pins it across widths and
     * decode stages). Zero when decoding is off.
     */
    uint64_t verdictFingerprint = 0;

    double ler() const;
    /** "<1/shots" string when no error was observed. */
    std::string lerString() const;
    double speculationAccuracy() const;
    double falsePositiveRate() const;
    double falseNegativeRate() const;
    double avgLrcsPerRound() const;
    /** Dedup-cache hit rate over cache-eligible (nonzero) shots. */
    double syndromeCacheHitRate() const;
    /** Leakage population ratio at round r (Eq. 5). */
    double lprTotal(int round) const;
    double lprData(int round) const;
    double lprParity(int round) const;

    /**
     * Accumulate another (partial) result of the same experiment into
     * this one. Counters and LPR sums add, the verdict fingerprint
     * XORs, and the LPR series is widened to the longer of the two —
     * so merging is commutative and associative over any partition of
     * a shot set: LPR sums are integer-valued counts (exact in double
     * up to 2^53) and everything else is integer adds or XOR.
     * The policy name and lattice dimensions are adopted from the
     * first non-empty operand. ExperimentSession::runChunk returns
     * partials designed to be combined with this.
     */
    ExperimentResult &merge(const ExperimentResult &other);
};

/**
 * Recoverable validation of everything in an ExperimentConfig that
 * the harness can reject up front: round count, batch width range,
 * and the sliding-window shape (windowSlideLength must be in
 * [1, windowLength] whenever windowing is enabled — a zero slide or a
 * slide longer than the window would otherwise misbehave deep inside
 * decodeWindowed). The MemoryExperiment and ExperimentSession
 * constructors panic on a config this rejects (documented
 * precondition), so recoverable callers — SweepRunner, services,
 * CLIs — validate first and surface the Status.
 */
Status validateExperimentConfig(const ExperimentConfig &config);

/**
 * validateExperimentConfig plus the policy's family rule: the built-in
 * policies other than Never schedule surface-code (stab, data) pairs,
 * so they need CircuitFamily::SurfaceMemory. The policy-kind entry
 * points (MemoryExperiment::run(PolicyKind), ExperimentSession's
 * PolicyKind constructor) panic on a pair this rejects (documented
 * precondition); SweepPlan::validate applies it to every built-in
 * policy of every point.
 */
Status validateExperimentConfig(const ExperimentConfig &config,
                                PolicyKind kind);

/**
 * Compile the circuit program of one experiment shape through the
 * checked entry points (validate() plus the full IrAnalyzer pass
 * stack): the family's compiler, and for the surface family the LRC
 * tail kind of `protocol` (DQLR or swap-LRC). An Error-severity
 * program comes back as a non-OK Status. MemoryExperiment and the
 * sweep's build cache both compile through it.
 */
[[nodiscard]] StatusOr<CircuitProgram>
compileExperimentProgram(const RotatedSurfaceCode &code,
                         CircuitFamily family, int rounds, Basis basis,
                         RemovalProtocol protocol);

/**
 * The built-in decoder of `kind` over `dem` at physical error rate p
 * (`options` configure MWPM). MemoryExperiment's default decoder
 * factory and the sweep's build cache both build through it.
 */
std::unique_ptr<Decoder> makeDecoder(DecoderKind kind,
                                     const DetectorModel &dem, double p,
                                     const DecoderOptions &options);

/**
 * Word-group decomposition shared by every experiment driver: (first
 * shot, lane count) spans covering [0, shots) in groups of `width`
 * lanes, the last one ragged. Because noise streams are per 64-lane
 * block, a width that is a multiple of 64 cuts the same blocks as
 * width 64, so wide runs stay bit-identical to the width-64 runs.
 */
std::vector<std::pair<uint64_t, int>> batchGroupSpans(uint64_t shots,
                                                      uint64_t width);

/**
 * Builds a decoder for a detector model at physical error rate p;
 * lets callers swap in any Decoder implementation (the paper: "any
 * other decoder may be used as well").
 */
using DecoderFactory = std::function<std::unique_ptr<Decoder>(
    const DetectorModel &, double p)>;

/** Internal per-worker state (exp/experiment_internal.h). */
struct ExperimentShotStats;
struct ExperimentDecodeContext;
class ExperimentSession;

/**
 * One experiment configuration bound to a code; the detector model and
 * decoder are built once and shared by all policies and shots.
 *
 * The run entry points are thin wrappers over a one-chunk
 * ExperimentSession (exp/experiment_session.h); streaming consumers
 * (chunked execution, early stopping, sweep orchestration) construct
 * sessions directly.
 */
class MemoryExperiment
{
  public:
    MemoryExperiment(const RotatedSurfaceCode &code,
                     ExperimentConfig config);
    /** As above, but decode with a caller-supplied decoder (built by
     *  `decoder_factory` when config.decode is set). */
    MemoryExperiment(const RotatedSurfaceCode &code,
                     ExperimentConfig config,
                     const DecoderFactory &decoder_factory);
    /**
     * As above, but with a pre-built detector model and decoder shared
     * with other experiments of the same (distance, rounds, basis, p)
     * — the SweepRunner's cross-point cache. Decoders are stateless
     * (all mutable decode state lives in caller workspaces), so
     * sharing is safe across experiments and threads. Both may be
     * null when `config.decode` is false. A pre-compiled program of
     * the same (family, distance, rounds, basis, protocol) may be
     * shared the same way; when null, the constructor compiles one.
     * So may the SWAP lookup table of `code` (it depends on the code
     * alone); when null, lookup() builds one on first use.
     */
    MemoryExperiment(const RotatedSurfaceCode &code,
                     ExperimentConfig config,
                     std::shared_ptr<const DetectorModel> dem,
                     std::shared_ptr<const Decoder> decoder,
                     std::shared_ptr<const CircuitProgram> program =
                         nullptr,
                     std::shared_ptr<const SwapLookupTable> lookup =
                         nullptr);
    ~MemoryExperiment();

    /**
     * Run all shots under a policy kind. Precondition:
     * validateExperimentConfig(config(), kind) accepts the pair (only
     * Never runs off the surface-memory family); a rejected pair
     * panics.
     */
    ExperimentResult run(PolicyKind kind) const;

    /**
     * Run all shots with a custom policy factory: IR replay on the
     * batch engine in word-groups of config().batchWidth lanes.
     * Widths 256/512 reproduce the width-64 runs bit for bit
     * (per-block noise streams).
     */
    ExperimentResult run(const PolicyFactory &factory,
                         const std::string &name) const;

    const RotatedSurfaceCode & code() const { return code_; }
    const ExperimentConfig & config() const { return config_; }
    /** SWAP lookup table of code(): the one handed to the
     *  constructor, else built here on first use (thread-safe). */
    const SwapLookupTable & lookup() const;
    /** Decoder (null when config.decode is false). */
    const Decoder * decoder() const { return decoder_.get(); }
    /** Detector model (null when config.decode is false). */
    std::shared_ptr<const DetectorModel> detectorModel() const
    {
        return dem_;
    }
    /** The decoder handle, for sharing with sibling experiments. */
    std::shared_ptr<const Decoder> sharedDecoder() const
    {
        return decoder_;
    }
    /** The compiled circuit program the batched drivers replay
     *  (never null; validated at construction). Shareable with
     *  sibling experiments of the same shape. */
    std::shared_ptr<const CircuitProgram> program() const
    {
        return program_;
    }
    /** Row geometry for the sliding-window decode stage: null unless
     *  config.windowLength > 0. Stateless; shared across threads. */
    std::shared_ptr<const ComponentGraph> componentGraph() const
    {
        return componentGraph_;
    }

  private:
    friend class ExperimentSession;

    /** One word-group of `lanes` shots starting at `first_shot`, on
     *  the NW-plane-word engine (NW = 1/4/8). */
    template <int NW>
    void runGroupT(uint64_t first_shot, int lanes,
                   const PolicyFactory &factory,
                   ExperimentShotStats &stats,
                   ExperimentDecodeContext *ctx) const;
    /** Full pipeline options for per-worker BatchDecoders. */
    BatchDecodeOptions resolvedBatchOptions() const;
    ExperimentResult resultHeader(const std::string &name) const;
    /** Consumes `stats` (LPR vectors are moved out). */
    void mergeStats(ExperimentResult &result,
                    ExperimentShotStats &stats) const;

    const RotatedSurfaceCode &code_;
    ExperimentConfig config_;
    mutable std::once_flag lookupOnce_;
    mutable std::shared_ptr<const SwapLookupTable> lookup_;
    std::shared_ptr<const CircuitProgram> program_;
    std::shared_ptr<const DetectorModel> dem_;
    std::shared_ptr<const Decoder> decoder_;
    std::shared_ptr<const ComponentGraph> componentGraph_;
};

} // namespace qec

#endif // QEC_EXP_MEMORY_EXPERIMENT_H
