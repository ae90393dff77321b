/**
 * @file
 * Component-granular decode and sliding-window streaming tests:
 *
 *  1. Decomposition: ComponentGraph::split is a coarsening of the true
 *     <= 2h hop connectivity (never splits a close pair) and every
 *     cross-component defect pair really is > 2h hops apart
 *     (brute-force BFS distances check both directions).
 *  2. Composition / cache identity: the component pipeline's verdicts
 *     pin the whole-shot decode shot for shot, replays from the
 *     per-component cache included, and canonical (time-translated)
 *     hits replay the bulk-shifted copy of a component.
 *  3. Sliding-window streaming: verdicts are bit-identical to the
 *     full-history decode at every (windowLength, windowSlideLength)
 *     shape for the union-find decoder, and for MWPM via total
 *     deferral; window boundary cases (L = S, L >= rows, tiny L)
 *     behave; the windowed steady state allocates nothing.
 *  4. Cross-width: batched experiments at widths 64 / 256 / 512 keep
 *     one verdict fingerprint with caching / components / windowing
 *     on and off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <numeric>
#include <set>
#include <vector>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "decoder/batch_decoder.h"
#include "decoder/component_decoder.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find_decoder.h"
#include "defects.h"
#include "exp/memory_experiment.h"
#include "frame_simulator.h"
#include "memory_circuit.h"

// ---------------------------------------------------------------------
// Global allocation counter (same instrumentation as
// test_decode_pipeline.cpp): every operator new in this binary bumps
// it, so tests can assert a code region allocates nothing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qec
{
namespace
{

/** Sample realistic defect sets from a memory circuit. */
std::vector<std::vector<int>>
sampleDefectSets(const RotatedSurfaceCode &code, int rounds, int count,
                 double p, uint64_t seed)
{
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    FrameSimulator sim(code.numQubits(), ErrorModel::standard(p),
                       Rng(seed));
    std::vector<std::vector<int>> shots;
    for (int i = 0; i < count; ++i) {
        sim.run(circuit);
        shots.push_back(
            extractDefects(code, Basis::Z, rounds, sim.record())
                .defects);
    }
    return shots;
}

TEST(ComponentDecode, SplitBracketsBruteForceComponents)
{
    // Brute-force reference: group defects by hop distance <= 2h
    // (transitively). The split must (a) never separate such a pair —
    // it is a coarsening — and (b) certify every cross-component pair
    // > 2h hops apart, verified against the exact BFS distance.
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    ComponentGraph graph(dem, 1e-3);
    const int h = 2;

    auto shots = sampleDefectSets(code, rounds, 400, 3e-3, 901);
    DecodeWorkspace ws;
    int multi_component_shots = 0;
    for (const auto &defects : shots) {
        if (defects.size() < 2)
            continue;
        const int m = graph.split(defects.data(), defects.size(), h,
                                  ws);
        ASSERT_GE(m, 1);
        if (m > 1)
            ++multi_component_shots;

        // Component id per defect, from the split's sublists.
        std::map<int, int> comp_of;
        for (int c = 0; c < m; ++c)
            for (int k = ws.compOffsets[(size_t)c];
                 k < ws.compOffsets[(size_t)c + 1]; ++k)
                comp_of[ws.compDefects[(size_t)k]] = c;

        for (size_t i = 0; i < defects.size(); ++i) {
            for (size_t j = i + 1; j < defects.size(); ++j) {
                const int dist = graph.hopDistance(
                    defects[i], defects[j], 2 * h);
                const bool same =
                    comp_of[defects[i]] == comp_of[defects[j]];
                if (dist <= 2 * h) {
                    // Directly close pairs must share a component.
                    EXPECT_TRUE(same)
                        << defects[i] << " and " << defects[j]
                        << " are " << dist << " hops apart but split";
                } else if (!same) {
                    // Cross-component certification is the exactness
                    // contract: > 2h hops, here re-proved by BFS.
                    EXPECT_GT(dist, 2 * h);
                }
            }
        }
    }
    // The sampled set must actually exercise multi-component shots.
    EXPECT_GT(multi_component_shots, 5);
}

TEST(ComponentDecode, CompositionPinsWholeShotVerdicts)
{
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);

    BatchDecodeOptions options;
    options.components.enabled = true;
    BatchDecoder pipeline(decoder, options, graph);

    auto shots = sampleDefectSets(code, rounds, 400, 2e-3, 902);
    for (const auto &defects : shots) {
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  decoder.decode(defects));
    }
    EXPECT_GT(pipeline.stats().componentsTotal, 0u);
    // Every split component is answered by the cache or a decode;
    // guard-merged groups re-decode on top, so >= not ==.
    EXPECT_GE(pipeline.stats().componentCacheHits +
                  pipeline.stats().componentsDecoded,
              pipeline.stats().componentsTotal);
}

TEST(ComponentDecode, CacheHitReplaysIdenticalVerdict)
{
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);

    BatchDecodeOptions options;
    options.components.enabled = true;
    // Whole-syndrome dedup off, so repeats exercise the COMPONENT
    // cache rather than being absorbed one stage earlier.
    options.cache.enabled = false;
    BatchDecoder pipeline(decoder, options, graph);

    auto shots = sampleDefectSets(code, rounds, 200, 2e-3, 903);
    // First pass decodes, second pass replays.
    for (int pass = 0; pass < 2; ++pass)
        for (const auto &defects : shots)
            ASSERT_EQ(
                pipeline.decodeOne(defects.data(), defects.size()),
                decoder.decode(defects));
    EXPECT_GT(pipeline.componentCacheStats().hits, 0u);
}

TEST(ComponentDecode, CanonicalKeyReplaysTimeTranslatedComponent)
{
    RotatedSurfaceCode code(5);
    const int rounds = 12;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);
    ASSERT_TRUE(graph->bulkValid());

    BatchDecodeOptions options;
    options.components.enabled = true;
    options.cache.enabled = false;
    BatchDecoder pipeline(decoder, options, graph);

    // A measurement-error defect pair deep in the bulk, then the same
    // pair shifted by whole rounds: the canonical key must replay the
    // first decode at every placement the margin check accepts.
    const int spr = graph->stabsPerRound();
    const int mid = (graph->bulkLo() + graph->bulkHi()) / 2;
    const int stab = spr / 2;
    int replayed = 0;
    for (int shift = 0; shift < 3; ++shift) {
        const int base = (mid + shift) * spr + stab;
        const std::vector<int> defects = {base, base + spr};
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  decoder.decode(defects));
        if (pipeline.componentCacheStats().canonicalHits > 0)
            ++replayed;
    }
    EXPECT_GT(pipeline.componentCacheStats().canonicalHits, 0u);
    EXPECT_GT(replayed, 0);
}

TEST(ComponentDecode, WindowedVerdictsBitIdenticalAcrossShapes)
{
    RotatedSurfaceCode code(5);
    const int rounds = 15;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    ASSERT_GE(decoder.windowCommitBound(), 0);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);
    const int rows = graph->rows();

    auto shots = sampleDefectSets(code, rounds, 300, 3e-3, 904);
    const std::pair<int, int> shapes[] = {
        {5, 2}, {5, 5}, {7, 3}, {10, 5}, {10, 2}, {rows - 1, 4}};
    for (const auto &[L, S] : shapes) {
        BatchDecodeOptions options;
        options.windowLength = L;
        options.windowSlideLength = S;
        BatchDecoder pipeline(decoder, options, graph);
        ASSERT_TRUE(pipeline.windowed());
        for (const auto &defects : shots) {
            ASSERT_EQ(
                pipeline.decodeOne(defects.data(), defects.size()),
                decoder.decode(defects))
                << "L=" << L << " S=" << S;
        }
        EXPECT_GT(pipeline.stats().windows, 0u) << "L=" << L;
        // Real streaming: early commits happen, not just the final
        // unconditional window.
        EXPECT_GT(pipeline.stats().windowCommits, 0u) << "L=" << L;
        EXPECT_GT(pipeline.stats().windowDeferrals, 0u) << "L=" << L;
    }
}

TEST(ComponentDecode, WindowedBoundaryCases)
{
    RotatedSurfaceCode code(3);
    const int rounds = 9;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);
    const int rows = graph->rows();
    auto shots = sampleDefectSets(code, rounds, 150, 5e-3, 905);

    // windowLength >= rows degrades to the whole-history decode: the
    // window machinery must stay out of the way entirely.
    {
        BatchDecodeOptions options;
        options.windowLength = rows;
        options.windowSlideLength = 1;
        BatchDecoder pipeline(decoder, options, graph);
        EXPECT_FALSE(pipeline.windowed());
        for (const auto &defects : shots)
            ASSERT_EQ(
                pipeline.decodeOne(defects.data(), defects.size()),
                decoder.decode(defects));
        EXPECT_EQ(pipeline.stats().windows, 0u);
    }
    // Tumbling windows (S = L) and the smallest useful window.
    for (const auto &[L, S] :
         {std::pair<int, int>{4, 4}, std::pair<int, int>{2, 1}}) {
        BatchDecodeOptions options;
        options.windowLength = L;
        options.windowSlideLength = S;
        BatchDecoder pipeline(decoder, options, graph);
        ASSERT_TRUE(pipeline.windowed());
        for (const auto &defects : shots)
            ASSERT_EQ(
                pipeline.decodeOne(defects.data(), defects.size()),
                decoder.decode(defects))
                << "L=" << L << " S=" << S;
    }
}

TEST(ComponentDecode, WindowedMwpmDefersEverythingAndStaysExact)
{
    // MWPM certifies no growth bound, so the windowed pipeline must
    // degenerate to one full-history decode per lane — exact, with
    // one commit and no cluster machinery.
    RotatedSurfaceCode code(3);
    const int rounds = 9;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_LT(decoder.windowCommitBound(), 0);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);

    BatchDecodeOptions options;
    options.windowLength = 4;
    options.windowSlideLength = 2;
    BatchDecoder pipeline(decoder, options, graph);
    ASSERT_TRUE(pipeline.windowed());

    auto shots = sampleDefectSets(code, rounds, 150, 5e-3, 906);
    uint64_t nonzero = 0;
    for (const auto &defects : shots) {
        if (!defects.empty())
            ++nonzero;
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  decoder.decode(defects));
    }
    EXPECT_EQ(pipeline.stats().windows + pipeline.stats().cacheHits,
              nonzero);
    EXPECT_EQ(pipeline.stats().windowDeferrals, 0u);
}

TEST(ComponentDecode, WindowedDecodeIsAllocationFreeInSteadyState)
{
    RotatedSurfaceCode code(5);
    const int rounds = 12;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);

    BatchDecodeOptions options;
    options.windowLength = 6;
    options.windowSlideLength = 3;
    BatchDecoder pipeline(decoder, options, graph);
    ASSERT_TRUE(pipeline.windowed());

    auto shots = sampleDefectSets(code, rounds, 40, 3e-3, 907);
    // Warmup sizes the workspace, the window scratch, and the dedup
    // cache's probe path.
    for (const auto &defects : shots)
        pipeline.decodeOne(defects.data(), defects.size());

    const uint64_t before = g_allocations.load();
    bool sink = false;
    for (int repeat = 0; repeat < 3; ++repeat)
        for (const auto &defects : shots)
            sink ^= pipeline.decodeOne(defects.data(), defects.size());
    EXPECT_EQ(g_allocations.load(), before)
        << "windowed decode allocated on the steady-state path (sink="
        << sink << ")";
}

TEST(ComponentDecode, WindowedFootprintBoundedByWindowNotRunLength)
{
    // Streaming contract: the decoder workspace after long windowed
    // runs must not scale with the run length — decode a 4x longer
    // history through the same window shape and compare footprints.
    RotatedSurfaceCode code(3);
    const int short_rounds = 12;
    const int long_rounds = 48;
    const double p = 3e-3;

    auto footprint_for = [&](int rounds) {
        DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
        UnionFindDecoder decoder(dem, p);
        auto graph = std::make_shared<const ComponentGraph>(dem, p);
        BatchDecodeOptions options;
        options.windowLength = 6;
        options.windowSlideLength = 3;
        BatchDecoder pipeline(decoder, options, graph);
        auto shots = sampleDefectSets(code, rounds, 60, p, 908);
        for (const auto &defects : shots)
            pipeline.decodeOne(defects.data(), defects.size());
        EXPECT_GT(pipeline.stats().windows, 0u);
        return pipeline.workspace().footprintBytes();
    };
    const size_t short_fp = footprint_for(short_rounds);
    const size_t long_fp = footprint_for(long_rounds);
    ASSERT_GT(short_fp, 0u);
    // Per-vertex workspace arrays scale with the lattice (detector
    // count grows 4x); the windowed decode state on top must not add
    // a run-length-proportional term beyond that.
    EXPECT_LE(long_fp, short_fp * (size_t)(long_rounds + 1) /
                               (size_t)(short_rounds + 1) +
                           ((size_t)1 << 16));
}

TEST(ComponentDecode, CrossWidthFingerprintWithStagesOnAndOff)
{
    // Widths 64 / 256 / 512 must produce ONE verdict fingerprint, and
    // that fingerprint must not move when the dedup cache, the
    // component stage, or the sliding window is toggled — all three
    // are exactness-preserving by contract.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 6;
    cfg.shots = 1200;
    cfg.seed = 909;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.threads = 1;

    auto fingerprint = [&](unsigned width, bool components,
                           bool window) {
        ExperimentConfig c = cfg;
        c.batchWidth = width;
        c.componentDecode.enabled = components;
        if (window) {
            c.windowLength = 4;
            c.windowSlideLength = 2;
        }
        MemoryExperiment exp(code, c);
        ExperimentResult r = exp.run(PolicyKind::Eraser);
        if (window) {
            EXPECT_GT(r.windowsDecoded, 0u);
        }
        return r.verdictFingerprint;
    };

    const uint64_t base = fingerprint(64, false, false);
    EXPECT_EQ(fingerprint(256, false, false), base);
    EXPECT_EQ(fingerprint(512, false, false), base);
    EXPECT_EQ(fingerprint(64, true, false), base);
    EXPECT_EQ(fingerprint(512, true, false), base);
    EXPECT_EQ(fingerprint(64, false, true), base);
    EXPECT_EQ(fingerprint(256, true, true), base);
}

TEST(ComponentDecode, WindowedExperimentMatchesFullHistoryLer)
{
    // The streaming-decode demo contract: a windowed experiment run
    // reproduces the full-history run's logical-error fingerprint
    // while actually decoding in windows.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 24;   // rounds >> 3d: a long stream for d = 3
    cfg.shots = 600;
    cfg.seed = 910;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.batchWidth = 64;
    cfg.threads = 1;

    MemoryExperiment full(code, cfg);
    ExperimentResult full_result = full.run(PolicyKind::Eraser);

    cfg.windowLength = 8;
    cfg.windowSlideLength = 4;
    MemoryExperiment windowed(code, cfg);
    ExperimentResult win_result = windowed.run(PolicyKind::Eraser);

    EXPECT_EQ(win_result.verdictFingerprint,
              full_result.verdictFingerprint);
    EXPECT_EQ(win_result.logicalErrors, full_result.logicalErrors);
    EXPECT_GT(win_result.windowsDecoded, 0u);
}

} // namespace
} // namespace qec
