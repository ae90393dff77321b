/**
 * @file
 * ComponentGraph distance bounds and sliding-window streaming tests:
 *
 *  1. Distance bounds: ComponentGraph's per-pair lower bound never
 *     exceeds the true hop distance (brute-force BFS), and its
 *     quotient-distance table is pinned by digest.
 *  2. Sliding-window streaming: verdicts are bit-identical to the
 *     full-history decode at every (windowLength, windowSlideLength)
 *     shape for the union-find decoder, and for MWPM via total
 *     deferral; window boundary cases (L = S, L >= rows, tiny L)
 *     behave; the windowed steady state allocates nothing.
 *  3. Cross-width: batched experiments at widths 64 / 256 / 512 keep
 *     one verdict fingerprint with caching and windowing on and off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
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

/** Hop distances from `src` over the DEM's positive-probability
 *  detector-detector edges (boundary edges excluded); -1 when
 *  unreachable. */
std::vector<int>
bfsHopDistances(const DetectorModel &dem, double p, int src)
{
    const int n = dem.numDetectors();
    std::vector<std::vector<int>> adj((size_t)n);
    for (const DemEdge &edge : dem.edges) {
        if (edge.b == kBoundary || edge.probability(p) <= 0.0)
            continue;
        adj[(size_t)edge.a].push_back(edge.b);
        adj[(size_t)edge.b].push_back(edge.a);
    }
    std::vector<int> dist((size_t)n, -1);
    std::vector<int> queue = {src};
    dist[(size_t)src] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        for (int w : adj[(size_t)u]) {
            if (dist[(size_t)w] >= 0)
                continue;
            dist[(size_t)w] = dist[(size_t)u] + 1;
            queue.push_back(w);
        }
    }
    return dist;
}

TEST(ComponentGraph, LowerBoundsNeverExceedHopDistance)
{
    // The window stage commits a cluster only on these bounds, so a
    // bound above the true hop distance would commit too early. All
    // pairs at d = 3; every 7th source at d = 5 and 7. The digests
    // (FNV-1a over every entry) pin the quotient-distance table, which
    // deduplicating the stab pairs before the BFS must not move.
    const double p = 1e-3;
    const struct
    {
        int d;
        Basis basis;
        uint64_t digest;
    } cases[] = {
        {3, Basis::Z, 0x578d717fb4a9872dull},
        {3, Basis::X, 0x9065728d97ec40a9ull},
        {5, Basis::Z, 0xc29bcc43ff992ddfull},
        {5, Basis::X, 0x92503f96a3e339e7ull},
        {7, Basis::Z, 0xb4ff180b7ef4188full},
        {7, Basis::X, 0xd15384c187dc99e7ull},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(testing::Message() << "d=" << c.d << " basis="
                                        << (int)c.basis);
        RotatedSurfaceCode code(c.d);
        const DetectorModel dem =
            buildDetectorModel(code, 3 * c.d, c.basis);
        const ComponentGraph graph(dem, p);

        const int stabs = dem.stabsPerRound;
        uint64_t digest = 1469598103934665603ull;
        for (int a = 0; a < stabs; ++a)
            for (int b = 0; b < stabs; ++b)
                digest = (digest ^ (uint64_t)(uint32_t)
                                       graph.quotientDistance(a, b)) *
                         1099511628211ull;
        EXPECT_EQ(digest, c.digest);

        const int n = dem.numDetectors();
        const int stride = c.d == 3 ? 1 : 7;
        uint64_t checked = 0;
        for (int a = 0; a < n; a += stride) {
            const std::vector<int> dist = bfsHopDistances(dem, p, a);
            for (int b = 0; b < n; ++b) {
                if (dist[(size_t)b] < 0)
                    continue;
                ASSERT_LE(graph.defectDistanceLowerBound(a, b),
                          dist[(size_t)b])
                    << a << " -> " << b;
                ++checked;
            }
        }
        EXPECT_GT(checked, (uint64_t)n);
    }
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
    // that fingerprint must not move when the sliding window is
    // toggled — it is exactness-preserving by contract.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 6;
    cfg.shots = 1200;
    cfg.seed = 909;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.threads = 1;

    auto fingerprint = [&](unsigned width, bool window) {
        ExperimentConfig c = cfg;
        c.batchWidth = width;
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

    const uint64_t base = fingerprint(64, false);
    EXPECT_EQ(fingerprint(256, false), base);
    EXPECT_EQ(fingerprint(512, false), base);
    EXPECT_EQ(fingerprint(64, true), base);
    EXPECT_EQ(fingerprint(256, true), base);
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
