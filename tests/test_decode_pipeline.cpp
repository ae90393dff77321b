/**
 * @file
 * Batch-aware decode pipeline tests:
 *
 *  1. Differential: BatchDecoder (sparse extraction + zero-defect fast
 *     path + syndrome dedup cache + reusable workspace) pins its
 *     verdicts exactly against per-shot MwpmDecoder / UnionFindDecoder
 *     decode() calls, shot for shot, and the batched experiment's
 *     logical-error count is identical with the pipeline on and off.
 *  2. Workspace reuse: one workspace across >= 3 consecutive decode
 *     calls (the epoch-reset path) reproduces fresh-workspace verdicts.
 *  3. Zero-defect fast path: empty syndromes predict "no flip" and are
 *     counted without touching the decoder.
 *  4. Steady-state allocation freedom: the union-find decodeSparse
 *     performs zero heap allocations after warmup (global operator new
 *     is instrumented in this binary), and the MWPM workspace footprint
 *     stops growing.
 *  5. Sparse extraction: the flat BatchSyndrome agrees with the
 *     per-lane extraction and the scalar extractDefects ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "decoder/batch_decoder.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/syndrome_cache.h"
#include "decoder/union_find_decoder.h"
#include "defects.h"
#include "exp/memory_experiment.h"
#include "frame_simulator.h"
#include "memory_circuit.h"
#include "sim/batch_frame_simulator.h"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// it, so tests can assert a code region allocates nothing. The
// replacement operators pair malloc with free, which GCC's
// new/delete-mismatch heuristic cannot see through.
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

/** Sample realistic defect sets from a memory circuit (leak rate
 *  leak_fraction * p per injection site). */
std::vector<std::vector<int>>
sampleDefectSets(const RotatedSurfaceCode &code, int rounds, int count,
                 double p, uint64_t seed, double leak_fraction = 0.1)
{
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    ErrorModel em = ErrorModel::standard(p);
    em.leakFraction = leak_fraction;
    FrameSimulator sim(code.numQubits(), em, Rng(seed));
    std::vector<std::vector<int>> shots;
    for (int i = 0; i < count; ++i) {
        sim.run(circuit);
        shots.push_back(
            extractDefects(code, Basis::Z, rounds, sim.record())
                .defects);
    }
    return shots;
}

TEST(DecodePipeline, BatchDecoderPinsPerShotMwpmVerdicts)
{
    RotatedSurfaceCode code(5);
    const int rounds = 8;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    auto shots = sampleDefectSets(code, rounds, 200, 2e-3, 71);
    for (const auto &defects : shots) {
        const bool reference = decoder.decode(defects);
        const bool piped =
            pipeline.decodeOne(defects.data(), defects.size());
        ASSERT_EQ(piped, reference);
    }
    EXPECT_EQ(pipeline.stats().shots, 200u);
    EXPECT_EQ(pipeline.stats().zeroDefect + pipeline.stats().cacheHits +
                  pipeline.stats().decoded,
              200u);
}

TEST(DecodePipeline, BatchDecoderPinsPerShotUnionFindVerdicts)
{
    RotatedSurfaceCode code(5);
    const int rounds = 8;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    auto shots = sampleDefectSets(code, rounds, 200, 2e-3, 72);
    for (const auto &defects : shots) {
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  decoder.decode(defects));
    }
}

TEST(DecodePipeline, CacheReplayMatchesDecodeAndCounts)
{
    RotatedSurfaceCode code(3);
    const int rounds = 4;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    const std::vector<int> defects = {0, 1, 5};
    const bool reference = decoder.decode(defects);
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  reference);
    }
    EXPECT_EQ(pipeline.stats().decoded, 1u);
    EXPECT_EQ(pipeline.stats().cacheHits, 4u);
    EXPECT_NEAR(pipeline.stats().cacheHitRate(), 0.8, 1e-12);
}

TEST(DecodePipeline, BatchedExperimentIdenticalWithPipelineOnAndOff)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 300;
    cfg.seed = 4242;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.batchWidth = 64;

    cfg.batchDecode = true;
    MemoryExperiment on(code, cfg);
    auto with_pipeline = on.run(PolicyKind::Eraser);

    cfg.batchDecode = false;
    MemoryExperiment off(code, cfg);
    auto without_pipeline = off.run(PolicyKind::Eraser);

    EXPECT_EQ(with_pipeline.logicalErrors,
              without_pipeline.logicalErrors);
    EXPECT_EQ(with_pipeline.shots, without_pipeline.shots);
    // Pipeline counters only populate on the batched decode path.
    EXPECT_EQ(with_pipeline.decodedShots +
                  with_pipeline.zeroDefectShots +
                  with_pipeline.syndromeCacheHits,
              with_pipeline.shots);
    EXPECT_EQ(without_pipeline.decodedShots, 0u);
}

TEST(DecodePipeline, UnionFindExperimentIdenticalWithPipelineOnAndOff)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 300;
    cfg.seed = 77;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.batchWidth = 64;
    cfg.decoderKind = DecoderKind::UnionFind;

    cfg.batchDecode = true;
    MemoryExperiment on(code, cfg);
    cfg.batchDecode = false;
    MemoryExperiment off(code, cfg);
    EXPECT_EQ(on.run(PolicyKind::Eraser).logicalErrors,
              off.run(PolicyKind::Eraser).logicalErrors);
}

TEST(DecodePipeline, WorkspaceReuseMatchesFreshWorkspaces)
{
    // Epoch-reset reuse: >= 3 consecutive decode calls on one
    // workspace reproduce fresh-workspace verdicts for both decoders.
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder mwpm(dem, 1e-3);
    UnionFindDecoder uf(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 50, 2e-3, 73);
    DecodeWorkspace reused_mwpm;
    DecodeWorkspace reused_uf;
    int nonzero = 0;
    for (const auto &defects : shots) {
        if (!defects.empty())
            ++nonzero;
        ASSERT_EQ(mwpm.decodeSparse(defects.data(), defects.size(),
                                    reused_mwpm),
                  mwpm.decode(defects));
        ASSERT_EQ(uf.decodeSparse(defects.data(), defects.size(),
                                  reused_uf),
                  uf.decode(defects));
    }
    EXPECT_GE(nonzero, 3);
}

TEST(DecodePipeline, DuplicateDefectIdsTerminate)
{
    // A repeated detector id must not corrupt the union-find's
    // intrusive frontier list (self-cycle -> infinite loop) and must
    // decode like a single occurrence for both decoders.
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 3, Basis::Z);
    UnionFindDecoder uf(dem, 1e-3);
    MwpmDecoder mwpm(dem, 1e-3);

    const std::vector<int> dup = {5, 5};
    const std::vector<int> once = {5};
    EXPECT_EQ(uf.decode(dup), uf.decode(once));
    const std::vector<int> mixed = {2, 5, 5, 7};
    const std::vector<int> mixed_once = {2, 5, 7};
    EXPECT_EQ(uf.decode(mixed), uf.decode(mixed_once));
    (void)mwpm.decode(dup);   // must terminate
}

TEST(DecodePipeline, ZeroDefectFastPath)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 3, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    EXPECT_FALSE(pipeline.decodeOne(nullptr, 0));
    EXPECT_FALSE(pipeline.decodeOne(nullptr, 0));
    EXPECT_EQ(pipeline.stats().zeroDefect, 2u);
    EXPECT_EQ(pipeline.stats().decoded, 0u);
    // Zero-defect shots never enter the cache.
    EXPECT_EQ(pipeline.cacheStats().hits + pipeline.cacheStats().misses,
              0u);
}

TEST(DecodePipeline, UnionFindDecodeIsAllocationFreeInSteadyState)
{
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 40, 3e-3, 74);
    DecodeWorkspace ws;
    // Warmup sizes every workspace array.
    for (const auto &defects : shots)
        decoder.decodeSparse(defects.data(), defects.size(), ws);

    const uint64_t before = g_allocations.load();
    bool sink = false;
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &defects : shots)
            sink ^= decoder.decodeSparse(defects.data(),
                                         defects.size(), ws);
    }
    const uint64_t after = g_allocations.load();
    EXPECT_EQ(after, before) << "union-find decode allocated on the "
                                "steady-state path (sink="
                             << sink << ")";
}

TEST(DecodePipeline, ZeroDefectDecodeAllocatesNothingForBothDecoders)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 3, Basis::Z);
    MwpmDecoder mwpm(dem, 1e-3);
    UnionFindDecoder uf(dem, 1e-3);
    DecodeWorkspace ws;

    const uint64_t before = g_allocations.load();
    bool sink = mwpm.decodeSparse(nullptr, 0, ws);
    sink ^= uf.decodeSparse(nullptr, 0, ws);
    EXPECT_EQ(g_allocations.load(), before) << sink;
}

TEST(DecodePipeline, MwpmDecodeIsAllocationFreeInSteadyState)
{
    // Regions, detector records, the event queue and the expansion
    // stacks all live in the workspace: once warmed up on a shot
    // set, repeating the set must perform zero heap allocations end
    // to end. The dense set (leakage bursts of 64+ defects) drives
    // the queue's buckets and the region table through their growth
    // paths.
    struct ShotSet
    {
        int d;
        int rounds;
        double p;
        double leakFraction;
        uint64_t seed;
        size_t minPeakDefects;   ///< Largest shot must reach this.
    };
    for (const ShotSet &set : {ShotSet{5, 10, 3e-3, 0.1, 76, 0},
                               ShotSet{7, 70, 4e-3, 1.0, 79, 64}}) {
        SCOPED_TRACE(::testing::Message() << "d=" << set.d);
        RotatedSurfaceCode code(set.d);
        DetectorModel dem =
            buildDetectorModel(code, set.rounds, Basis::Z);
        MwpmDecoder decoder(dem, 1e-3);

        auto shots = sampleDefectSets(code, set.rounds, 40, set.p,
                                      set.seed, set.leakFraction);
        size_t peak_defects = 0;
        for (const auto &defects : shots)
            peak_defects = std::max(peak_defects, defects.size());
        EXPECT_GE(peak_defects, set.minPeakDefects);

        DecodeWorkspace ws;
        // Two warmup passes: the first sizes every array, the second
        // lets per-blossom-slot capacities settle.
        for (int warmup = 0; warmup < 2; ++warmup) {
            for (const auto &defects : shots)
                decoder.decodeSparse(defects.data(), defects.size(),
                                     ws);
        }

        const uint64_t before = g_allocations.load();
        bool sink = false;
        for (int repeat = 0; repeat < 3; ++repeat) {
            for (const auto &defects : shots)
                sink ^= decoder.decodeSparse(defects.data(),
                                             defects.size(), ws);
        }
        const uint64_t after = g_allocations.load();
        EXPECT_EQ(after, before) << "MWPM decode allocated on the "
                                    "steady-state path (sink="
                                 << sink << ")";
    }
}

TEST(DecodePipeline, MwpmWorkspaceFootprintStabilizes)
{
    // The MWPM path still allocates inside the blossom solver, but the
    // workspace itself must stop growing once decode reaches steady
    // state.
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 60, 3e-3, 75);
    DecodeWorkspace ws;
    for (const auto &defects : shots)
        decoder.decodeSparse(defects.data(), defects.size(), ws);
    const size_t footprint = ws.footprintBytes();
    EXPECT_GT(footprint, 0u);
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &defects : shots)
            decoder.decodeSparse(defects.data(), defects.size(), ws);
    }
    EXPECT_EQ(ws.footprintBytes(), footprint);
}

/** The program-map extractor against scalar extractDefects, lane by
 *  lane, on a replayed program's record. */
template <int NW>
void
expectSparseExtractionMatchesPerLane(Basis basis, int lanes)
{
    RotatedSurfaceCode code(3);
    const int rounds = 6;
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, rounds, basis, IrTailKind::SwapLrc);
    BatchFrameSimulatorT<NW> sim(code.numQubits(),
                                 ErrorModel::standard(5e-3), lanes, 913,
                                 0);
    sim.executeProgram(prog);

    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    extractor.extract(prog.detectors, rounds, sim.record(), lanes,
                      syndrome);
    ASSERT_EQ(syndrome.numLanes, lanes);
    ASSERT_EQ(syndrome.numWords, (lanes + 63) / 64);

    std::array<uint64_t, kMaxBatchWords> expect_nonzero{};
    std::vector<MeasureRecord> lane_record;
    for (int l = 0; l < lanes; ++l) {
        lane_record.clear();
        for (const auto &rec : sim.record()) {
            if (!testLane(rec.mask, l))
                continue;
            MeasureRecord m;
            m.qubit = rec.qubit;
            m.stab = rec.stab;
            m.round = rec.round;
            m.flip = testLane(rec.flips, l);
            m.finalData = rec.finalData;
            m.lrcData = rec.lrcData;
            lane_record.push_back(m);
        }
        const ShotOutcome want =
            extractDefects(code, basis, rounds, lane_record);
        ASSERT_EQ(syndrome.laneSize(l), want.defects.size())
            << "lane " << l;
        for (size_t k = 0; k < want.defects.size(); ++k)
            ASSERT_EQ(syndrome.laneBegin(l)[k], want.defects[k])
                << "lane " << l;
        ASSERT_EQ(syndrome.laneObservable(l), want.observableFlip)
            << "lane " << l;
        ASSERT_EQ(syndrome.laneHash[l],
                  syndromeHash(want.defects.data(), want.defects.size()))
            << "lane " << l;
        if (!want.defects.empty())
            expect_nonzero[l >> 6] |= uint64_t{1} << (l & 63);
    }
    EXPECT_EQ(syndrome.nonzeroWords, expect_nonzero);
}

TEST(DecodePipeline, SparseExtractionMatchesPerLaneExtraction)
{
    for (Basis basis : {Basis::Z, Basis::X}) {
        SCOPED_TRACE(basis == Basis::Z ? "Z" : "X");
        expectSparseExtractionMatchesPerLane<1>(basis, 64);
        expectSparseExtractionMatchesPerLane<8>(basis, 300);
    }
}

TEST(DecodePipeline, LaneHashesDedupeIdenticalSyndromes)
{
    // Lanes with identical defect lists must share a hash; the cache
    // verifies full equality on top, so collisions only cost time.
    std::vector<int> a = {3, 17, 42};
    std::vector<int> b = {3, 17, 42};
    std::vector<int> c = {3, 17, 43};
    EXPECT_EQ(syndromeHash(a.data(), a.size()),
              syndromeHash(b.data(), b.size()));
    EXPECT_NE(syndromeHash(a.data(), a.size()),
              syndromeHash(c.data(), c.size()));
    EXPECT_NE(syndromeHash(a.data(), 2), syndromeHash(a.data(), 3));
}

TEST(DecodePipeline, SyndromeCacheVerifiesFullListOnHashCollision)
{
    SyndromeCacheOptions options;
    options.tableLog2 = 4;
    SyndromeCache cache(options);
    const std::vector<int> a = {1, 2, 3};
    const std::vector<int> b = {9, 8, 7};
    cache.insert(12345, a.data(), a.size(), true);
    bool verdict = false;
    // Same hash, different defects: must MISS, not replay a's verdict.
    EXPECT_FALSE(cache.lookup(12345, b.data(), b.size(), verdict));
    EXPECT_TRUE(cache.lookup(12345, a.data(), a.size(), verdict));
    EXPECT_TRUE(verdict);
}

TEST(DecodePipeline, SyndromeCacheFlushesWhenFull)
{
    SyndromeCacheOptions options;
    options.tableLog2 = 3;     // 8 slots -> flush at 6 entries
    options.arenaCapacity = 64;
    SyndromeCache cache(options);
    bool verdict = false;
    for (int i = 0; i < 100; ++i) {
        std::vector<int> defects = {i, i + 1000};
        const uint64_t h =
            syndromeHash(defects.data(), defects.size());
        cache.insert(h, defects.data(), defects.size(), i & 1);
    }
    EXPECT_GT(cache.stats().flushes, 0u);
    // Still functional after flushes.
    std::vector<int> last = {99, 1099};
    const uint64_t h = syndromeHash(last.data(), last.size());
    EXPECT_TRUE(cache.lookup(h, last.data(), last.size(), verdict));
    EXPECT_TRUE(verdict);
}

TEST(DecodePipeline, TinyCacheTablesKeepAFreeSlot)
{
    // The cache flushes once a quarter of its slots would be left
    // free. A 1- or 2-slot table rounds that quarter down to none,
    // fills up, and a lookup that misses then probes forever. The
    // first flush snapshot gives the cache's real slot count, and the
    // ASSERTs stop the test before a lookup that would hang.
    for (uint32_t log2 : {0u, 1u, 2u}) {
        SCOPED_TRACE(log2);
        SyndromeCacheOptions options;
        options.tableLog2 = log2;
        SyndromeCache cache(options);

        int id = 0;
        const auto insert_next = [&](const int *list) {
            cache.insert(syndromeHash(list, 2), list, 2, id & 1);
        };
        for (; id < 8; ++id) {
            const int list[2] = {id, id + 1000};
            insert_next(list);
        }
        const SyndromeCacheFlush &flush = cache.stats().lastFlush;
        ASSERT_GT(cache.stats().flushes, 0u);
        ASSERT_LT(flush.occupancy, 1.0);
        const size_t slots =
            (size_t)std::lround((double)flush.evicted / flush.occupancy);

        for (; id < 40; ++id) {
            const int list[2] = {id, id + 1000};
            bool verdict = false;
            ASSERT_LT(cache.size(), slots);
            EXPECT_FALSE(
                cache.lookup(syndromeHash(list, 2), list, 2, verdict));
            insert_next(list);
        }
    }
}

TEST(DecodePipeline, CustomDecoderFactoryIsUsed)
{
    // A caller-supplied DecoderFactory ("any other decoder may be used
    // as well"): the factory-built decoder must drive the verdicts.
    struct AlwaysFlip : Decoder
    {
        bool
        decodeSparse(const int *, size_t,
                     DecodeWorkspace &) const override
        {
            return true;   // predict "flip" even for empty syndromes
        }
    };

    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 3;
    cfg.shots = 50;
    cfg.seed = 5;
    cfg.em = ErrorModel::noiseless();
    // The per-shot decode loop hands every shot to decoder_; the
    // pipeline's zero-defect fast path would skip these noiseless
    // shots without asking it.
    cfg.batchDecode = false;
    MemoryExperiment exp(code, cfg,
                         [](const DetectorModel &, double) {
                             return std::make_unique<AlwaysFlip>();
                         });
    // Noiseless shots never flip the observable, so a decoder that
    // always predicts a flip is wrong on every shot.
    auto result = exp.run(PolicyKind::Never);
    EXPECT_EQ(result.logicalErrors, cfg.shots);
}

} // namespace
} // namespace qec
