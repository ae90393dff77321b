/**
 * @file
 * google-benchmark microbenchmarks of the latency-critical components:
 * the speculation + insertion path (the paper's 5 ns FPGA budget and
 * ~120 ns control window, Section 4.3), one syndrome extraction round
 * of the frame simulator, full-shot MWPM / Union-Find decodes (one-off
 * vs reusable-workspace), and end-to-end decoded memory sweeps
 * comparing the scalar decode-per-shot loop against the batch-aware
 * decode pipeline (sparse syndromes + zero-defect fast path + dedup
 * cache + allocation-free workspaces).
 *
 * After the benchmarks run, main() emits BENCH_decode.json (override
 * the path with ERASER_BENCH_JSON, skip with ERASER_SKIP_DECODE_JSON)
 * with machine-readable scalar-vs-batched decode throughput and cache
 * hit rates (exact and round-truncated prefix keys), and
 * BENCH_simd.json (ERASER_SIMD_JSON / ERASER_SKIP_SIMD_JSON) with the
 * word-group width sweep of the decoded d=11 UF ERASER experiment, so
 * the perf trajectory is tracked across PRs.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/atomic_file.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/simd_word.h"
#include "code/builder.h"
#include "code/ir_analysis.h"
#include "code/rotated_surface_code.h"
#include "core/policies.h"
#include "decoder/batch_decoder.h"
#include "decoder/defects.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find_decoder.h"
#include "exp/memory_experiment.h"
#include "exp/sweep_plan.h"
#include "legacy_decoders.h"
#include "sim/batch_frame_simulator.h"
#include "sim/frame_simulator.h"

namespace
{

using namespace qec;

void
BM_LsbDliRoundDecision(benchmark::State &state)
{
    // The whole software model of the control decision: speculation
    // over a syndrome plus LRC insertion, at the given distance.
    const int d = (int)state.range(0);
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    EraserPolicy policy(code, lookup, false);
    Rng rng(1);

    RoundObservation obs;
    obs.events.assign(code.numStabilizers(), 0);
    obs.leakedLabels.assign(code.numStabilizers(), 0);
    obs.hadLrc.assign(code.numData(), 0);
    for (auto &event : obs.events)
        event = rng.bernoulli(0.03) ? 1 : 0;

    for (auto _ : state) {
        obs.round = (obs.round + 1) % 1000;
        benchmark::DoNotOptimize(policy.nextRound(obs));
    }
}
BENCHMARK(BM_LsbDliRoundDecision)->Arg(3)->Arg(7)->Arg(11);

template <int NW>
void
runBatchControllerRound(benchmark::State &state, int d, int lanes)
{
    // Word-parallel image of BM_LsbDliRoundDecision: one controller
    // decision for a whole word-group. Items = lane decisions, so the
    // items/s ratio against BM_LsbDliRoundDecision's iterations/s is
    // the controller's lane-parallel speedup.
    using Lane = LaneWord<NW>;
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    BatchPolicySpec spec;
    spec.kind = BatchPolicyKind::Eraser;
    BatchEraserController<Lane> controller(code, lookup, spec);
    Rng rng(1);

    std::vector<Lane> events(code.numStabilizers(), Lane{});
    std::vector<Lane> labels(code.numStabilizers(), Lane{});
    std::vector<Lane> had_lrc(code.numData(), Lane{});
    for (auto &plane : events) {
        for (int l = 0; l < lanes; ++l) {
            if (rng.bernoulli(0.03))
                setLane(plane, l);
        }
    }
    const Lane live = laneMaskOf<Lane>(lanes);
    std::vector<std::vector<LrcPair>> lrcs(lanes);

    for (auto _ : state) {
        controller.nextRound(events, labels, had_lrc, live, lrcs);
        benchmark::DoNotOptimize(lrcs.data());
    }
    state.SetItemsProcessed(state.iterations() * lanes);
}

void
BM_BatchControllerRound(benchmark::State &state)
{
    const int d = (int)state.range(0);
    const int width = (int)state.range(1);
    if (width <= 64)
        runBatchControllerRound<1>(state, d, width);
    else if (width <= 256)
        runBatchControllerRound<4>(state, d, width);
    else
        runBatchControllerRound<8>(state, d, width);
}
BENCHMARK(BM_BatchControllerRound)
    ->ArgNames({"d", "width"})
    ->Args({11, 64})->Args({11, 256})->Args({11, 512});

void
BM_FrameSimRound(benchmark::State &state)
{
    const int d = (int)state.range(0);
    RotatedSurfaceCode code(d);
    FrameSimulator sim(code.numQubits(), ErrorModel::standard(1e-3),
                       Rng(2));
    RoundSchedule round = buildRoundSchedule(code, 0, {});
    for (auto _ : state) {
        sim.executeRange(round.ops.data(),
                         round.ops.data() + round.ops.size());
        benchmark::DoNotOptimize(sim.record().size());
        if (sim.record().size() > 1000000)
            sim.reset();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameSimRound)->Arg(3)->Arg(7)->Arg(11);

template <int NW>
void
runBatchFrameSimRound(benchmark::State &state, int d, int lanes)
{
    RotatedSurfaceCode code(d);
    BatchFrameSimulatorT<NW> sim(code.numQubits(),
                                 ErrorModel::standard(1e-3), lanes, 2,
                                 0);
    RoundSchedule round = buildRoundSchedule(code, 0, {});
    for (auto _ : state) {
        sim.executeRange(round.ops.data(),
                         round.ops.data() + round.ops.size());
        benchmark::DoNotOptimize(sim.record().size());
        if (sim.record().size() > 1000000)
            sim.reset();
    }
    // Items = live lanes actually simulated (sim.numLanes()), never
    // the word-group capacity: a ragged group must not inflate the
    // reported throughput.
    state.SetItemsProcessed(state.iterations() * sim.numLanes());
}

void
BM_BatchFrameSimRound(benchmark::State &state)
{
    // Same round as BM_FrameSimRound, but width shots per word-group:
    // the items/sec ratio against BM_FrameSimRound is the engine-level
    // speedup, and the ratio across widths is the SIMD plane scaling.
    const int d = (int)state.range(0);
    const int width = (int)state.range(1);
    if (width <= 64)
        runBatchFrameSimRound<1>(state, d, width);
    else if (width <= 256)
        runBatchFrameSimRound<4>(state, d, width);
    else
        runBatchFrameSimRound<8>(state, d, width);
}
BENCHMARK(BM_BatchFrameSimRound)
    ->ArgNames({"d", "width"})
    ->Args({3, 64})->Args({7, 64})->Args({11, 64})
    ->Args({11, 256})->Args({11, 512});

/**
 * Whole-experiment throughput of the batch engine across word-group
 * widths on the paper's headline configuration: a d=11 memory
 * experiment driven by the ERASER policy (decode off, so the
 * comparison isolates the simulation + scheduling hot path).
 */
void
BM_MemoryExperimentEraser(benchmark::State &state)
{
    const int d = 11;
    const unsigned batch_width = (unsigned)state.range(0);
    RotatedSurfaceCode code(d);
    ExperimentConfig cfg;
    cfg.rounds = d;
    cfg.shots = 256;
    cfg.seed = 11;
    cfg.em = ErrorModel::standard(1e-3);
    cfg.decode = false;
    cfg.batchWidth = batch_width;
    MemoryExperiment exp(code, cfg);

    uint64_t shots = 0;
    for (auto _ : state) {
        auto result = exp.run(PolicyKind::Eraser);
        benchmark::DoNotOptimize(result.lrcsScheduled);
        // Count executed shots, not groups * batchWidth: at width 512
        // this config runs one ragged 256-lane group per repetition
        // and must not report phantom throughput.
        shots += result.shots;
    }
    state.counters["shots/s"] = benchmark::Counter(
        (double)shots, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MemoryExperimentEraser)
    ->ArgName("width")->Arg(64)->Arg(256)->Arg(512)
    // Shots run on the worker pool, so rates are per wall second.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Worker scaling of the threaded experiment path. The region runs on
 * the process-wide persistent WorkerPool, grown to the target size
 * BEFORE the timed loop — repetitions reuse the same threads, so the
 * counters measure scaling, not thread spawn + join per measurement.
 */
void
BM_MemoryExperimentEraserWorkers(benchmark::State &state)
{
    const int d = 11;
    const unsigned workers = (unsigned)state.range(0);
    sharedWorkerPool().ensureWorkers(workers);
    RotatedSurfaceCode code(d);
    ExperimentConfig cfg;
    cfg.rounds = d;
    cfg.shots = 1024;
    cfg.seed = 11;
    cfg.em = ErrorModel::standard(1e-3);
    cfg.decode = false;
    cfg.batchWidth = 64;
    cfg.threads = workers;
    MemoryExperiment exp(code, cfg);

    uint64_t shots = 0;
    for (auto _ : state) {
        auto result = exp.run(PolicyKind::Eraser);
        benchmark::DoNotOptimize(result.lrcsScheduled);
        shots += result.shots;
    }
    state.counters["shots/s"] = benchmark::Counter(
        (double)shots, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MemoryExperimentEraserWorkers)
    ->ArgName("workers")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    // Pool threads do the work while the caller waits, so rate
    // counters must be against wall time, not main-thread CPU.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Pre-sampled realistic defect sets at p=1e-3. */
std::vector<std::vector<int>>
sampleShots(const RotatedSurfaceCode &code, int rounds, int count,
            const ErrorModel &em = ErrorModel::standard(1e-3))
{
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    std::vector<std::vector<int>> shots;
    FrameSimulator sim(code.numQubits(), em, Rng(3));
    for (int i = 0; i < count; ++i) {
        sim.run(circuit);
        shots.push_back(
            extractDefects(code, Basis::Z, rounds, sim.record())
                .defects);
    }
    return shots;
}

void
BM_DecodeShot(benchmark::State &state)
{
    // One-off MWPM decode: throwaway workspace per call (the scalar
    // path's cost model).
    const int d = (int)state.range(0);
    const int rounds = 3 * d;
    RotatedSurfaceCode code(d);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    auto shots = sampleShots(code, rounds, 32);

    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(decoder.decode(shots[i & 31]));
        ++i;
    }
}
BENCHMARK(BM_DecodeShot)->Arg(3)->Arg(7)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

void
BM_DecodeShotWorkspace(benchmark::State &state)
{
    // Same shots through decodeSparse with a persistent workspace:
    // the batch pipeline's per-shot cost model (no dedup cache).
    // Args: distance, rounds per distance. The plain memory circuit
    // has no leakage removal, so leaked qubits would pile up over 10d
    // rounds far beyond fig14 (which removes them); the 10d shots are
    // therefore sampled leakage-free, which gives dense shots of about
    // a hundred defects at d=11, like fig14's leakage bursts.
    const int d = (int)state.range(0);
    const int rounds = (int)state.range(1) * d;
    RotatedSurfaceCode code(d);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    auto shots = sampleShots(code, rounds, 32,
                             state.range(1) >= 10
                                 ? ErrorModel::withoutLeakage(1e-3)
                                 : ErrorModel::standard(1e-3));
    size_t defects_total = 0;
    for (const auto &defects : shots)
        defects_total += defects.size();

    DecodeWorkspace ws;
    size_t i = 0;
    for (auto _ : state) {
        const auto &defects = shots[i & 31];
        benchmark::DoNotOptimize(
            decoder.decodeSparse(defects.data(), defects.size(), ws));
        ++i;
    }
    state.counters["defects/shot"] =
        benchmark::Counter((double)defects_total / 32.0);
}
BENCHMARK(BM_DecodeShotWorkspace)
    ->ArgNames({"d", "rounds_per_d"})
    ->Args({3, 3})->Args({7, 3})->Args({11, 3})->Args({11, 10})
    ->Unit(benchmark::kMicrosecond);

void
BM_UnionFindDecodeShot(benchmark::State &state)
{
    // Union-Find one-off vs workspace decode; arg1 selects the mode.
    const int d = (int)state.range(0);
    const bool workspace = state.range(1) != 0;
    const int rounds = 3 * d;
    RotatedSurfaceCode code(d);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto shots = sampleShots(code, rounds, 32);

    DecodeWorkspace ws;
    size_t i = 0;
    for (auto _ : state) {
        const auto &defects = shots[i & 31];
        if (workspace)
            benchmark::DoNotOptimize(decoder.decodeSparse(
                defects.data(), defects.size(), ws));
        else
            benchmark::DoNotOptimize(decoder.decode(defects));
        ++i;
    }
}
BENCHMARK(BM_UnionFindDecodeShot)
    ->ArgNames({"d", "ws"})
    ->Args({7, 0})->Args({7, 1})->Args({11, 0})->Args({11, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_ComponentPipelineDecode(benchmark::State &state)
{
    // Component-granular / sliding-window pipeline with honest work
    // accounting: the rates are defects/s and components/s (windows/s
    // in windowed mode) over the work actually dispatched — NOT
    // shots/s over lanes that were mostly zero-defect fast-path skips,
    // which is what the old per-shot counters amounted to at p = 1e-3.
    const int d = (int)state.range(0);
    const bool windowed = state.range(1) != 0;
    const int rounds = 3 * d;
    RotatedSurfaceCode code(d);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);

    BatchDecodeOptions options;
    options.cache.enabled = false; // measure decode, not dedup replay
    if (windowed) {
        options.windowLength = 2 * d;
        options.windowSlideLength = d;
    } else {
        options.components.enabled = true;
    }
    BatchDecoder pipeline(decoder, options, graph);
    auto shots = sampleShots(code, rounds, 64);

    uint64_t defects = 0;
    size_t i = 0;
    for (auto _ : state) {
        const auto &s = shots[i & 63];
        benchmark::DoNotOptimize(
            pipeline.decodeOne(s.data(), s.size()));
        defects += s.size();
        ++i;
    }
    state.counters["defects/s"] = benchmark::Counter(
        (double)defects, benchmark::Counter::kIsRate);
    const BatchDecodeStats &st = pipeline.stats();
    if (windowed) {
        state.counters["windows/s"] = benchmark::Counter(
            (double)st.windows, benchmark::Counter::kIsRate);
        state.counters["commit_frac"] = benchmark::Counter(
            st.windowCommits + st.windowDeferrals == 0
                ? 0.0
                : (double)st.windowCommits /
                      (double)(st.windowCommits +
                               st.windowDeferrals));
    } else {
        state.counters["components/s"] = benchmark::Counter(
            (double)st.componentsTotal,
            benchmark::Counter::kIsRate);
        state.counters["component_cache_hit_rate"] =
            benchmark::Counter(st.componentCacheHitRate());
    }
}
BENCHMARK(BM_ComponentPipelineDecode)
    ->ArgNames({"d", "win"})
    ->Args({7, 0})->Args({7, 1})->Args({11, 0})->Args({11, 1})
    ->Unit(benchmark::kMicrosecond);

/**
 * End-to-end decoded throughput of the paper's headline d=11 ERASER
 * memory experiment. mode 1: batched sim + a decode-per-shot loop
 * over the frozen legacy decoders; mode 2: batched sim + batch-aware
 * decode pipeline. The mode1 -> mode2 shots/s ratio is the
 * decode-pipeline speedup.
 */
void
BM_MemoryExperimentEraserDecoded(benchmark::State &state)
{
    const int d = 11;
    const int mode = (int)state.range(0);
    const bool union_find = state.range(1) != 0;
    RotatedSurfaceCode code(d);
    ExperimentConfig cfg;
    cfg.rounds = d;
    cfg.shots = 128;
    cfg.seed = 11;
    cfg.em = ErrorModel::standard(1e-3);
    cfg.decode = true;
    cfg.decoderKind = union_find ? DecoderKind::UnionFind
                                 : DecoderKind::Mwpm;
    cfg.batchWidth = 64;
    cfg.batchDecode = mode == 2;
    // Mode 1 decodes with the frozen legacy decoders
    // (bench/legacy_decoders.h) so the mode ratio tracks real
    // cross-version speedups.
    const DecoderFactory legacy_factory =
        [union_find](const DetectorModel &dem,
                     double p) -> std::unique_ptr<Decoder> {
        if (union_find)
            return std::make_unique<LegacyUnionFindDecoder>(dem, p);
        return std::make_unique<LegacyMwpmDecoder>(dem, p);
    };
    MemoryExperiment exp =
        mode == 2 ? MemoryExperiment(code, cfg)
                  : MemoryExperiment(code, cfg, legacy_factory);

    uint64_t shots = 0;
    ExperimentResult last;
    for (auto _ : state) {
        last = exp.run(PolicyKind::Eraser);
        benchmark::DoNotOptimize(last.logicalErrors);
        shots += last.shots;
    }
    state.counters["shots/s"] = benchmark::Counter(
        (double)shots, benchmark::Counter::kIsRate);
    state.counters["cache_hit_rate"] =
        benchmark::Counter(last.syndromeCacheHitRate());
    state.counters["zero_defect_frac"] = benchmark::Counter(
        last.shots == 0 ? 0.0
                        : (double)last.zeroDefectShots /
                              (double)last.shots);
}
BENCHMARK(BM_MemoryExperimentEraserDecoded)
    ->ArgNames({"mode", "uf"})
    ->Args({1, 0})->Args({2, 0})
    ->Args({1, 1})->Args({2, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Full IrAnalyzer pass stack (liveness, detector coverage, stream
 * accounting, LRC legality, observable reachability) over the d=11
 * surface-memory program — the cost the sweep executor pays once per
 * program-cache entry. Compile-time is excluded: the program is built
 * once outside the timing loop.
 */
void
BM_IrAnalyze(benchmark::State &state)
{
    const int d = (int)state.range(0);
    RotatedSurfaceCode code(d);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 3 * d, Basis::Z, IrTailKind::SwapLrc);
    const ErrorModel em = ErrorModel::standard(1e-3);
    for (auto _ : state) {
        IrAnalysisReport report = IrAnalyzer::analyze(prog, em);
        benchmark::DoNotOptimize(report.diagnostics.data());
    }
    state.counters["instrs"] =
        benchmark::Counter((double)prog.instrs.size());
}
BENCHMARK(BM_IrAnalyze)
    ->ArgName("d")->Arg(3)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

void
BM_DemBuildTiled(benchmark::State &state)
{
    const int d = (int)state.range(0);
    RotatedSurfaceCode code(d);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildDetectorModel(code, 10 * d, Basis::Z));
    }
}
BENCHMARK(BM_DemBuildTiled)->Arg(3)->Arg(5)->Arg(7)->Arg(11)
    ->Unit(benchmark::kMillisecond);

/**
 * Machine-readable decode-throughput tracking: run the decoded ERASER
 * memory sweep at d = 7/9/11 for both decoders, once with the frozen
 * PR 1 decoders in the scalar decode-per-shot loop (the PR 1
 * baseline, re-measured on the current machine) and once with the
 * batch-aware pipeline, and write shots/s, speedup, cache hit rate
 * and zero-defect fraction as JSON. Each entry also runs the
 * component-granular stage and the 2d-row sliding window against an
 * all-caches-off reference and records the component-cache hit rate
 * plus verdicts_match_uncached / verdicts_match_windowed fingerprint
 * pins, so CI can assert both stages stayed exactness-preserving.
 */
void
emitDecodeJson()
{
    if (std::getenv("ERASER_SKIP_DECODE_JSON"))
        return;
    const char *path_env = std::getenv("ERASER_BENCH_JSON");
    const std::string path =
        path_env ? path_env : "BENCH_decode.json";
    // temp + fsync + rename: a bench killed mid-emit leaves the
    // previous artifact, never a truncated JSON CI would then parse.
    AtomicFileWriter writer;
    Status open_status = writer.open(path);
    if (!open_status.isOk()) {
        std::fprintf(stderr, "cannot write %s (%s)\n", path.c_str(),
                     open_status.toString().c_str());
        return;
    }
    FILE *out = writer.stream();

    auto shots_per_sec = [](const RotatedSurfaceCode &code,
                            const ExperimentConfig &cfg,
                            const DecoderFactory *legacy,
                            ExperimentResult *result_out) {
        MemoryExperiment exp =
            legacy ? MemoryExperiment(code, cfg, *legacy)
                   : MemoryExperiment(code, cfg);
        const auto start = std::chrono::steady_clock::now();
        auto result = exp.run(PolicyKind::Eraser);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                start)
                                .count();
        if (result_out)
            *result_out = result;
        return (double)result.shots / (secs > 0.0 ? secs : 1e-9);
    };

    std::fprintf(out,
                 "{\n  \"bench\": \"decoded d-sweep, ERASER policy, "
                 "rounds=3d, batchWidth=64; scalar = frozen PR1 "
                 "decoders + decode-per-shot loop\",\n"
                 "  \"entries\": [\n");

    // The grid (and each point's seed) is a SweepPlan; the scalar vs
    // pipeline pairing below is this bench's own instrumentation on
    // top of it, which is why it does not go through SweepRunner.
    SweepPlan plan;
    plan.name = "decode_pipeline_tracking";
    plan.distances = {7, 9, 11};
    plan.ps = {1e-3, 1e-4};
    plan.rounds = {SweepRounds::cycles(3)};
    plan.decoders = {DecoderKind::Mwpm, DecoderKind::UnionFind};
    plan.base.batchWidth = 64;
    plan.shotsFor = [](int d, double) -> uint64_t {
        return d >= 11 ? 192 : (d >= 9 ? 320 : 512);
    };

    bool first = true;
    std::map<int, std::unique_ptr<RotatedSurfaceCode>> codes;
    for (const SweepPoint &point : plan.points()) {
        auto &code = codes[point.distance];
        if (!code)
            code = std::make_unique<RotatedSurfaceCode>(
                point.distance);
        const bool union_find =
            point.decoderKind == DecoderKind::UnionFind;
        const DecoderFactory legacy_factory =
            [union_find](const DetectorModel &dem,
                         double p) -> std::unique_ptr<Decoder> {
            if (union_find)
                return std::make_unique<LegacyUnionFindDecoder>(dem,
                                                                p);
            return std::make_unique<LegacyMwpmDecoder>(dem, p);
        };

        ExperimentConfig cfg = point.config;
        cfg.batchDecode = false;
        const double scalar_rate =
            shots_per_sec(*code, cfg, &legacy_factory, nullptr);
        cfg.batchDecode = true;
        ExperimentResult batched;
        const double batched_rate =
            shots_per_sec(*code, cfg, nullptr, &batched);
        // Approximate round-truncated prefix keying: the knob that
        // makes dedup fire at p = 1e-3 (exact keys almost never
        // repeat there). Reported side by side with the exact hit
        // rate.
        cfg.syndromeCache.truncateRounds = 2;
        ExperimentResult truncated;
        shots_per_sec(*code, cfg, nullptr, &truncated);
        cfg.syndromeCache.truncateRounds = 0;

        // Exactness pins, recorded in the artifact itself: every
        // pipeline stage must reproduce one verdict fingerprint.
        // Reference run: all caches off, no components, no window.
        cfg.syndromeCache.enabled = false;
        ExperimentResult uncached;
        shots_per_sec(*code, cfg, nullptr, &uncached);
        // Component-granular dispatch on (dedup still off, so the
        // component cache sees every nonzero lane).
        cfg.componentDecode.enabled = true;
        ExperimentResult components;
        shots_per_sec(*code, cfg, nullptr, &components);
        cfg.componentDecode.enabled = false;
        // Sliding-window streaming decode (2d-row window, d-row
        // slide).
        cfg.windowLength = 2 * point.distance;
        cfg.windowSlideLength = point.distance;
        ExperimentResult windowed;
        shots_per_sec(*code, cfg, nullptr, &windowed);

        const bool match_uncached =
            batched.verdictFingerprint ==
                uncached.verdictFingerprint &&
            components.verdictFingerprint ==
                uncached.verdictFingerprint;
        const bool match_windowed =
            windowed.verdictFingerprint ==
                uncached.verdictFingerprint &&
            windowed.windowsDecoded > 0;

        std::fprintf(
            out,
            "%s    {\"decoder\": \"%s\", \"p\": %.0e, "
            "\"d\": %d, \"rounds\": %d, \"shots\": %llu, "
            "\"seed\": %llu, "
            "\"scalar_shots_per_s\": %.1f, "
            "\"batched_shots_per_s\": %.1f, "
            "\"speedup\": %.2f, "
            "\"cache_hit_rate\": %.4f, "
            "\"cache_hit_rate_trunc2\": %.4f, "
            "\"component_cache_hit_rate\": %.4f, "
            "\"verdicts_match_uncached\": %s, "
            "\"verdicts_match_windowed\": %s, "
            "\"zero_defect_frac\": %.4f}",
            first ? "" : ",\n", decoderKindName(point.decoderKind),
            point.p, point.distance, point.rounds,
            (unsigned long long)point.shots,
            (unsigned long long)point.seed, scalar_rate,
            batched_rate, batched_rate / scalar_rate,
            batched.syndromeCacheHitRate(),
            truncated.syndromeCacheHitRate(),
            components.componentCacheHitRate(),
            match_uncached ? "true" : "false",
            match_windowed ? "true" : "false",
            (double)batched.zeroDefectShots /
                (double)batched.shots);
        first = false;
    }
    // Static-analysis pin: the decoded d=11 surface-memory program
    // must pass the full IrAnalyzer stack with zero Error diagnostics
    // under the bench error model. CI greps the field.
    {
        const int d = 11;
        const int rounds = 3 * d;
        RotatedSurfaceCode ir_code(d);
        const CircuitProgram analyzed_prog =
            CircuitCompiler::surfaceMemory(ir_code, rounds, Basis::Z,
                                           IrTailKind::SwapLrc);
        const bool analysis_clean =
            !IrAnalyzer::analyze(analyzed_prog,
                                 ErrorModel::standard(1e-3))
                 .hasErrors();
        std::fprintf(out,
                     "\n  ],\n  \"ir_analysis\": "
                     "{\"d\": %d, \"rounds\": %d, "
                     "\"ir_analysis_clean\": %s}\n}\n",
                     d, rounds, analysis_clean ? "true" : "false");
    }
    Status commit_status = writer.commit();
    if (!commit_status.isOk()) {
        std::fprintf(stderr, "cannot write %s (%s)\n", path.c_str(),
                     commit_status.toString().c_str());
        return;
    }
    std::printf("wrote %s\n", path.c_str());
}

/**
 * SIMD width-scaling tracking: run the decoded d=11 UF ERASER sweep
 * (rounds = 3d, 1 worker so the ratio is pure per-core width scaling,
 * not thread-count effects) at word-group widths 64/256/512 and write
 * shots/s and the speedup over the width-64 anchor as JSON, together
 * with the engine's compiled backend, the host's recommended width
 * and a "width_scaling" summary block (the p = 1e-3 wide-width
 * speedups regressions are watched on). All widths run the same seed,
 * so `verdicts_match_64` pins the cross-width bit-identity of the
 * word-parallel controller in the artifact itself. Rates divide by
 * executed shots (per-group live lanes), never by
 * groups * batchWidth, so ragged tail groups cannot inflate them.
 */
void
emitSimdJson()
{
    if (std::getenv("ERASER_SKIP_SIMD_JSON"))
        return;
    const char *path_env = std::getenv("ERASER_SIMD_JSON");
    const std::string path = path_env ? path_env : "BENCH_simd.json";
    AtomicFileWriter writer;
    Status open_status = writer.open(path);
    if (!open_status.isOk()) {
        std::fprintf(stderr, "cannot write %s (%s)\n", path.c_str(),
                     open_status.toString().c_str());
        return;
    }
    FILE *out = writer.stream();

    std::fprintf(
        out,
        "{\n  \"bench\": \"decoded d=11 UF ERASER sweep, rounds=3d, "
        "1 core, word-group width sweep; width 64 is the "
        "bit-identical pre-SIMD anchor and all widths decode the "
        "same shots\",\n"
        "  \"engine_backend\": \"%s\",\n"
        "  \"recommended_width\": %d,\n"
        "  \"entries\": [\n",
        simdBackendName(), recommendedBatchWidth());

    // Width sweep as a SweepPlan: the width axis is excluded from the
    // derived per-point seed, so all widths of one p decode the same
    // shots by construction — exactly what verdicts_match_64 pins.
    SweepPlan plan;
    plan.name = "simd_width_tracking";
    plan.distances = {11};
    plan.ps = {1e-3, 1e-4};
    plan.rounds = {SweepRounds::cycles(3)};
    plan.widths = {64, 256, 512};
    plan.base.decoderKind = DecoderKind::UnionFind;
    plan.base.threads = 1;
    plan.shotsFor = [](int, double p) -> uint64_t {
        return p < 5e-4 ? 3072 : 1536;
    };

    RotatedSurfaceCode code(11);
    bool first = true;
    double scale_256 = 0.0, scale_512 = 0.0;
    bool warmed = false;
    double base_rate = 0.0;
    uint64_t base_errors = 0;
    uint64_t base_fingerprint = 0;
    for (const SweepPoint &point : plan.points()) {
        MemoryExperiment exp(code, point.config);
        // Best-of-3 (after one warm-up for the whole sweep):
        // single-run wall times on shared hosts carry enough
        // scheduler noise to swamp the width ratios this artifact
        // exists to track.
        if (!warmed) {
            exp.run(PolicyKind::Eraser);
            warmed = true;
        }
        double rate = 0.0;
        ExperimentResult result;
        for (int rep = 0; rep < 3; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            result = exp.run(PolicyKind::Eraser);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            rate = std::max(rate, (double)result.shots /
                                      (secs > 0.0 ? secs : 1e-9));
        }
        if (point.batchWidth == 64) {
            base_rate = rate;
            base_errors = result.logicalErrors;
            base_fingerprint = result.verdictFingerprint;
        }
        const double speedup =
            base_rate > 0.0 ? rate / base_rate : 1.0;
        if (point.p == 1e-3 && point.batchWidth == 256)
            scale_256 = speedup;
        if (point.p == 1e-3 && point.batchWidth == 512)
            scale_512 = speedup;
        // Per-shot identity, not just equal error counts: the
        // fingerprint is an order-independent XOR over every
        // (shot, verdict) pair, so compensating flips cannot fake
        // a match.
        const bool verdicts_match =
            result.logicalErrors == base_errors &&
            result.verdictFingerprint == base_fingerprint;
        std::fprintf(out,
                     "%s    {\"p\": %.0e, \"width\": %u, "
                     "\"shots\": %llu, \"seed\": %llu, "
                     "\"logical_errors\": %llu, "
                     "\"verdicts_match_64\": %s, "
                     "\"shots_per_s\": %.1f, "
                     "\"speedup_vs_64\": %.3f}",
                     first ? "" : ",\n", point.p, point.batchWidth,
                     (unsigned long long)result.shots,
                     (unsigned long long)point.seed,
                     (unsigned long long)result.logicalErrors,
                     verdicts_match ? "true" : "false", rate,
                     speedup);
        first = false;
    }
    std::fprintf(out,
                 "\n  ],\n"
                 "  \"width_scaling\": {\"p\": 1e-3, "
                 "\"speedup_256_vs_64\": %.3f, "
                 "\"speedup_512_vs_64\": %.3f}\n}\n",
                 scale_256, scale_512);
    Status commit_status = writer.commit();
    if (!commit_status.isOk()) {
        std::fprintf(stderr, "cannot write %s (%s)\n", path.c_str(),
                     commit_status.toString().c_str());
        return;
    }
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitDecodeJson();
    emitSimdJson();
    return 0;
}
