/**
 * @file
 * google-benchmark microbenchmarks of the latency-critical components:
 * the speculation + insertion path (the paper's 5 ns FPGA budget and
 * ~120 ns control window, Section 4.3), one replayed syndrome
 * extraction round of the batch frame simulator (with and without
 * divergent LRC tails), full-shot MWPM / Union-Find decodes (one-off
 * vs reusable-workspace), and end-to-end decoded memory experiments
 * through the batch-aware decode pipeline (sparse syndromes +
 * zero-defect fast path + dedup cache + allocation-free workspaces).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/simd_word.h"
#include "code/circuit_ir.h"
#include "code/ir_analysis.h"
#include "code/rotated_surface_code.h"
#include "core/policies.h"
#include "decoder/batch_decoder.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/union_find_decoder.h"
#include "exp/memory_experiment.h"
#include "sim/batch_frame_simulator.h"

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

/** DLI flavour a controller-round bench drives. */
enum class ControllerBench
{
    Lookup,   ///< ERASER: LSB + lookup-table DLI.
    Exact,    ///< ERASER with the exact-matching DLI ablation.
    Oracle,   ///< Optimal: oracle marks + exact matching.
};

template <int NW>
void
runBatchControllerRound(benchmark::State &state, int d, int lanes,
                        ControllerBench mode)
{
    // Word-parallel image of BM_LsbDliRoundDecision: one controller
    // decision for a whole word-group, written as the block tails and
    // planes the engine replays. Items = lane decisions, so the
    // items/s ratio against BM_LsbDliRoundDecision's iterations/s is
    // the controller's lane-parallel speedup.
    using Lane = LaneWord<NW>;
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    BatchPolicySpec spec;
    spec.kind = BatchPolicyKind::Eraser;
    if (mode == ControllerBench::Exact)
        spec.allocator = DliAllocator::ExactMatching;
    if (mode == ControllerBench::Oracle)
        spec = OptimalLrcPolicy(code, lookup).batchSpec();
    BatchEraserController<Lane> controller(code, lookup, spec);
    Rng rng(1);

    std::vector<Lane> events(code.numStabilizers(), Lane{});
    std::vector<Lane> labels(code.numStabilizers(), Lane{});
    std::vector<Lane> had_lrc(code.numData(), Lane{});
    std::vector<Lane> leaked(code.numData(), Lane{});
    for (auto &plane : events) {
        for (int l = 0; l < lanes; ++l) {
            if (rng.bernoulli(0.03))
                setLane(plane, l);
        }
    }
    // Oracle marks: about one leaked data qubit per lane.
    for (auto &plane : leaked) {
        for (int l = 0; l < lanes; ++l) {
            if (rng.bernoulli(1.0 / code.numData()))
                setLane(plane, l);
        }
    }
    const Lane live = laneMaskOf<Lane>(lanes);
    BatchLrcSchedule<Lane> sched(code.numData(), code.numStabilizers());

    for (auto _ : state) {
        if (mode == ControllerBench::Oracle)
            controller.oracleRound(leaked, live, sched);
        else
            controller.nextRound(events, labels, had_lrc, live, sched);
        benchmark::DoNotOptimize(sched.blockTails[0].data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * lanes);
}

void
batchControllerRound(benchmark::State &state, ControllerBench mode)
{
    const int d = (int)state.range(0);
    const int width = (int)state.range(1);
    if (width <= 64)
        runBatchControllerRound<1>(state, d, width, mode);
    else if (width <= 256)
        runBatchControllerRound<4>(state, d, width, mode);
    else
        runBatchControllerRound<8>(state, d, width, mode);
}

void
BM_BatchControllerRound(benchmark::State &state)
{
    batchControllerRound(state, ControllerBench::Lookup);
}
BENCHMARK(BM_BatchControllerRound)
    ->ArgNames({"d", "width"})
    ->Args({11, 64})->Args({11, 256})->Args({11, 512});

void
BM_BatchControllerRoundExact(benchmark::State &state)
{
    batchControllerRound(state, ControllerBench::Exact);
}
BENCHMARK(BM_BatchControllerRoundExact)
    ->ArgNames({"d", "width"})
    ->Args({11, 64})->Args({11, 256})->Args({11, 512});

void
BM_BatchControllerRoundOracle(benchmark::State &state)
{
    batchControllerRound(state, ControllerBench::Oracle);
}
BENCHMARK(BM_BatchControllerRoundOracle)
    ->ArgNames({"d", "width"})
    ->Args({11, 64})->Args({11, 256})->Args({11, 512});

/**
 * The compiled round body alone: one replayed program round (its
 * run kernels and hit-table advance) with every LRC slot left empty,
 * at p = 1e-3 with leakage on or off. The simulator restarts every d
 * rounds, as a d-round experiment would.
 */
template <int NW>
void
runBatchFrameSimRoundReplay(benchmark::State &state, int d, int lanes,
                            bool leakage)
{
    RotatedSurfaceCode code(d);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, d, Basis::Z, IrTailKind::SwapLrc);
    const ErrorModel em = leakage ? ErrorModel::standard(1e-3)
                                  : ErrorModel::withoutLeakage(1e-3);
    BatchFrameSimulatorT<NW> sim(prog.numQubits, em, lanes, 2, 0);
    sim.bindProgramStreams(prog);
    sim.reserveRecord((size_t)prog.numStabs);
    int r = 0;
    for (auto _ : state) {
        sim.executeProgramRound(prog, r, sim.liveMask());
        benchmark::DoNotOptimize(sim.record().size());
        sim.clearRecord();
        if (++r == prog.rounds) {
            r = 0;
            sim.reset();
        }
    }
    state.SetItemsProcessed(state.iterations() * sim.numLanes());
}

void
BM_BatchFrameSimRoundReplay(benchmark::State &state)
{
    const int d = (int)state.range(0);
    const int width = (int)state.range(1);
    const bool leakage = state.range(2) != 0;
    if (width <= 64)
        runBatchFrameSimRoundReplay<1>(state, d, width, leakage);
    else if (width <= 256)
        runBatchFrameSimRoundReplay<4>(state, d, width, leakage);
    else
        runBatchFrameSimRoundReplay<8>(state, d, width, leakage);
}
BENCHMARK(BM_BatchFrameSimRoundReplay)
    ->ArgNames({"d", "width", "leakage"})
    ->Args({3, 64, 1})->Args({7, 64, 1})
    ->Args({11, 64, 0})->Args({11, 64, 1})
    ->Args({11, 256, 0})->Args({11, 256, 1})
    ->Args({11, 512, 1});

/**
 * One replayed swap-LRC program round with its divergent LRC tails, at
 * p = 1e-3 with leakage on. `sparse` = 0 is the Always policy's
 * schedule on every lane: on odd rounds a near-perfect pairing of the
 * stabilizers, so each block runs about one whole-block tail per
 * stabilizer. `sparse` = 1 is ERASER-shaped: each lane runs about two
 * tails per round on pairs of its own, so a block holds many distinct
 * tails of one or two lanes each. The fills are built up front (the
 * controller's merge is not timed); the simulator restarts its frames
 * every d rounds, so leakage never runs away under the sparse fill,
 * which (unlike ERASER) does not chase it.
 */
template <int NW>
void
runBatchFrameSimRoundTails(benchmark::State &state, int d, int lanes,
                           bool sparse)
{
    RotatedSurfaceCode code(d);
    const int rounds = d;
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, rounds, Basis::Z, IrTailKind::SwapLrc);
    BatchFrameSimulatorT<NW> sim(prog.numQubits,
                                 ErrorModel::standard(1e-3), lanes, 3, 0);
    const int blocks = sim.numBlocks();

    // Per round: the lrcOnStab planes and the per-block tail lists.
    std::vector<std::vector<LaneWord<NW>>> on_stab(rounds);
    std::vector<std::vector<IrLrcTail>> tails((size_t)rounds * NW);
    std::vector<int> tail_at((size_t)prog.numStabs * prog.numData, -1);
    AlwaysLrcPolicy always(code, false);
    RoundObservation obs;
    Rng rng(17);
    for (int r = 0; r < rounds; ++r) {
        obs.round = r - 1;
        const std::vector<LrcPair> uniform =
            r == 0 ? always.firstRound() : always.nextRound(obs);
        on_stab[r].assign(prog.numStabs, LaneWord<NW>{});
        for (int l = 0; l < lanes; ++l) {
            std::vector<LrcPair> pairs = uniform;
            if (sparse) {
                pairs.clear();
                std::vector<uint8_t> taken(prog.numData, 0);
                for (int s = 0; s < prog.numStabs; ++s) {
                    if (rng.randint(prog.numStabs) >= 2)
                        continue;
                    const int first = prog.supportOffset[s];
                    const int weight = prog.supportOffset[s + 1] - first;
                    const int data =
                        prog.supportData[first + rng.randint(weight)];
                    if (!taken[data]) {
                        taken[data] = 1;
                        pairs.push_back({data, s});
                    }
                }
            }
            std::vector<IrLrcTail> &block = tails[(size_t)r * NW + l / 64];
            for (const LrcPair &pair : pairs) {
                setLane(on_stab[r][pair.stab], l);
                int &at = tail_at[(size_t)pair.stab * prog.numData +
                                  pair.data];
                if (at < 0) {
                    at = (int)block.size();
                    block.push_back({pair.stab, pair.data, 0});
                }
                block[at].mask |= uint64_t{1} << (l % 64);
            }
            if (l % 64 == 63 || l == lanes - 1)
                for (const IrLrcTail &t : block)
                    tail_at[(size_t)t.stab * prog.numData + t.data] = -1;
        }
    }

    sim.bindProgramStreams(prog);
    size_t max_tails = 0;
    for (const auto &block : tails)
        max_tails = std::max(max_tails, block.size());
    sim.reserveRecord((size_t)prog.numStabs + blocks * max_tails);
    int r = 0;
    uint64_t block_tails = 0;
    for (auto _ : state) {
        ProgramLrcFillT<NW> fill;
        fill.lrcOnStab = on_stab[r].data();
        fill.blockTails = &tails[(size_t)r * NW];
        sim.executeProgramRound(prog, r, sim.liveMask(), &fill, 1);
        for (int b = 0; b < blocks; ++b)
            block_tails += tails[(size_t)r * NW + b].size();
        benchmark::DoNotOptimize(sim.record().size());
        sim.clearRecord();
        if (++r == rounds) {
            r = 0;
            sim.reset();
        }
    }
    state.counters["block_tails/round"] = benchmark::Counter(
        (double)block_tails / (double)state.iterations());
    state.SetItemsProcessed(state.iterations() * sim.numLanes());
}

void
BM_BatchFrameSimRoundTails(benchmark::State &state)
{
    const int d = (int)state.range(0);
    const int width = (int)state.range(1);
    const bool sparse = state.range(2) != 0;
    if (width <= 64)
        runBatchFrameSimRoundTails<1>(state, d, width, sparse);
    else if (width <= 256)
        runBatchFrameSimRoundTails<4>(state, d, width, sparse);
    else
        runBatchFrameSimRoundTails<8>(state, d, width, sparse);
}
BENCHMARK(BM_BatchFrameSimRoundTails)
    ->ArgNames({"d", "width", "sparse"})
    ->Args({11, 256, 0})->Args({11, 256, 1});

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

/** Pre-sampled realistic defect sets at p=1e-3: the static memory
 *  program replayed in 64-lane word-groups. */
std::vector<std::vector<int>>
sampleShots(const RotatedSurfaceCode &code, int rounds, int count,
            const ErrorModel &em = ErrorModel::standard(1e-3))
{
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, rounds, Basis::Z, IrTailKind::SwapLrc);
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    std::vector<std::vector<int>> shots;
    for (const auto &[first, lanes] :
         batchGroupSpans((uint64_t)count, 64)) {
        BatchFrameSimulator sim(prog.numQubits, em, lanes, 3, first);
        sim.executeProgram(prog);
        extractor.extract(prog.detectors, rounds, sim.record(), lanes,
                          syndrome);
        for (int l = 0; l < lanes; ++l)
            shots.emplace_back(syndrome.laneBegin(l),
                               syndrome.laneBegin(l) +
                                   syndrome.laneSize(l));
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
BM_WindowedPipelineDecode(benchmark::State &state)
{
    // Sliding-window pipeline with honest work accounting: the rates
    // are defects/s and windows/s over the work actually dispatched,
    // NOT shots/s over lanes that were mostly zero-defect fast-path
    // skips.
    const int d = (int)state.range(0);
    const int rounds = 3 * d;
    RotatedSurfaceCode code(d);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    auto graph = std::make_shared<const ComponentGraph>(dem, 1e-3);

    BatchDecodeOptions options;
    options.cache.enabled = false; // measure decode, not dedup replay
    options.windowLength = 2 * d;
    options.windowSlideLength = d;
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
    state.counters["windows/s"] = benchmark::Counter(
        (double)st.windows, benchmark::Counter::kIsRate);
    state.counters["commit_frac"] = benchmark::Counter(
        st.windowCommits + st.windowDeferrals == 0
            ? 0.0
            : (double)st.windowCommits /
                  (double)(st.windowCommits + st.windowDeferrals));
}
BENCHMARK(BM_WindowedPipelineDecode)
    ->ArgNames({"d"})
    ->Arg(7)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

/**
 * End-to-end decoded throughput of the paper's headline d=11 ERASER
 * memory experiment: batched sim + the batch-aware decode pipeline,
 * decoding with MWPM (uf:0) or Union-Find (uf:1).
 */
void
BM_MemoryExperimentEraserDecoded(benchmark::State &state)
{
    const int d = 11;
    const bool union_find = state.range(0) != 0;
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
    MemoryExperiment exp(code, cfg);

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
    ->ArgName("uf")->Arg(0)->Arg(1)
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

void
BM_DecoderBuild(benchmark::State &state)
{
    // Decoder construction over a Fig. 14 shape's model (10d rounds,
    // p = 1e-3): what every sweep point's set-up pays after the DEM.
    // Args: distance, decoder (0 = MWPM, 1 = Union-Find).
    const int d = (int)state.range(0);
    const bool uf = state.range(1) != 0;
    const DetectorModel dem =
        buildDetectorModel(RotatedSurfaceCode(d), 10 * d, Basis::Z);
    for (auto _ : state) {
        if (uf)
            benchmark::DoNotOptimize(UnionFindDecoder(dem, 1e-3));
        else
            benchmark::DoNotOptimize(MwpmDecoder(dem, 1e-3));
    }
    state.counters["edges"] = (double)dem.edges.size();
}
BENCHMARK(BM_DecoderBuild)
    ->ArgNames({"d", "uf"})
    ->Args({3, 0})->Args({7, 0})->Args({11, 0})
    ->Args({3, 1})->Args({7, 1})->Args({11, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
