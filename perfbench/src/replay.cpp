#include "replay.h"

#include <algorithm>
#include <stdexcept>

#include "base/simd_word.h"
#include "code/circuit_ir.h"
#include "core/policies.h"
#include "decoder/batch_decoder.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/union_find_decoder.h"
#include "sim/batch_frame_simulator.h"

namespace perfbench
{

using namespace qec;

namespace
{

/** Per-shot contribution to a verdict fingerprint: a splitmix64
 *  finalizer over (shot id, logical-error bit), XOR-combined so the
 *  total is independent of shot order. It must stay equal to the mix
 *  behind ExperimentResult::verdictFingerprint; the gate fails on
 *  every decoding point the moment the two drift apart. */
uint64_t
verdictMix(uint64_t shot, bool error)
{
    uint64_t x = shot * 2 + (error ? 1 : 0) + 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(what);
}

/** State one (point, policy) replay shares across its word-groups. */
struct PolicyRun
{
    const CircuitProgram &prog;
    const RotatedSurfaceCode &code;
    const SwapLookupTable &lookup;
    const ExperimentConfig &cfg;
    const PolicyFactory &factory;
    BatchDecoder *pipeline = nullptr;
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    ReplayResult &out;
    LayerTrace &trace;
};

template <int NW>
void
replayGroup(PolicyRun &run, uint64_t first, int W)
{
    using Lane = LaneWord<NW>;
    LayerTrace &tr = run.trace;
    const CircuitProgram &prog = run.prog;
    const ExperimentConfig &cfg = run.cfg;
    ReplayResult &out = run.out;
    const auto group_start = Clock::now();
    const int NB = (W + 63) / 64;
    const int n_stabs = prog.numStabs;
    const int n_data = prog.numData;

    auto t = Clock::now();
    BatchFrameSimulatorT<NW> sim(prog.numQubits, cfg.em, W, cfg.seed,
                                 first);
    const Lane live = sim.liveMask();
    sim.reserveRecord(
        (size_t)cfg.rounds * (1 + (size_t)NB) * n_stabs + n_data);
    sim.bindProgramStreams(prog);
    tr.simRoundS += secondsSince(t);

    t = Clock::now();
    std::unique_ptr<LrcPolicy> shared = run.factory();
    const BatchPolicySpec spec = shared->batchSpec();
    const bool multi_level = shared->usesMultiLevelReadout();
    const bool per_lane = spec.kind == BatchPolicyKind::PerLane;
    std::vector<std::unique_ptr<LrcPolicy>> policies;
    std::unique_ptr<BatchEraserController<Lane>> controller;
    std::vector<std::vector<LrcPair>> lrcs(W);
    if (per_lane) {
        policies.reserve(W);
        policies.push_back(std::move(shared));
        for (int l = 1; l < W; ++l)
            policies.push_back(run.factory());
        for (int l = 0; l < W; ++l)
            lrcs[l] = policies[l]->firstRound();
    } else if (spec.kind == BatchPolicyKind::Eraser) {
        controller = std::make_unique<BatchEraserController<Lane>>(
            run.code, run.lookup, spec);
        const auto first_lrcs = shared->firstRound();
        for (int l = 0; l < W; ++l)
            lrcs[l] = first_lrcs;
    } else {
        lrcs[0] = shared->firstRound();
    }
    tr.controllerS += secondsSince(t);

    RoundObservation obs;
    obs.events.assign(n_stabs, 0);
    obs.leakedLabels.assign(n_stabs, 0);
    obs.hadLrc.assign(n_data, 0);
    obs.trueLeakedData.assign(n_data, 0);

    std::vector<Lane> flips(n_stabs, Lane{}), labels(n_stabs, Lane{});
    std::vector<Lane> prev_flips(n_stabs, Lane{});
    std::vector<Lane> events(n_stabs, Lane{});
    std::vector<Lane> sched_mask(n_data, Lane{});
    std::vector<Lane> lrc_on_stab(n_stabs, Lane{});
    std::vector<Lane> leak_snapshot(n_data, Lane{});
    std::vector<uint32_t> ev_off((size_t)W + 1), lab_off((size_t)W + 1),
        leak_off((size_t)W + 1);
    std::vector<uint32_t> ev_cur(W), lab_cur(W), leak_cur(W);
    std::vector<int> ev_arena, lab_arena, leak_arena;
    std::vector<IrLrcTail> active[NW];
    std::vector<int> stab_epoch(n_stabs, -1), data_epoch(n_data, -1);
    int epoch = 0;

    for (int r = 0; r < cfg.rounds; ++r) {
        std::fill(sched_mask.begin(), sched_mask.end(), Lane{});
        std::fill(lrc_on_stab.begin(), lrc_on_stab.end(), Lane{});
        for (int b = 0; b < NB; ++b)
            active[b].clear();
        if (!per_lane && spec.kind != BatchPolicyKind::Eraser) {
            for (const auto &pair : lrcs[0]) {
                require(pair.stab >= 0 && pair.stab < n_stabs &&
                            pair.data >= 0 && pair.data < n_data,
                        "uniform LRC pair out of range");
                sched_mask[pair.data] = live;
                lrc_on_stab[pair.stab] = live;
                for (int b = 0; b < NB; ++b)
                    active[b].push_back(
                        {pair.stab, pair.data, laneWord(live, b)});
            }
            out.lrcsScheduled += (uint64_t)lrcs[0].size() * (uint64_t)W;
        } else {
            for (int l = 0; l < W; ++l) {
                ++epoch;
                const int b = l >> 6;
                const uint64_t bit = uint64_t{1} << (l & 63);
                for (const auto &pair : lrcs[l]) {
                    if (per_lane) {
                        require(pair.stab >= 0 && pair.stab < n_stabs &&
                                    pair.data >= 0 && pair.data < n_data,
                                "per-lane LRC pair out of range");
                        require(stab_epoch[pair.stab] != epoch &&
                                    data_epoch[pair.data] != epoch,
                                "per-lane LRC pairs overlap");
                        stab_epoch[pair.stab] = epoch;
                        data_epoch[pair.data] = epoch;
                        require(prog.supportContains(pair.stab,
                                                     pair.data),
                                "per-lane LRC pair is not adjacent");
                    }
                    setLane(sched_mask[pair.data], l);
                    setLane(lrc_on_stab[pair.stab], l);
                    auto it = std::find_if(
                        active[b].begin(), active[b].end(),
                        [&](const IrLrcTail &a) {
                            return a.stab == pair.stab &&
                                   a.data == pair.data;
                        });
                    if (it == active[b].end())
                        active[b].push_back({pair.stab, pair.data, bit});
                    else
                        it->mask |= bit;
                }
                out.lrcsScheduled += lrcs[l].size();
            }
        }
        for (int b = 0; b < NB; ++b)
            tr.tails += active[b].size();
        tr.blockRounds += (uint64_t)NB;

        uint64_t sched_total = 0, leaked_total = 0, tp_round = 0;
        for (int q = 0; q < n_data; ++q) {
            const Lane is_leaked = sim.leakedWord(q) & live;
            leaked_total += (uint64_t)popcountLanes(is_leaked);
            if (anyLane(sched_mask[q])) {
                sched_total += (uint64_t)popcountLanes(sched_mask[q]);
                tp_round +=
                    (uint64_t)popcountLanes(sched_mask[q] & is_leaked);
            }
        }
        out.tp += tp_round;
        out.fp += sched_total - tp_round;
        out.fn += leaked_total - tp_round;
        out.tn += (uint64_t)W * (uint64_t)n_data - sched_total -
                  leaked_total + tp_round;

        const size_t record_mark = sim.record().size();
        ProgramLrcFillT<NW> fill;
        fill.lrcOnStab = lrc_on_stab.data();
        fill.blockTails = active;
        fill.multiLevel = multi_level;
        t = Clock::now();
        sim.executeProgramRound(prog, r, live, &fill, 1);
        tr.simRoundS += secondsSince(t);

        std::fill(flips.begin(), flips.end(), Lane{});
        std::fill(labels.begin(), labels.end(), Lane{});
        for (size_t i = record_mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab < 0)
                continue;
            flips[rec.stab] = andnot(flips[rec.stab], rec.mask) | rec.flips;
            if (!rec.lrcData)
                labels[rec.stab] =
                    andnot(labels[rec.stab], rec.mask) | rec.leakedLabels;
        }

        if (cfg.trackLpr) {
            out.lprData[r] += (double)sim.countLeaked(0, n_data);
            out.lprParity[r] +=
                (double)sim.countLeaked(n_data, prog.numQubits);
        }

        for (int s = 0; s < n_stabs; ++s)
            events[s] = r == 0 ? (prog.detR0[s] ? flips[s] : Lane{})
                               : flips[s] ^ prev_flips[s];

        obs.round = r;
        if (controller) {
            t = Clock::now();
            controller->nextRound(events, labels, sched_mask, live, lrcs);
            tr.controllerS += secondsSince(t);
        } else if (spec.kind == BatchPolicyKind::Uniform) {
            t = Clock::now();
            lrcs[0] = shared->nextRound(obs);
            tr.controllerS += secondsSince(t);
        } else if (per_lane) {
            // Lane-major scatter of the event, label and true-leak
            // planes (driver time), then one policy call per lane
            // (controller time).
            for (int q = 0; q < n_data; ++q)
                leak_snapshot[q] = sim.leakedWord(q);
            std::fill(ev_cur.begin(), ev_cur.end(), 0);
            std::fill(lab_cur.begin(), lab_cur.end(), 0);
            std::fill(leak_cur.begin(), leak_cur.end(), 0);
            for (int s = 0; s < n_stabs; ++s) {
                forEachSetLane(events[s], [&](int l) { ++ev_cur[l]; });
                forEachSetLane(labels[s], [&](int l) { ++lab_cur[l]; });
            }
            for (int q = 0; q < n_data; ++q)
                forEachSetLane(leak_snapshot[q],
                               [&](int l) { ++leak_cur[l]; });
            uint32_t ev_total = 0, lab_total = 0, leak_total = 0;
            for (int l = 0; l < W; ++l) {
                ev_off[l] = ev_total;
                ev_total += ev_cur[l];
                ev_cur[l] = ev_off[l];
                lab_off[l] = lab_total;
                lab_total += lab_cur[l];
                lab_cur[l] = lab_off[l];
                leak_off[l] = leak_total;
                leak_total += leak_cur[l];
                leak_cur[l] = leak_off[l];
            }
            ev_off[W] = ev_total;
            lab_off[W] = lab_total;
            leak_off[W] = leak_total;
            ev_arena.resize(ev_total);
            lab_arena.resize(lab_total);
            leak_arena.resize(leak_total);
            for (int s = 0; s < n_stabs; ++s) {
                forEachSetLane(events[s],
                               [&](int l) { ev_arena[ev_cur[l]++] = s; });
                forEachSetLane(labels[s], [&](int l) {
                    lab_arena[lab_cur[l]++] = s;
                });
            }
            for (int q = 0; q < n_data; ++q)
                forEachSetLane(leak_snapshot[q], [&](int l) {
                    leak_arena[leak_cur[l]++] = q;
                });

            t = Clock::now();
            for (int l = 0; l < W; ++l) {
                for (uint32_t k = ev_off[l]; k < ev_off[l + 1]; ++k)
                    obs.events[ev_arena[k]] = 1;
                for (uint32_t k = lab_off[l]; k < lab_off[l + 1]; ++k)
                    obs.leakedLabels[lab_arena[k]] = 1;
                for (uint32_t k = leak_off[l]; k < leak_off[l + 1]; ++k)
                    obs.trueLeakedData[leak_arena[k]] = 1;
                for (const auto &pair : lrcs[l])
                    obs.hadLrc[pair.data] = 1;

                auto next = policies[l]->nextRound(obs);

                for (uint32_t k = ev_off[l]; k < ev_off[l + 1]; ++k)
                    obs.events[ev_arena[k]] = 0;
                for (uint32_t k = lab_off[l]; k < lab_off[l + 1]; ++k)
                    obs.leakedLabels[lab_arena[k]] = 0;
                for (uint32_t k = leak_off[l]; k < leak_off[l + 1]; ++k)
                    obs.trueLeakedData[leak_arena[k]] = 0;
                for (const auto &pair : lrcs[l])
                    obs.hadLrc[pair.data] = 0;
                lrcs[l] = std::move(next);
            }
            tr.controllerS += secondsSince(t);
        }
        std::copy(flips.begin(), flips.end(), prev_flips.begin());
    }

    if (cfg.decode) {
        t = Clock::now();
        sim.executeProgramFinal(prog, live);
        tr.simFinalS += secondsSince(t);

        t = Clock::now();
        run.extractor.extract(prog.detectors, cfg.rounds, sim.record(), W,
                              run.syndrome);
        tr.extractS += secondsSince(t);

        uint64_t predictions[kMaxBatchWords];
        t = Clock::now();
        run.pipeline->decodeBatch(run.syndrome, predictions);
        tr.decodeBatchS += secondsSince(t);

        for (int b = 0; b < NB; ++b) {
            const uint64_t errors =
                (predictions[b] ^ run.syndrome.observableWords[b]) &
                laneWord(live, b);
            out.logicalErrors += (uint64_t)__builtin_popcountll(errors);
            const int block_lanes =
                __builtin_popcountll(laneWord(live, b));
            for (int i = 0; i < block_lanes; ++i)
                out.fingerprint ^= verdictMix(
                    first + 64 * (uint64_t)b + i, (errors >> i) & 1);
        }
    }
    tr.groupS += secondsSince(group_start);
}

} // namespace

std::string
compareResult(const ReplayResult &a, const ExperimentResult &ref)
{
    if (a.shots != ref.shots)
        return "shots";
    if (a.logicalErrors != ref.logicalErrors)
        return "logical errors";
    if (a.fingerprint != ref.verdictFingerprint)
        return "verdict fingerprint";
    if (a.tp != ref.tp || a.fp != ref.fp || a.tn != ref.tn ||
        a.fn != ref.fn)
        return "tp/fp/tn/fn";
    if (a.lrcsScheduled != ref.lrcsScheduled)
        return "lrcsScheduled";
    if (a.lprData != ref.lprDataSum || a.lprParity != ref.lprParitySum)
        return "LPR sums";
    return "";
}

ReplayPoint
ReplayBuilder::build(const SweepPoint &point,
                     const DecoderOptions &decoder_options,
                     LayerTrace &trace)
{
    const ExperimentConfig &cfg = point.config;
    if (cfg.family != CircuitFamily::SurfaceMemory)
        throw std::runtime_error("the replay builds surface memory only");
    ReplayPoint rp;
    rp.point = point;

    auto t = Clock::now();
    auto code_it = codes_.find(point.distance);
    if (code_it == codes_.end())
        code_it = codes_
                      .emplace(point.distance,
                               std::make_unique<RotatedSurfaceCode>(
                                   point.distance))
                      .first;
    rp.code = code_it->second.get();
    rp.lookup = std::make_unique<SwapLookupTable>(*rp.code);
    const auto prog_key = std::make_tuple(
        point.distance, point.rounds, (int)cfg.basis, (int)point.protocol);
    auto prog_it = programs_.find(prog_key);
    if (prog_it == programs_.end()) {
        StatusOr<CircuitProgram> prog =
            CircuitCompiler::surfaceMemoryChecked(
                *rp.code, point.rounds, cfg.basis,
                point.protocol == RemovalProtocol::Dqlr
                    ? IrTailKind::Dqlr
                    : IrTailKind::SwapLrc);
        if (!prog.ok())
            throw std::runtime_error(prog.status().toString());
        prog_it = programs_
                      .emplace(prog_key,
                               std::make_shared<const CircuitProgram>(
                                   std::move(prog).value()))
                      .first;
    }
    rp.program = prog_it->second;
    trace.compileS += secondsSince(t);

    if (!cfg.decode)
        return rp;

    t = Clock::now();
    const auto dem_key =
        std::make_tuple(point.distance, point.rounds, (int)cfg.basis);
    auto dem_it = dems_.find(dem_key);
    if (dem_it == dems_.end()) {
        dem_it = dems_
                     .emplace(dem_key,
                              std::make_shared<const DetectorModel>(
                                  buildDetectorModel(*rp.code,
                                                     point.rounds,
                                                     cfg.basis)))
                     .first;
        trace.demEdges += dem_it->second->edges.size();
    }
    rp.dem = dem_it->second;
    trace.demBuildS += secondsSince(t);

    t = Clock::now();
    const auto dec_key =
        std::make_tuple(point.distance, point.rounds, (int)cfg.basis,
                        (int)point.decoderKind, point.p);
    auto dec_it = decoders_.find(dec_key);
    if (dec_it == decoders_.end()) {
        std::shared_ptr<const Decoder> built;
        if (point.decoderKind == DecoderKind::Mwpm)
            built = std::make_shared<MwpmDecoder>(*rp.dem, point.p,
                                                  decoder_options);
        else
            built = std::make_shared<UnionFindDecoder>(*rp.dem, point.p);
        dec_it = decoders_.emplace(dec_key, std::move(built)).first;
    }
    rp.decoder = dec_it->second;
    trace.decoderBuildS += secondsSince(t);

    t = Clock::now();
    rp.graph = std::make_shared<const ComponentGraph>(*rp.dem, cfg.em.p);
    trace.componentGraphS += secondsSince(t);
    return rp;
}

ReplayResult
replayPolicy(const ReplayPoint &rp, const SweepPolicy &policy,
             uint64_t shots, LayerTrace &trace)
{
    ExperimentConfig cfg = rp.point.config;
    cfg.shots = shots;
    require(cfg.batchDecode, "the replay drives the batched decoder only");
    const PolicyFactory factory =
        policy.custom
            ? policy.custom(*rp.code, *rp.lookup)
            : makePolicyFactory(policy.kind, *rp.code, *rp.lookup,
                                cfg.protocol == RemovalProtocol::Dqlr);

    ReplayResult out;
    out.shots = shots;
    if (cfg.trackLpr) {
        out.lprData.assign(cfg.rounds, 0.0);
        out.lprParity.assign(cfg.rounds, 0.0);
    }

    std::unique_ptr<TimedDecoder> timed;
    std::unique_ptr<BatchDecoder> pipeline;
    if (cfg.decode) {
        timed = std::make_unique<TimedDecoder>(*rp.decoder);
        BatchDecodeOptions options;
        options.cache = resolveSyndromeCacheOptions(
            cfg.syndromeCache, cfg.rounds,
            rp.code->numBasisStabilizers(cfg.basis));
        options.components = cfg.componentDecode;
        options.windowLength = cfg.windowLength;
        options.windowSlideLength = cfg.windowSlideLength;
        pipeline = std::make_unique<BatchDecoder>(*timed, options, rp.graph);
    }

    PolicyRun run{*rp.program, *rp.code,  *rp.lookup, cfg, factory,
                  pipeline.get(), {},     {},         out, trace};
    const unsigned width = std::min<unsigned>(
        std::max<unsigned>(cfg.batchWidth, 1), (unsigned)kMaxBatchLanes);
    for (const auto &[first, lanes] : batchGroupSpans(shots, width)) {
        if (width <= 64)
            replayGroup<1>(run, first, lanes);
        else if (width <= 256)
            replayGroup<4>(run, first, lanes);
        else
            replayGroup<8>(run, first, lanes);
    }

    trace.shots += shots;
    trace.shotRounds += shots * (uint64_t)cfg.rounds;
    trace.lrcs += out.lrcsScheduled;
    if (pipeline) {
        const BatchDecodeStats &stats = pipeline->stats();
        trace.pipelineLanes += stats.shots;
        trace.zeroDefectLanes += stats.zeroDefect;
        trace.cacheHits += stats.cacheHits;
        trace.decodedLanes += stats.decoded;
        trace.decodeSparseS += timed->seconds();
        trace.decodeCalls += timed->calls();
        trace.decodeDefects += timed->defects();
    }
    return out;
}

} // namespace perfbench
