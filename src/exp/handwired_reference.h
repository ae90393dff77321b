/**
 * @file
 * Frozen hand-wired batch driver: the pre-IR word-group round loop,
 * kept verbatim as an executable reference.
 *
 * MemoryExperiment::runGroupT replays compiled CircuitPrograms through
 * BatchFrameSimulatorT::executeProgramRound; this header preserves the
 * imperative driver it replaced, built only from public APIs. The
 * forever-contract — IR replay reproduces the hand-wired per-shot
 * verdict fingerprints bit-identically at W = 64/256/512 with
 * per-64-lane-block stream draw order unchanged — is asserted by
 * running both paths and comparing fingerprints, counters and LPR
 * series (tests/test_circuit_ir.cpp), and the IR-vs-hand-wired
 * throughput pin in bench/perf_components.cpp times this loop as the
 * baseline.
 */

#ifndef QEC_EXP_HANDWIRED_REFERENCE_H
#define QEC_EXP_HANDWIRED_REFERENCE_H

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/simd_word.h"
#include "code/builder.h"
#include "core/policies.h"
#include "decoder/batch_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/syndrome_cache.h"
#include "exp/memory_experiment.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{

/** The counters the hand-wired driver accumulates; field-for-field
 *  comparable with ExperimentResult's shot statistics. */
struct HandwiredResult
{
    uint64_t shots = 0;
    uint64_t logicalErrors = 0;
    uint64_t verdictFingerprint = 0;
    uint64_t tp = 0;
    uint64_t fp = 0;
    uint64_t tn = 0;
    uint64_t fn = 0;
    uint64_t lrcsScheduled = 0;
    std::vector<double> lprData;
    std::vector<double> lprParity;
};

namespace handwired
{

/** The per-shot verdict mix (same function the harness uses). */
inline uint64_t
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

inline int
popcount64(uint64_t word)
{
    return __builtin_popcountll(word);
}

/** Lane-divergent LRC assignment within one 64-lane block. */
struct ActiveLrc
{
    int stab;
    int data;
    uint64_t mask;
};

/** The experiment's batched decode-pipeline options, rebuilt from its
 *  public configuration. */
inline BatchDecodeOptions
batchOptions(const MemoryExperiment &exp)
{
    const ExperimentConfig &cfg = exp.config();
    BatchDecodeOptions options;
    options.cache = resolveSyndromeCacheOptions(
        cfg.syndromeCache, cfg.rounds,
        exp.code().numBasisStabilizers(cfg.basis));
    options.components = cfg.componentDecode;
    options.windowLength = cfg.windowLength;
    options.windowSlideLength = cfg.windowSlideLength;
    return options;
}

/** One word-group of the pre-IR driver, verbatim. */
template <int NW>
void
runGroup(const MemoryExperiment &exp, uint64_t first_shot, int lanes,
         const PolicyFactory &factory, SparseSyndromeExtractor &extractor,
         BatchSyndrome &syndrome, BatchDecoder *pipeline,
         HandwiredResult &stats)
{
    using Lane = LaneWord<NW>;
    const RotatedSurfaceCode &code = exp.code();
    const ExperimentConfig &cfg = exp.config();
    const uint64_t first = first_shot;
    const int W = lanes;
    const int NB = (W + 63) / 64;
    const int n_stabs = code.numStabilizers();
    const int n_data = code.numData();
    const StabType primary = protectingStabType(cfg.basis);
    const bool swap_lrc = cfg.protocol == RemovalProtocol::SwapLrc;

    BatchFrameSimulatorT<NW> sim(code.numQubits(), cfg.em, W, cfg.seed,
                                 first);
    const Lane live = sim.liveMask();
    sim.reserveRecord(
        (size_t)cfg.rounds * (1 + (size_t)NB) * n_stabs + n_data);

    std::unique_ptr<LrcPolicy> shared = factory();
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
            policies.push_back(factory());
        for (int l = 0; l < W; ++l)
            lrcs[l] = policies[l]->firstRound();
    } else if (spec.kind == BatchPolicyKind::Eraser) {
        controller = std::make_unique<BatchEraserController<Lane>>(
            code, exp.lookup(), spec);
        const auto first_lrcs = shared->firstRound();
        for (int l = 0; l < W; ++l)
            lrcs[l] = first_lrcs;
    } else {
        lrcs[0] = shared->firstRound();
    }

    const RoundSchedule plain = buildRoundSchedule(code, 0, {});
    size_t prefix_end = 0;
    while (prefix_end < plain.ops.size() &&
           plain.ops[prefix_end].type != OpType::Measure)
        ++prefix_end;

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
    std::vector<ActiveLrc> active[NW];
    std::vector<int> stab_epoch(n_stabs, -1), data_epoch(n_data, -1);
    int epoch = 0;

    for (int r = 0; r < cfg.rounds; ++r) {
        std::fill(sched_mask.begin(), sched_mask.end(), Lane{});
        std::fill(lrc_on_stab.begin(), lrc_on_stab.end(), Lane{});
        for (int b = 0; b < NB; ++b)
            active[b].clear();
        if (!per_lane && spec.kind != BatchPolicyKind::Eraser) {
            for (const auto &pair : lrcs[0]) {
                panicIf(pair.stab < 0 || pair.stab >= n_stabs,
                        "LRC references an invalid stabilizer");
                panicIf(pair.data < 0 || pair.data >= n_data,
                        "LRC references an invalid data qubit");
                sched_mask[pair.data] = live;
                lrc_on_stab[pair.stab] = live;
                for (int b = 0; b < NB; ++b)
                    active[b].push_back(
                        {pair.stab, pair.data, laneWord(live, b)});
            }
            stats.lrcsScheduled +=
                (uint64_t)lrcs[0].size() * (uint64_t)W;
        } else {
            for (int l = 0; l < W; ++l) {
                ++epoch;
                const int b = l >> 6;
                const uint64_t bit = uint64_t{1} << (l & 63);
                for (const auto &pair : lrcs[l]) {
                    if (per_lane) {
                        panicIf(pair.stab < 0 || pair.stab >= n_stabs,
                                "LRC references an invalid stabilizer");
                        panicIf(pair.data < 0 || pair.data >= n_data,
                                "LRC references an invalid data qubit");
                        panicIf(stab_epoch[pair.stab] == epoch,
                                "two LRCs share one parity qubit in "
                                "the same round");
                        panicIf(data_epoch[pair.data] == epoch,
                                "one data qubit has two LRCs in the "
                                "same round");
                        stab_epoch[pair.stab] = epoch;
                        data_epoch[pair.data] = epoch;
                        const auto &support =
                            code.stabilizer(pair.stab).support;
                        panicIf(std::find(support.begin(),
                                          support.end(),
                                          pair.data) == support.end(),
                                "LRC data qubit is not adjacent to "
                                "its parity qubit");
                    }
                    setLane(sched_mask[pair.data], l);
                    setLane(lrc_on_stab[pair.stab], l);
                    auto it = std::find_if(
                        active[b].begin(), active[b].end(),
                        [&](const ActiveLrc &a) {
                            return a.stab == pair.stab &&
                                   a.data == pair.data;
                        });
                    if (it == active[b].end())
                        active[b].push_back(
                            {pair.stab, pair.data, bit});
                    else
                        it->mask |= bit;
                }
                stats.lrcsScheduled += lrcs[l].size();
            }
        }

        uint64_t sched_total = 0, leaked_total = 0, tp_round = 0;
        for (int q = 0; q < n_data; ++q) {
            const Lane is_leaked = sim.leakedWord(q) & live;
            leaked_total += (uint64_t)popcountLanes(is_leaked);
            if (anyLane(sched_mask[q])) {
                sched_total +=
                    (uint64_t)popcountLanes(sched_mask[q]);
                tp_round += (uint64_t)popcountLanes(sched_mask[q] &
                                                    is_leaked);
            }
        }
        stats.tp += tp_round;
        stats.fp += sched_total - tp_round;
        stats.fn += leaked_total - tp_round;
        stats.tn += (uint64_t)W * (uint64_t)n_data - sched_total -
                    leaked_total + tp_round;

        const size_t record_mark = sim.record().size();

        sim.executeRange(plain.ops.data(),
                         plain.ops.data() + prefix_end, live);

        for (const auto &stab : code.stabilizers()) {
            Lane m = live;
            if (swap_lrc)
                m = andnot(m, lrc_on_stab[stab.index]);
            if (!anyLane(m))
                continue;
            Op meas = makeOp(OpType::Measure, stab.ancilla);
            meas.stab = stab.index;
            meas.round = r;
            sim.execute(meas, m);
            sim.execute(makeOp(OpType::Reset, stab.ancilla), m);
        }
        for (int b = 0; b < NB; ++b) {
            for (const auto &a : active[b]) {
                const int parity = code.stabilizer(a.stab).ancilla;
                if (swap_lrc) {
                    sim.executeBlock(
                        makeOp(OpType::Cnot, a.data, parity), b,
                        a.mask);
                    sim.executeBlock(
                        makeOp(OpType::Cnot, parity, a.data), b,
                        a.mask);
                    sim.executeBlock(
                        makeOp(OpType::Cnot, a.data, parity), b,
                        a.mask);
                    Op meas = makeOp(OpType::Measure, a.data);
                    meas.stab = a.stab;
                    meas.round = r;
                    meas.lrcData = true;
                    sim.executeBlock(meas, b, a.mask);
                    uint64_t squash = 0;
                    if (multi_level)
                        squash =
                            laneWord(sim.record().back().leakedLabels,
                                     b) &
                            a.mask;
                    sim.executeBlock(makeOp(OpType::Reset, a.data), b,
                                     a.mask);
                    const uint64_t mov = a.mask & ~squash;
                    if (mov) {
                        sim.executeBlock(
                            makeOp(OpType::Cnot, parity, a.data), b,
                            mov);
                        sim.executeBlock(
                            makeOp(OpType::Cnot, a.data, parity), b,
                            mov);
                    }
                    if (squash)
                        sim.executeBlock(makeOp(OpType::Reset, parity),
                                         b, squash);
                } else {
                    sim.executeBlock(
                        makeOp(OpType::LeakageIswap, a.data, parity),
                        b, a.mask);
                    sim.executeBlock(makeOp(OpType::Reset, parity), b,
                                     a.mask);
                }
            }
        }

        std::fill(flips.begin(), flips.end(), Lane{});
        std::fill(labels.begin(), labels.end(), Lane{});
        for (size_t i = record_mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab < 0)
                continue;
            flips[rec.stab] =
                andnot(flips[rec.stab], rec.mask) | rec.flips;
            if (!rec.lrcData)
                labels[rec.stab] =
                    andnot(labels[rec.stab], rec.mask) |
                    rec.leakedLabels;
        }

        if (cfg.trackLpr) {
            stats.lprData[r] += (double)sim.countLeaked(0, n_data);
            stats.lprParity[r] +=
                (double)sim.countLeaked(n_data, code.numQubits());
        }

        for (int s = 0; s < n_stabs; ++s) {
            if (r == 0) {
                events[s] = code.stabilizer(s).type == primary
                    ? flips[s] : Lane{};
            } else {
                events[s] = flips[s] ^ prev_flips[s];
            }
        }

        obs.round = r;
        if (controller) {
            controller->nextRound(events, labels, sched_mask, live,
                                  lrcs);
        } else if (spec.kind == BatchPolicyKind::Uniform) {
            lrcs[0] = shared->nextRound(obs);
        } else if (spec.kind == BatchPolicyKind::Never) {
            // Nothing ever scheduled; lrcs[0] stays empty.
        } else {
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
                forEachSetLane(events[s], [&](int l) {
                    ev_arena[ev_cur[l]++] = s;
                });
                forEachSetLane(labels[s], [&](int l) {
                    lab_arena[lab_cur[l]++] = s;
                });
            }
            for (int q = 0; q < n_data; ++q) {
                forEachSetLane(leak_snapshot[q], [&](int l) {
                    leak_arena[leak_cur[l]++] = q;
                });
            }

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
                for (uint32_t k = leak_off[l]; k < leak_off[l + 1];
                     ++k)
                    obs.trueLeakedData[leak_arena[k]] = 0;
                for (const auto &pair : lrcs[l])
                    obs.hadLrc[pair.data] = 0;
                lrcs[l] = std::move(next);
            }
        }
        std::copy(flips.begin(), flips.end(), prev_flips.begin());
    }

    if (!cfg.decode)
        return;

    auto final_ops =
        buildFinalMeasurement(code, cfg.rounds, cfg.basis);
    sim.executeRange(final_ops.data(),
                     final_ops.data() + final_ops.size(), live);

    extractor.extract(code, cfg.basis, cfg.rounds, sim.record(), W,
                      syndrome);
    if (cfg.batchDecode) {
        uint64_t predictions[kMaxBatchWords];
        pipeline->decodeBatch(syndrome, predictions);
        for (int b = 0; b < NB; ++b) {
            const uint64_t errors =
                (predictions[b] ^ syndrome.observableWords[b]) &
                laneWord(live, b);
            stats.logicalErrors += popcount64(errors);
            const int block_lanes = popcount64(laneWord(live, b));
            for (int i = 0; i < block_lanes; ++i)
                stats.verdictFingerprint ^= verdictMix(
                    first + 64 * (uint64_t)b + i,
                    (errors >> i) & 1);
        }
    } else {
        for (int l = 0; l < W; ++l) {
            const std::vector<int> defects(
                syndrome.laneBegin(l),
                syndrome.laneBegin(l) + syndrome.laneSize(l));
            const bool predicted = exp.decoder()->decode(defects);
            const bool error =
                predicted != syndrome.laneObservable(l);
            stats.logicalErrors += error ? 1 : 0;
            stats.verdictFingerprint ^= verdictMix(first + l, error);
        }
    }
}

} // namespace handwired

/**
 * Run every shot of the experiment through the frozen hand-wired
 * word-group driver (the batch engine, like MemoryExperiment::run). The
 * group decomposition, engine seeding and decode pipeline match the
 * harness exactly, so the returned fingerprints/counters are directly
 * comparable with ExperimentResult.
 */
inline HandwiredResult
runHandwired(const MemoryExperiment &exp, const PolicyFactory &factory)
{
    const ExperimentConfig &cfg = exp.config();
    const unsigned width = std::min<unsigned>(
        std::max<unsigned>(cfg.batchWidth, 1),
        (unsigned)kMaxBatchLanes);

    HandwiredResult out;
    out.shots = cfg.shots;
    if (cfg.trackLpr) {
        out.lprData.assign(cfg.rounds, 0.0);
        out.lprParity.assign(cfg.rounds, 0.0);
    }

    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    std::unique_ptr<BatchDecoder> pipeline;
    if (cfg.decode && cfg.batchDecode)
        pipeline = std::make_unique<BatchDecoder>(
            *exp.decoder(), handwired::batchOptions(exp),
            exp.componentGraph());

    for (const auto &[first, lanes] : batchGroupSpans(cfg.shots, width)) {
        if (width <= 64)
            handwired::runGroup<1>(exp, first, lanes, factory,
                                   extractor, syndrome, pipeline.get(),
                                   out);
        else if (width <= 256)
            handwired::runGroup<4>(exp, first, lanes, factory,
                                   extractor, syndrome, pipeline.get(),
                                   out);
        else
            handwired::runGroup<8>(exp, first, lanes, factory,
                                   extractor, syndrome, pipeline.get(),
                                   out);
    }
    return out;
}

} // namespace qec

#endif // QEC_EXP_HANDWIRED_REFERENCE_H
